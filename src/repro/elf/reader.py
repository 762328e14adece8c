"""ELF image parser.

:func:`parse_elf` decodes an ELF image (bytes) into an :class:`ElfFile`
object exposing the header, section table, program headers, dynamic section,
GNU symbol-versioning data and the ``.comment`` section -- i.e. exactly the
information FEAM's Binary Description Component extracts with ``objdump -p``
and ``readelf -p .comment``.

Both ELF32 and ELF64 images in either byte order are supported.  The parser
is deliberately forgiving about sections it does not understand, but strict
about malformed structures in the sections it does parse: corrupt offsets
raise :class:`ElfError` rather than yielding silently wrong descriptions.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.elf.constants import (
    EI_CLASS,
    EI_DATA,
    EI_NIDENT,
    EI_OSABI,
    ELF_MAGIC,
    DynamicTag,
    ElfClass,
    ElfData,
    ElfMachine,
    ElfType,
    SectionType,
    SegmentType,
)
from repro.elf.structs import (
    DynamicEntry,
    DynamicInfo,
    ElfHeader,
    ProgramHeader,
    SectionHeader,
    SymbolVersion,
    VersionDefinition,
    VersionRequirement,
)


class ElfError(ValueError):
    """Raised when an image is not valid ELF or is structurally corrupt."""


def _read_cstr(data: bytes, offset: int) -> str:
    """Read a NUL-terminated string from *data* at *offset*."""
    if offset < 0 or offset >= len(data):
        raise ElfError(f"string offset {offset:#x} outside image")
    end = data.find(b"\x00", offset)
    if end < 0:
        end = len(data)
    return data[offset:end].decode("utf-8", errors="replace")


class ElfFile:
    """A parsed ELF image.

    Attributes of interest to FEAM:

    * :attr:`header` -- machine, class (bitness), file type.
    * :attr:`dynamic` -- DT_NEEDED list, DT_SONAME, rpath/runpath.
    * :attr:`version_requirements` -- verneed: versions required per library.
    * :attr:`version_definitions` -- verdef: versions this object defines.
    * :attr:`comment` -- toolchain identification strings.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._size = len(data)
        self.header = self._parse_header()
        prefix = self.header.data.struct_prefix
        self._prefix = prefix
        self._is64 = self.header.elf_class is ElfClass.ELF64
        self.program_headers = self._parse_program_headers()
        self.sections = self._parse_sections()
        self._by_name = {s.name: s for s in self.sections}
        self.dynamic = self._parse_dynamic()
        self._version_names_by_index: dict[int, str] = {}
        self.version_requirements = self._parse_verneed()
        self.version_definitions = self._parse_verdef()
        self.symbols = self._parse_symbols()
        self.comment = self._parse_comment()

    # -- basic properties ---------------------------------------------------

    @property
    def data(self) -> bytes:
        """The raw image (empty after :meth:`detach`)."""
        return self._data

    @property
    def size(self) -> int:
        """Size in bytes of the parsed image (survives :meth:`detach`)."""
        return self._size

    def detach(self) -> "ElfFile":
        """Drop the raw image to save memory.

        All parsed attributes remain valid; only :attr:`data` and
        :meth:`section_data` become unavailable.  Used by the loader's
        parse cache, which would otherwise pin every multi-megabyte
        library image in memory.
        """
        self._data = b""
        return self

    @property
    def is_dynamic(self) -> bool:
        """True when the object has a dynamic section (is dynamically linked)."""
        return bool(self.dynamic.entries)

    @property
    def is_shared_library(self) -> bool:
        """True when this looks like a shared library (ET_DYN with a soname).

        Position-independent executables are also ET_DYN; the presence of a
        DT_SONAME is the discriminator FEAM relies on.
        """
        return self.header.etype is ElfType.DYN and self.dynamic.soname is not None

    def section(self, name: str) -> Optional[SectionHeader]:
        """Look up a section header by name, or None."""
        return self._by_name.get(name)

    def section_data(self, section: SectionHeader) -> bytes:
        """Raw contents of *section*."""
        if section.sh_type == SectionType.NOBITS:
            return b""
        end = section.offset + section.size
        if section.offset < 0 or end > len(self._data):
            raise ElfError(f"section {section.name!r} extends outside image")
        return self._data[section.offset:end]

    # -- header -------------------------------------------------------------

    def _parse_header(self) -> ElfHeader:
        data = self._data
        if len(data) < EI_NIDENT:
            raise ElfError("image shorter than e_ident")
        if data[:4] != ELF_MAGIC:
            raise ElfError("bad ELF magic")
        try:
            elf_class = ElfClass(data[EI_CLASS])
            byte_order = ElfData(data[EI_DATA])
        except ValueError as exc:
            raise ElfError(f"bad e_ident: {exc}") from exc
        if elf_class is ElfClass.NONE or byte_order is ElfData.NONE:
            raise ElfError("ELFCLASSNONE/ELFDATANONE image")
        prefix = byte_order.struct_prefix
        if elf_class is ElfClass.ELF64:
            fmt = prefix + "HHIQQQIHHHHHH"
        else:
            fmt = prefix + "HHIIIIIHHHHHH"
        size = struct.calcsize(fmt)
        if len(data) < EI_NIDENT + size:
            raise ElfError("image shorter than ELF header")
        fields = struct.unpack_from(fmt, data, EI_NIDENT)
        (etype, machine, _version, entry, phoff, shoff, flags,
         ehsize, phentsize, phnum, shentsize, shnum, shstrndx) = fields
        try:
            etype_enum = ElfType(etype)
        except ValueError as exc:
            raise ElfError(f"unknown e_type {etype}") from exc
        try:
            machine_enum = ElfMachine(machine)
        except ValueError:
            machine_enum = ElfMachine.NONE
        return ElfHeader(
            elf_class=elf_class,
            data=byte_order,
            osabi=data[EI_OSABI],
            etype=etype_enum,
            machine=machine_enum,
            entry=entry,
            phoff=phoff,
            shoff=shoff,
            flags=flags,
            ehsize=ehsize,
            phentsize=phentsize,
            phnum=phnum,
            shentsize=shentsize,
            shnum=shnum,
            shstrndx=shstrndx,
        )

    # -- program headers ----------------------------------------------------

    def _parse_program_headers(self) -> tuple[ProgramHeader, ...]:
        hdr = self.header
        if hdr.phnum == 0 or hdr.phoff == 0:
            return ()
        if self._is64:
            fmt = self._prefix + "IIQQQQQQ"
        else:
            fmt = self._prefix + "IIIIIIII"
        size = struct.calcsize(fmt)
        if hdr.phentsize < size:
            raise ElfError("phentsize smaller than Phdr")
        out = []
        for i in range(hdr.phnum):
            off = hdr.phoff + i * hdr.phentsize
            if off + size > len(self._data):
                raise ElfError("program header table extends outside image")
            fields = struct.unpack_from(fmt, self._data, off)
            if self._is64:
                p_type, flags, offset, vaddr, paddr, filesz, memsz, align = fields
            else:
                p_type, offset, vaddr, paddr, filesz, memsz, flags, align = fields
            out.append(ProgramHeader(
                p_type=p_type, flags=flags, offset=offset, vaddr=vaddr,
                paddr=paddr, filesz=filesz, memsz=memsz, align=align,
            ))
        return tuple(out)

    # -- sections -----------------------------------------------------------

    def _parse_sections(self) -> tuple[SectionHeader, ...]:
        hdr = self.header
        if hdr.shnum == 0 or hdr.shoff == 0:
            return ()
        if self._is64:
            fmt = self._prefix + "IIQQQQIIQQ"
        else:
            fmt = self._prefix + "IIIIIIIIII"
        size = struct.calcsize(fmt)
        if hdr.shentsize < size:
            raise ElfError("shentsize smaller than Shdr")
        raw = []
        for i in range(hdr.shnum):
            off = hdr.shoff + i * hdr.shentsize
            if off + size > len(self._data):
                raise ElfError("section header table extends outside image")
            fields = struct.unpack_from(fmt, self._data, off)
            (name_off, sh_type, flags, addr, offset,
             sh_size, link, info, addralign, entsize) = fields
            raw.append((name_off, sh_type, flags, addr, offset,
                        sh_size, link, info, addralign, entsize))
        # Resolve names via the section-header string table.
        names = [""] * len(raw)
        if 0 < hdr.shstrndx < len(raw):
            str_off = raw[hdr.shstrndx][4]
            str_size = raw[hdr.shstrndx][5]
            if str_off + str_size <= len(self._data):
                table = self._data[str_off:str_off + str_size]
                for i, entry in enumerate(raw):
                    name_off = entry[0]
                    if name_off < len(table):
                        end = table.find(b"\x00", name_off)
                        if end < 0:
                            end = len(table)
                        names[i] = table[name_off:end].decode(
                            "utf-8", errors="replace")
        return tuple(
            SectionHeader(
                name=names[i], sh_type=entry[1], flags=entry[2],
                addr=entry[3], offset=entry[4], size=entry[5],
                link=entry[6], info=entry[7], addralign=entry[8],
                entsize=entry[9],
            )
            for i, entry in enumerate(raw)
        )

    # -- dynamic section ----------------------------------------------------

    def _dynamic_region(self) -> Optional[bytes]:
        """Locate the dynamic section bytes (by section, else PT_DYNAMIC)."""
        sec = self.section(".dynamic")
        if sec is not None and sec.size:
            return self.section_data(sec)
        for ph in self.program_headers:
            if ph.p_type == SegmentType.DYNAMIC and ph.filesz:
                end = ph.offset + ph.filesz
                if end > len(self._data):
                    raise ElfError("PT_DYNAMIC extends outside image")
                return self._data[ph.offset:end]
        return None

    def _dynstr_table(self) -> Optional[bytes]:
        """Locate the dynamic string table bytes."""
        sec = self.section(".dynstr")
        if sec is not None and sec.size:
            return self.section_data(sec)
        return None

    def _parse_dynamic(self) -> DynamicInfo:
        region = self._dynamic_region()
        if region is None:
            return DynamicInfo()
        if self._is64:
            fmt = self._prefix + "qQ"
        else:
            fmt = self._prefix + "iI"
        size = struct.calcsize(fmt)
        entries = []
        for off in range(0, len(region) - size + 1, size):
            tag, value = struct.unpack_from(fmt, region, off)
            if tag == DynamicTag.NULL:
                break
            entries.append(DynamicEntry(tag=tag, value=value))
        strtab = self._dynstr_table()

        def lookup(value: int) -> str:
            if strtab is None:
                raise ElfError("dynamic entry references missing .dynstr")
            if value >= len(strtab):
                raise ElfError(f"dynstr offset {value:#x} outside table")
            end = strtab.find(b"\x00", value)
            if end < 0:
                end = len(strtab)
            return strtab[value:end].decode("utf-8", errors="replace")

        needed = []
        soname = rpath = runpath = None
        for entry in entries:
            if entry.tag == DynamicTag.NEEDED:
                needed.append(lookup(entry.value))
            elif entry.tag == DynamicTag.SONAME:
                soname = lookup(entry.value)
            elif entry.tag == DynamicTag.RPATH:
                rpath = lookup(entry.value)
            elif entry.tag == DynamicTag.RUNPATH:
                runpath = lookup(entry.value)
        return DynamicInfo(
            needed=tuple(needed),
            soname=soname,
            rpath=rpath,
            runpath=runpath,
            entries=tuple(entries),
        )

    # -- GNU symbol versioning ----------------------------------------------

    def _strtab_for(self, section: SectionHeader) -> bytes:
        """String table linked from *section* (sh_link), with fallback."""
        if 0 <= section.link < len(self.sections):
            linked = self.sections[section.link]
            if linked.sh_type == SectionType.STRTAB:
                return self.section_data(linked)
        table = self._dynstr_table()
        if table is None:
            raise ElfError(f"no string table for section {section.name!r}")
        return table

    def _parse_verneed(self) -> tuple[VersionRequirement, ...]:
        sec = next(
            (s for s in self.sections if s.sh_type == SectionType.GNU_VERNEED),
            None,
        )
        if sec is None:
            return ()
        data = self.section_data(sec)
        strtab = self._strtab_for(sec)

        def strg(off: int) -> str:
            return _read_cstr(strtab, off)

        fmt_need = self._prefix + "HHIII"
        fmt_aux = self._prefix + "IHHII"
        need_size = struct.calcsize(fmt_need)
        aux_size = struct.calcsize(fmt_aux)
        out: list[VersionRequirement] = []
        offset = 0
        for _ in range(sec.info or 0x10000):  # sh_info = number of verneeds
            if offset + need_size > len(data):
                break
            _vn_version, vn_cnt, vn_file, vn_aux, vn_next = struct.unpack_from(
                fmt_need, data, offset)
            filename = strg(vn_file)
            versions = []
            aux_off = offset + vn_aux
            for _ in range(vn_cnt):
                if aux_off + aux_size > len(data):
                    raise ElfError("verneed aux extends outside section")
                _hash, _flags, vna_other, vna_name, vna_next = \
                    struct.unpack_from(fmt_aux, data, aux_off)
                version_name = strg(vna_name)
                versions.append(SymbolVersion(version_name))
                self._version_names_by_index[vna_other & 0x7FFF] = \
                    version_name
                if vna_next == 0:
                    break
                aux_off += vna_next
            out.append(VersionRequirement(
                filename=filename, versions=tuple(versions)))
            if vn_next == 0:
                break
            offset += vn_next
        return tuple(out)

    def _parse_verdef(self) -> tuple[VersionDefinition, ...]:
        sec = next(
            (s for s in self.sections if s.sh_type == SectionType.GNU_VERDEF),
            None,
        )
        if sec is None:
            return ()
        data = self.section_data(sec)
        strtab = self._strtab_for(sec)

        fmt_def = self._prefix + "HHHHIII"
        fmt_aux = self._prefix + "II"
        def_size = struct.calcsize(fmt_def)
        aux_size = struct.calcsize(fmt_aux)
        out: list[VersionDefinition] = []
        offset = 0
        for _ in range(sec.info or 0x10000):  # sh_info = number of verdefs
            if offset + def_size > len(data):
                break
            (_version, vd_flags, vd_ndx, vd_cnt, _hash,
             vd_aux, vd_next) = struct.unpack_from(fmt_def, data, offset)
            names = []
            aux_off = offset + vd_aux
            for _ in range(vd_cnt):
                if aux_off + aux_size > len(data):
                    raise ElfError("verdef aux extends outside section")
                vda_name, vda_next = struct.unpack_from(fmt_aux, data, aux_off)
                names.append(_read_cstr(strtab, vda_name))
                if vda_next == 0:
                    break
                aux_off += vda_next
            if names:
                self._version_names_by_index[vd_ndx & 0x7FFF] = names[0]
                out.append(VersionDefinition(
                    name=SymbolVersion(names[0]),
                    is_base=bool(vd_flags & 0x1),
                    parents=tuple(names[1:]),
                ))
            if vd_next == 0:
                break
            offset += vd_next
        return tuple(out)

    # -- dynamic symbols ------------------------------------------------------

    def _parse_symbols(self):
        """Parse .dynsym with .gnu.version symbol-version annotations."""
        from repro.elf.structs import DynamicSymbol

        sec = next(
            (s for s in self.sections if s.sh_type == SectionType.DYNSYM),
            None)
        if sec is None or sec.entsize == 0:
            return ()
        data = self.section_data(sec)
        strtab = self._strtab_for(sec)
        count = len(data) // sec.entsize
        versym_sec = next(
            (s for s in self.sections
             if s.sh_type == SectionType.GNU_VERSYM), None)
        versym: tuple[int, ...] = ()
        if versym_sec is not None and versym_sec.entsize:
            vdata = self.section_data(versym_sec)
            versym = struct.unpack_from(
                self._prefix + "H" * (len(vdata) // 2), vdata)
        if self._is64:
            fmt = self._prefix + "IBBHQQ"
        else:
            fmt = self._prefix + "IIIBBH"
        if sec.entsize < struct.calcsize(fmt):
            raise ElfError("dynsym entsize smaller than Sym")
        out = []
        for i in range(1, count):  # skip the null symbol
            fields = struct.unpack_from(fmt, data, i * sec.entsize)
            if self._is64:
                name_off, _info, _other, shndx, _value, _size = fields
            else:
                name_off, _value, _size, _info, _other, shndx = fields
            name = _read_cstr(strtab, name_off)
            if not name:
                continue
            version = None
            if i < len(versym):
                index = versym[i] & 0x7FFF
                if index > 1:  # 0 = local, 1 = global/unversioned
                    version = self._version_names_by_index.get(index)
            out.append(DynamicSymbol(name=name, defined=shndx != 0,
                                     version=version))
        return tuple(out)

    @property
    def exported_symbols(self) -> tuple:
        """Symbols this object defines (nm -D --defined-only)."""
        return tuple(s for s in self.symbols if s.defined)

    @property
    def imported_symbols(self) -> tuple:
        """Symbols this object needs from elsewhere."""
        return tuple(s for s in self.symbols if not s.defined)

    # -- .comment -----------------------------------------------------------

    def _parse_comment(self) -> tuple[str, ...]:
        sec = self.section(".comment")
        if sec is None:
            return ()
        raw = self.section_data(sec)
        parts = [p.decode("utf-8", errors="replace")
                 for p in raw.split(b"\x00")]
        # Deduplicate while preserving order (GCC repeats its banner once
        # per translation unit).
        seen: dict[str, None] = {}
        for part in parts:
            part = part.strip()
            if part:
                seen.setdefault(part)
        return tuple(seen)


def parse_elf(data: bytes) -> ElfFile:
    """Parse an ELF image from bytes.

    Raises :class:`ElfError` when the image is not valid ELF.
    """
    return ElfFile(data)


def is_elf(data: bytes) -> bool:
    """Quick check: does *data* start with the ELF magic?"""
    return data[:4] == ELF_MAGIC
