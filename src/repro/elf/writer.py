"""ELF image writer.

:func:`write_elf` serializes a :class:`BinarySpec` into a structurally valid
ELF image: file header, program headers (PT_LOAD + PT_DYNAMIC), a ``.text``
payload, ``.dynstr``, GNU ``.gnu.version_r``/``.gnu.version_d`` symbol
versioning sections, the ``.dynamic`` section, a ``.comment`` section and a
section-header table.

The toolchain simulator uses this to produce the binaries and shared
libraries that populate the simulated sites, so FEAM's analysis pipeline
(our objdump/readelf/ldd equivalents) parses *genuine on-disk ELF
structures*, not a side-channel description.  Images round-trip through
:mod:`repro.elf.reader` and are recognisable by real binutils.

Shared libraries are installed lazily: a :class:`LazyImage` synthesises
its image on every read, knows its size from :func:`image_size` without
building the payload, and is shared, with its parse, by every live site
that installs an equal spec (:func:`lazy_image`).
"""

from __future__ import annotations

import dataclasses
import struct
import weakref
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from repro.elf.constants import (
    EI_NIDENT,
    ELF_MAGIC,
    PF_R,
    PF_W,
    PF_X,
    SHF_ALLOC,
    SHF_EXECINSTR,
    SHF_WRITE,
    SHN_UNDEF,
    STB_GLOBAL,
    STT_FUNC,
    VER_DEF_CURRENT,
    VER_FLG_BASE,
    VER_NDX_GLOBAL,
    VER_NEED_CURRENT,
    DynamicTag,
    ElfClass,
    ElfData,
    ElfMachine,
    ElfType,
    SectionType,
    SegmentType,
    elf_hash,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.elf.reader import ElfFile


@dataclasses.dataclass(frozen=True)
class BinarySpec:
    """Description of an ELF image to synthesize.

    Parameters mirror what a compiler/linker decides: target machine and
    word size, object type, the shared libraries linked against
    (``needed``), per-library symbol-version requirements
    (``version_requirements``, e.g. ``{"libc.so.6": ("GLIBC_2.3.4",)}``),
    the soname and version definitions when building a shared library, the
    toolchain banner strings recorded in ``.comment``, and the size of the
    code payload (which dominates the on-disk size -- used for the paper's
    bundle-size measurements).
    """

    machine: ElfMachine = ElfMachine.X86_64
    elf_class: ElfClass = ElfClass.ELF64
    data: ElfData = ElfData.LSB
    etype: ElfType = ElfType.EXEC
    needed: tuple[str, ...] = ()
    soname: Optional[str] = None
    rpath: Optional[str] = None
    runpath: Optional[str] = None
    version_requirements: Mapping[str, Sequence[str]] = dataclasses.field(
        default_factory=dict)
    version_definitions: tuple[str, ...] = ()
    comment: tuple[str, ...] = ()
    payload_size: int = 4096
    statically_linked: bool = False
    #: Extra entropy for the payload (build paths/timestamps make real
    #: builds of the same source at different sites byte-distinct).
    payload_seed: str = ""
    #: Dynamic symbols (exports/imports with version names); emitted as
    #: .dynsym + .gnu.version.  Versions named here must appear in
    #: version_definitions (for exports) or version_requirements (for
    #: imports).  Note that the *first* version definition is the BASE
    #: (versym index 1 = *global*): a symbol versioned with it reads back
    #: as unversioned, exactly as real readers display VER_NDX_GLOBAL.
    symbols: tuple = ()

    def __post_init__(self) -> None:
        if self.payload_size < 0:
            raise ValueError("payload_size must be non-negative")
        if self.statically_linked and (self.needed or self.soname):
            raise ValueError(
                "statically linked images cannot have NEEDED entries or a soname")


class _StringTable:
    """Incremental string table builder (offset 0 is the empty string)."""

    def __init__(self) -> None:
        self._buf = bytearray(b"\x00")
        self._offsets: dict[str, int] = {"": 0}

    def add(self, text: str) -> int:
        if text in self._offsets:
            return self._offsets[text]
        offset = len(self._buf)
        self._buf += text.encode("utf-8") + b"\x00"
        self._offsets[text] = offset
        return offset

    def bytes(self) -> bytes:
        return bytes(self._buf)


def _payload_bytes(spec: BinarySpec) -> bytes:
    """Deterministic pseudo-code payload; varies with the spec contents.

    Uses a seeded PCG64 stream (vectorized).  A lazy library file
    synthesises its whole image, payload included, on every filesystem
    read of it, so this is the bulk of the work each read costs.
    """
    if spec.payload_size == 0:
        return b""
    seed_src = (
        f"{spec.machine}|{spec.etype}|{spec.soname}|{','.join(spec.needed)}|"
        f"{','.join(spec.comment)}|{spec.payload_seed}"
    ).encode()
    seed = elf_hash(seed_src) or 1
    return np.random.Generator(np.random.PCG64(seed)).bytes(spec.payload_size)


@dataclasses.dataclass
class _Sec:
    """One section-header table entry."""

    name: str
    sh_type: int
    flags: int
    offset: int
    size: int
    link: int = 0
    info: int = 0
    addralign: int = 1
    entsize: int = 0


@dataclasses.dataclass
class _Layout:
    """Every byte of an image except its ``.text`` payload, placed."""

    size: int
    text_offset: int
    #: ``(file offset, bytes)`` of each piece other than the payload.
    pieces: list[tuple[int, bytes]]


def _layout(spec: BinarySpec) -> _Layout:
    """Place and serialize everything but the payload.

    The layout is sequential: header, program headers, ``.text``,
    ``.dynstr``, version sections, ``.dynamic``, ``.comment``,
    ``.shstrtab``, section-header table.  The single PT_LOAD maps the whole
    file at vaddr 0 so file offsets double as virtual addresses, which keeps
    the dynamic entries trivially consistent.  Only the payload's *size*
    enters the layout, so no payload byte is generated here.
    """
    is64 = spec.elf_class is ElfClass.ELF64
    prefix = spec.data.struct_prefix

    ehsize = 64 if is64 else 52
    phentsize = 56 if is64 else 32
    shentsize = 64 if is64 else 40
    dyn_fmt = prefix + ("qQ" if is64 else "iI")
    dyn_entsize = struct.calcsize(dyn_fmt)

    dynstr = _StringTable()
    shstr = _StringTable()

    dynamic = not spec.statically_linked

    # Pre-intern all dynstr strings so the table is complete before layout.
    needed_offs = [dynstr.add(n) for n in spec.needed]
    soname_off = dynstr.add(spec.soname) if spec.soname else None
    rpath_off = dynstr.add(spec.rpath) if spec.rpath else None
    runpath_off = dynstr.add(spec.runpath) if spec.runpath else None
    verneed_items = [
        (dynstr.add(filename), [(dynstr.add(v), v) for v in versions])
        for filename, versions in spec.version_requirements.items()
        if versions
    ]
    verdef_items = [(dynstr.add(v), v) for v in spec.version_definitions]
    symbol_items = [(dynstr.add(sym.name), sym) for sym in spec.symbols] \
        if dynamic else []
    dynstr_bytes = dynstr.bytes() if dynamic else b""

    # Global symbol-version indices: verdef entries occupy 1..N (the base
    # definition is index 1, like real libraries); vernaux entries
    # continue from there (always >= 2).  A name may exist on both sides
    # (libc both defines and requires GLIBC_PRIVATE), so defined and
    # undefined symbols resolve through separate maps.
    verdef_index_by_name: dict[str, int] = {}
    for i, (_off, name) in enumerate(verdef_items):
        verdef_index_by_name.setdefault(name, i + 1)
    next_index = max(2, len(verdef_items) + 1)
    vernaux_index: dict[tuple[int, str], int] = {}
    vernaux_index_by_name: dict[str, int] = {}
    for file_off, versions in verneed_items:
        for _name_off, name in versions:
            vernaux_index[(file_off, name)] = next_index
            vernaux_index_by_name.setdefault(name, next_index)
            next_index += 1

    # -- build the variable-size section bodies ------------------------------

    verneed_body = b""
    if verneed_items:
        need_fmt = prefix + "HHIII"
        aux_fmt = prefix + "IHHII"
        parts = []
        for i, (file_off, versions) in enumerate(verneed_items):
            aux_parts = []
            for j, (name_off, name) in enumerate(versions):
                vna_next = struct.calcsize(aux_fmt) if j + 1 < len(versions) else 0
                aux_parts.append(struct.pack(
                    aux_fmt, elf_hash(name), 0,
                    vernaux_index[(file_off, name)], name_off, vna_next))
            aux_blob = b"".join(aux_parts)
            vn_next = (struct.calcsize(need_fmt) + len(aux_blob)
                       if i + 1 < len(verneed_items) else 0)
            parts.append(struct.pack(
                need_fmt, VER_NEED_CURRENT, len(versions), file_off,
                struct.calcsize(need_fmt), vn_next))
            parts.append(aux_blob)
        verneed_body = b"".join(parts)

    verdef_body = b""
    if verdef_items:
        def_fmt = prefix + "HHHHIII"
        aux_fmt = prefix + "II"
        parts = []
        for i, (name_off, name) in enumerate(verdef_items):
            flags = VER_FLG_BASE if i == 0 else 0
            record = struct.calcsize(def_fmt) + struct.calcsize(aux_fmt)
            vd_next = record if i + 1 < len(verdef_items) else 0
            parts.append(struct.pack(
                def_fmt, VER_DEF_CURRENT, flags, i + 1, 1,
                elf_hash(name), struct.calcsize(def_fmt), vd_next))
            parts.append(struct.pack(aux_fmt, name_off, 0))
        verdef_body = b"".join(parts)

    dynsym_body = b""
    versym_body = b""
    sym_entsize = 24 if is64 else 16
    if symbol_items:
        st_info = (STB_GLOBAL << 4) | STT_FUNC
        sym_parts = [b"\x00" * sym_entsize]  # the mandatory null symbol
        ver_parts = [struct.pack(prefix + "H", 0)]
        for name_off, sym in symbol_items:
            shndx = 1 if sym.defined else SHN_UNDEF  # .text or UNDEF
            if is64:
                sym_parts.append(struct.pack(
                    prefix + "IBBHQQ", name_off, st_info, 0, shndx, 0, 0))
            else:
                sym_parts.append(struct.pack(
                    prefix + "IIIBBH", name_off, 0, 0, st_info, 0, shndx))
            if sym.version is None:
                index = VER_NDX_GLOBAL
            elif sym.defined:
                index = verdef_index_by_name.get(
                    sym.version, vernaux_index_by_name.get(sym.version))
            else:
                index = vernaux_index_by_name.get(
                    sym.version, verdef_index_by_name.get(sym.version))
            if index is None:
                raise ValueError(
                    f"symbol {sym.name!r} references version "
                    f"{sym.version!r} which is neither defined nor "
                    f"required")
            ver_parts.append(struct.pack(prefix + "H", index))
        dynsym_body = b"".join(sym_parts)
        versym_body = b"".join(ver_parts)

    comment_body = b"".join(
        c.encode("utf-8") + b"\x00" for c in spec.comment)

    # -- layout ---------------------------------------------------------------

    phnum = 2 if dynamic else 1
    offset = ehsize + phnum * phentsize
    pieces: list[tuple[int, bytes]] = []

    def place(body: bytes, align: int = 8) -> int:
        nonlocal offset
        start = (offset + align - 1) // align * align
        pieces.append((start, body))
        offset = start + len(body)
        return start

    # The payload takes its place by size alone; write_elf fills it in.
    text_size = spec.payload_size
    text_off = (offset + 15) // 16 * 16
    offset = text_off + text_size
    dynstr_off = place(dynstr_bytes, 1) if dynamic else 0
    dynsym_off = place(dynsym_body, 8) if dynsym_body else 0
    versym_off = place(versym_body, 2) if versym_body else 0
    verneed_off = place(verneed_body, 8) if verneed_body else 0
    verdef_off = place(verdef_body, 8) if verdef_body else 0

    # Dynamic entries (built after we know the section addresses).
    dyn_entries: list[tuple[int, int]] = []
    if dynamic:
        for off in needed_offs:
            dyn_entries.append((DynamicTag.NEEDED, off))
        if soname_off is not None:
            dyn_entries.append((DynamicTag.SONAME, soname_off))
        if rpath_off is not None:
            dyn_entries.append((DynamicTag.RPATH, rpath_off))
        if runpath_off is not None:
            dyn_entries.append((DynamicTag.RUNPATH, runpath_off))
        dyn_entries.append((DynamicTag.STRTAB, dynstr_off))
        dyn_entries.append((DynamicTag.STRSZ, len(dynstr_bytes)))
        if dynsym_body:
            dyn_entries.append((DynamicTag.SYMTAB, dynsym_off))
            dyn_entries.append((DynamicTag.SYMENT, sym_entsize))
            dyn_entries.append((DynamicTag.VERSYM, versym_off))
        if verneed_body:
            dyn_entries.append((DynamicTag.VERNEED, verneed_off))
            dyn_entries.append((DynamicTag.VERNEEDNUM, len(verneed_items)))
        if verdef_body:
            dyn_entries.append((DynamicTag.VERDEF, verdef_off))
            dyn_entries.append((DynamicTag.VERDEFNUM, len(verdef_items)))
        dyn_entries.append((DynamicTag.NULL, 0))
    dynamic_body = b"".join(
        struct.pack(dyn_fmt, tag, value) for tag, value in dyn_entries)
    dynamic_off = place(dynamic_body, 8) if dynamic else 0

    comment_off = place(comment_body, 1) if comment_body else 0

    # -- section table --------------------------------------------------------

    sections: list[_Sec] = [_Sec("", SectionType.NULL, 0, 0, 0)]
    sections.append(_Sec(".text", SectionType.PROGBITS,
                         SHF_ALLOC | SHF_EXECINSTR, text_off, text_size,
                         addralign=16))
    if dynamic:
        dynstr_index = len(sections)
        sections.append(_Sec(".dynstr", SectionType.STRTAB, SHF_ALLOC,
                             dynstr_off, len(dynstr_bytes)))
        if dynsym_body:
            dynsym_index = len(sections)
            sections.append(_Sec(
                ".dynsym", SectionType.DYNSYM, SHF_ALLOC,
                dynsym_off, len(dynsym_body), link=dynstr_index,
                info=1, addralign=8, entsize=sym_entsize))
            sections.append(_Sec(
                ".gnu.version", SectionType.GNU_VERSYM, SHF_ALLOC,
                versym_off, len(versym_body), link=dynsym_index,
                addralign=2, entsize=2))
        if verneed_body:
            sections.append(_Sec(
                ".gnu.version_r", SectionType.GNU_VERNEED, SHF_ALLOC,
                verneed_off, len(verneed_body), link=dynstr_index,
                info=len(verneed_items), addralign=8))
        if verdef_body:
            sections.append(_Sec(
                ".gnu.version_d", SectionType.GNU_VERDEF, SHF_ALLOC,
                verdef_off, len(verdef_body), link=dynstr_index,
                info=len(verdef_items), addralign=8))
        sections.append(_Sec(
            ".dynamic", SectionType.DYNAMIC, SHF_ALLOC | SHF_WRITE,
            dynamic_off, len(dynamic_body), link=dynstr_index,
            addralign=8, entsize=dyn_entsize))
    if comment_body:
        sections.append(_Sec(".comment", SectionType.PROGBITS, 0,
                             comment_off, len(comment_body)))

    for sec in sections:
        shstr.add(sec.name)
    shstr.add(".shstrtab")
    shstrtab_bytes = shstr.bytes()
    shstrtab_off = place(shstrtab_bytes, 1)
    shstrndx = len(sections)
    sections.append(_Sec(".shstrtab", SectionType.STRTAB, 0,
                         shstrtab_off, len(shstrtab_bytes)))

    # Section headers.
    blob = bytearray()
    for sec in sections:
        addr = sec.offset if (sec.flags & SHF_ALLOC) else 0
        if is64:
            blob += struct.pack(
                prefix + "IIQQQQIIQQ", shstr.add(sec.name), int(sec.sh_type),
                sec.flags, addr, sec.offset, sec.size, sec.link, sec.info,
                sec.addralign, sec.entsize)
        else:
            blob += struct.pack(
                prefix + "IIIIIIIIII", shstr.add(sec.name), int(sec.sh_type),
                sec.flags, addr, sec.offset, sec.size, sec.link, sec.info,
                sec.addralign, sec.entsize)
    shoff = place(bytes(blob), 8)
    file_size = offset

    # -- file header and program headers --------------------------------------

    ident = bytearray(EI_NIDENT)
    ident[:4] = ELF_MAGIC
    ident[4] = int(spec.elf_class)
    ident[5] = int(spec.data)
    ident[6] = 1  # EV_CURRENT
    ident[7] = 0  # ELFOSABI_NONE (System V)

    if is64:
        hdr_fmt = prefix + "HHIQQQIHHHHHH"
    else:
        hdr_fmt = prefix + "HHIIIIIHHHHHH"
    entry = text_off if spec.etype is ElfType.EXEC else 0
    header = struct.pack(
        hdr_fmt, int(spec.etype), int(spec.machine), 1, entry,
        ehsize, shoff, 0, ehsize, phentsize, phnum, shentsize,
        len(sections), shstrndx)

    def pack_phdr(p_type: int, flags: int, seg_off: int, size: int,
                  align: int) -> bytes:
        if is64:
            return struct.pack(prefix + "IIQQQQQQ", p_type, flags, seg_off,
                               seg_off, seg_off, size, size, align)
        return struct.pack(prefix + "IIIIIIII", p_type, seg_off, seg_off,
                           seg_off, size, size, flags, align)

    ph_blob = pack_phdr(SegmentType.LOAD, PF_R | PF_X, 0, file_size, 0x1000)
    if dynamic:
        ph_blob += pack_phdr(SegmentType.DYNAMIC, PF_R | PF_W,
                             dynamic_off, len(dynamic_body), 8)
    pieces.append((0, bytes(ident) + header))
    pieces.append((ehsize, ph_blob))
    return _Layout(file_size, text_off, pieces)


def image_size(spec: BinarySpec) -> int:
    """``len(write_elf(spec))``, from the layout alone (no payload built)."""
    return _layout(spec).size


def write_elf(spec: BinarySpec) -> bytes:
    """Serialize *spec* into a valid ELF image (layout: see :func:`_layout`)."""
    layout = _layout(spec)
    image = bytearray(layout.size)
    for offset, piece in layout.pieces:
        image[offset:offset + len(piece)] = piece
    payload = _payload_bytes(spec)
    image[layout.text_offset:layout.text_offset + len(payload)] = payload
    return bytes(image)


# -- lazy images ----------------------------------------------------------------

_SPEC_FIELDS = tuple(field.name for field in dataclasses.fields(BinarySpec))


def _content_key(spec: BinarySpec) -> tuple:
    """Every field :func:`write_elf` reads, hashable.

    The version-requirement mapping becomes a tuple of its items, in
    order (the order of ``.gnu.version_r``), so equal keys mean
    byte-identical images.
    """
    return tuple(
        tuple((name, tuple(versions))
              for name, versions in spec.version_requirements.items())
        if field == "version_requirements" else getattr(spec, field)
        for field in _SPEC_FIELDS)


class LazyImage:
    """The image of one spec, synthesised on demand.

    Installed as a :class:`~repro.sysmodel.fs.FileNode` provider:
    calling it runs :func:`write_elf`, on every read.  :attr:`size` is
    the layout's arithmetic, and :attr:`elf` keeps the image's detached
    parse once :meth:`repro.sysmodel.machine.Machine.read_elf` has made
    one, so every site holding this image shares one parse.  A source
    phase's :class:`~repro.core.description.LibraryRecord` holds the
    image itself as its copy, and staging installs it on a target as a
    provider again; a record keeps the image alive just as a node does.
    """

    __slots__ = ("spec", "size", "elf", "__weakref__")

    def __init__(self, spec: BinarySpec) -> None:
        self.spec = spec
        self.size = image_size(spec)
        self.elf: Optional[ElfFile] = None

    def __call__(self) -> bytes:
        # By module-level name at call time, so a rebinding of write_elf
        # (the benchmark's layer tracer, a test) sees every synthesis.
        return write_elf(self.spec)


#: The live image of each content key.  Held weakly, so an image lives
#: exactly as long as some filesystem node or bundle record references
#: it, and nothing outlives the sites and bundles that hold it.
_live_images: "weakref.WeakValueDictionary[tuple, LazyImage]" = \
    weakref.WeakValueDictionary()


def lazy_image(spec: BinarySpec) -> LazyImage:
    """The live :class:`LazyImage` of *spec*, shared by every equal spec."""
    key = _content_key(spec)
    image = _live_images.get(key)
    if image is None:
        image = _live_images[key] = LazyImage(spec)
    return image
