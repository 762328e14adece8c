"""Typed views of ELF structures.

These dataclasses mirror the on-disk structures closely enough to round-trip
through :mod:`repro.elf.writer` and :mod:`repro.elf.reader`, while exposing
decoded (string) fields rather than string-table offsets.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterable, Optional

from repro.elf.constants import (
    DynamicTag,
    ElfClass,
    ElfData,
    ElfMachine,
    ElfType,
    SectionType,
    SegmentType,
)


@dataclasses.dataclass(frozen=True)
class ElfHeader:
    """Decoded ELF file header (Ehdr)."""

    elf_class: ElfClass
    data: ElfData
    osabi: int
    etype: ElfType
    machine: ElfMachine
    entry: int
    phoff: int
    shoff: int
    flags: int
    ehsize: int
    phentsize: int
    phnum: int
    shentsize: int
    shnum: int
    shstrndx: int

    @property
    def bits(self) -> int:
        """Word length of the target architecture (32 or 64)."""
        return self.elf_class.bits


@dataclasses.dataclass(frozen=True)
class SectionHeader:
    """Decoded section header (Shdr) with its name resolved."""

    name: str
    sh_type: int
    flags: int
    addr: int
    offset: int
    size: int
    link: int
    info: int
    addralign: int
    entsize: int

    @property
    def type_enum(self) -> Optional[SectionType]:
        """The section type as a :class:`SectionType`, if known."""
        try:
            return SectionType(self.sh_type)
        except ValueError:
            return None


@dataclasses.dataclass(frozen=True)
class ProgramHeader:
    """Decoded program header (Phdr)."""

    p_type: int
    flags: int
    offset: int
    vaddr: int
    paddr: int
    filesz: int
    memsz: int
    align: int

    @property
    def type_enum(self) -> Optional[SegmentType]:
        """The segment type as a :class:`SegmentType`, if known."""
        try:
            return SegmentType(self.p_type)
        except ValueError:
            return None


@dataclasses.dataclass(frozen=True)
class DynamicEntry:
    """A raw dynamic-section entry (d_tag, d_val)."""

    tag: int
    value: int

    @property
    def tag_enum(self) -> Optional[DynamicTag]:
        """The tag as a :class:`DynamicTag`, if known."""
        try:
            return DynamicTag(self.tag)
        except ValueError:
            return None


@dataclasses.dataclass(frozen=True)
class SymbolVersion:
    """A dotted version name such as ``GLIBC_2.12`` or ``OMPI_1.4``.

    Comparable within the same namespace by numeric components, which is how
    FEAM computes the *required C library version* of a binary
    (:func:`newest_glibc`).  A name without numbered components, such as
    ``GLIBC_PRIVATE``, has no namespace.
    """

    name: str

    _PATTERN = re.compile(
        r"^(?P<ns>[A-Za-z_][A-Za-z0-9_+-]*?)_(?P<ver>[0-9]+(?:\.[0-9]+)*)$")

    @property
    def namespace(self) -> Optional[str]:
        """Version namespace, e.g. ``GLIBC`` for ``GLIBC_2.12``."""
        m = self._PATTERN.match(self.name)
        return m.group("ns") if m else None

    @property
    def components(self) -> tuple[int, ...]:
        """Numeric version components, e.g. ``(2, 12)`` for ``GLIBC_2.12``."""
        m = self._PATTERN.match(self.name)
        if not m:
            return ()
        return tuple(int(part) for part in m.group("ver").split("."))

    def is_glibc(self) -> bool:
        """True when this names a numbered GNU C library version."""
        return self.namespace == "GLIBC"

    def __lt__(self, other: "SymbolVersion") -> bool:
        if self.namespace != other.namespace:
            return str(self.name) < str(other.name)
        return self.components < other.components


def newest_glibc(names: Iterable[str]) -> Optional[str]:
    """The newest numbered ``GLIBC_x.y`` version among version *names*,
    without its prefix (``"2.7"``), or None when there is none.

    The paper's *required C library version* (Section V.A) is this over
    a binary's ``objdump -p`` "Version References" and "Version
    Definitions"; over the C library's own definitions it is the
    library's version.  Names that number no release, such as
    ``GLIBC_PRIVATE`` and glibc 2.36's ``GLIBC_ABI_DT_RELR``, are
    skipped.
    """
    newest = max((v for v in map(SymbolVersion, names) if v.is_glibc()),
                 key=lambda v: v.components, default=None)
    return newest.name[len("GLIBC_"):] if newest is not None else None


@dataclasses.dataclass(frozen=True)
class VersionRequirement:
    """A verneed entry: versions required from one shared library file."""

    filename: str
    versions: tuple[SymbolVersion, ...]


@dataclasses.dataclass(frozen=True)
class VersionDefinition:
    """A verdef entry: a version this object defines (for shared libraries)."""

    name: SymbolVersion
    is_base: bool = False
    parents: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class DynamicSymbol:
    """One entry of the dynamic symbol table (.dynsym).

    ``version`` is the resolved symbol-version name from ``.gnu.version``
    (None for unversioned/global symbols); ``defined`` distinguishes
    exports (st_shndx != SHN_UNDEF) from imports.
    """

    name: str
    defined: bool
    version: Optional[str] = None

    def render(self) -> str:
        """``nm -D`` style line."""
        kind = "T" if self.defined else "U"
        suffix = f"@{self.version}" if self.version else ""
        address = f"{0:016x}" if self.defined else " " * 16
        return f"{address} {kind} {self.name}{suffix}"


@dataclasses.dataclass(frozen=True)
class DynamicInfo:
    """Decoded view of the dynamic section relevant to FEAM."""

    needed: tuple[str, ...] = ()
    soname: Optional[str] = None
    rpath: Optional[str] = None
    runpath: Optional[str] = None
    entries: tuple[DynamicEntry, ...] = ()
