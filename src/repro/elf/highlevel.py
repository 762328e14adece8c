"""High-level binary description.

:func:`describe_elf` condenses a parsed ELF image into the
:class:`BinaryInfo` record FEAM's Binary Description Component consumes:
file format, ISA and word length, dynamic-link status, the NEEDED list, the
soname (with embedded version when the object is a shared library), the
*required C library version* (the newest GLIBC version referenced, per the
paper's Section V.A), and the toolchain banner from ``.comment``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.elf.constants import ElfData, ElfMachine, ElfType
from repro.elf.reader import ElfFile, parse_elf
from repro.elf.structs import SymbolVersion, VersionRequirement


@dataclasses.dataclass(frozen=True)
class BinaryInfo:
    """Condensed description of an application binary or shared library."""

    file_format: str
    machine: ElfMachine
    isa_name: str
    bits: int
    endianness: ElfData
    etype: ElfType
    is_dynamic: bool
    is_shared_library: bool
    soname: Optional[str]
    needed: tuple[str, ...]
    rpath: Optional[str]
    runpath: Optional[str]
    version_requirements: tuple[VersionRequirement, ...]
    version_definitions: tuple[str, ...]
    required_glibc: Optional[SymbolVersion]
    comment: tuple[str, ...]
    size: int


def required_glibc_version(elf: ElfFile) -> Optional[SymbolVersion]:
    """The newest GLIBC version referenced or defined by *elf*.

    The paper computes an application's *required C library version* as the
    newest version listed under the "Version Definitions" and "Version
    References" sections of the ``objdump -p`` output; this is that
    computation over the parsed verneed/verdef data.
    """
    candidates: list[SymbolVersion] = []
    for req in elf.version_requirements:
        candidates.extend(v for v in req.versions if v.is_glibc())
    for vdef in elf.version_definitions:
        if vdef.name.is_glibc():
            candidates.append(vdef.name)
    if not candidates:
        return None
    return max(candidates, key=lambda v: v.components)


def describe_elf(data: bytes) -> BinaryInfo:
    """Parse and condense an ELF image into a :class:`BinaryInfo`.

    Raises :class:`repro.elf.reader.ElfError` for non-ELF input.
    """
    return describe_parsed(parse_elf(data))


def describe_parsed(elf: ElfFile) -> BinaryInfo:
    """Condense an already-parsed (possibly detached) :class:`ElfFile`."""
    verdef_names = tuple(d.name.name for d in elf.version_definitions)
    return BinaryInfo(
        file_format=f"elf{elf.header.bits}",
        machine=elf.header.machine,
        isa_name=elf.header.machine.display_name,
        bits=elf.header.bits,
        endianness=elf.header.data,
        etype=elf.header.etype,
        is_dynamic=elf.is_dynamic,
        is_shared_library=elf.is_shared_library,
        soname=elf.dynamic.soname,
        needed=elf.dynamic.needed,
        rpath=elf.dynamic.rpath,
        runpath=elf.dynamic.runpath,
        version_requirements=elf.version_requirements,
        version_definitions=verdef_names,
        required_glibc=required_glibc_version(elf),
        comment=elf.comment,
        size=elf.size,
    )
