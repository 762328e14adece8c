"""ELF binary format substrate.

A from-scratch implementation of the parts of the ELF object-file format
that FEAM's analysis depends on:

* :mod:`repro.elf.constants` -- file-format constants (classes, machines,
  section/dynamic/version tags).
* :mod:`repro.elf.structs` -- typed views of ELF structures, and
  :func:`~repro.elf.structs.newest_glibc`, the one rule for a binary's
  *required C library version* (the newest numbered ``GLIBC_x.y`` name).
* :mod:`repro.elf.reader` -- parse ELF images into :class:`ElfFile`.
* :mod:`repro.elf.writer` -- serialize a synthetic-but-valid ELF image from
  a :class:`BinarySpec` description (used by the toolchain simulator to
  produce genuine on-disk binaries without a compiler).
* :mod:`repro.elf.render` -- binutils-style text renderings of a parse.

FEAM's Binary Description Component (:mod:`repro.core.description`)
reads these facts through the emulated tools of :mod:`repro.tools`, and
describes a shared library as it describes a binary.

The reader handles both ELF32 and ELF64 in either byte order, and parses
real system binaries (cross-validated against binutils in the test suite)
as well as images produced by :mod:`repro.elf.writer`.
"""

from repro.elf.constants import (
    ElfClass,
    ElfData,
    ElfMachine,
    ElfType,
)
from repro.elf.reader import ElfError, ElfFile, parse_elf
from repro.elf.structs import (
    DynamicInfo,
    SymbolVersion,
    VersionDefinition,
    VersionRequirement,
)
from repro.elf.writer import BinarySpec, write_elf

__all__ = [
    "BinarySpec",
    "DynamicInfo",
    "ElfClass",
    "ElfData",
    "ElfError",
    "ElfFile",
    "ElfMachine",
    "ElfType",
    "SymbolVersion",
    "VersionDefinition",
    "VersionRequirement",
    "parse_elf",
    "write_elf",
]
