"""GNU C library (glibc) release models.

A :class:`GlibcRelease` knows its symbol-version history (every ``GLIBC_x.y``
version a release defines), its member libraries (libc, libm, libpthread,
...), and how to install itself into a virtual filesystem as genuine ELF
shared objects whose verdef sections carry exactly those versions.

This is what makes the paper's C-library determinant real in the
simulation: a binary that references ``GLIBC_2.7`` fails to load on a site
whose installed ``libc.so.6`` ELF only defines versions up to
``GLIBC_2.5`` -- the loader discovers this from the bytes on disk, not from
simulation metadata.
"""

from __future__ import annotations

import dataclasses
import functools
import posixpath
from typing import Optional

from repro.elf.constants import ElfClass, ElfData, ElfMachine, ElfType
from repro.elf.writer import BinarySpec, lazy_image
from repro.sysmodel.fs import VirtualFilesystem

#: Every GLIBC_* symbol version in release order (subset sufficient for the
#: releases of the paper's Table II, which span 2.3.4 .. 2.12).
GLIBC_HISTORY: tuple[tuple[int, ...], ...] = (
    (2, 0), (2, 1), (2, 1, 1), (2, 1, 2), (2, 1, 3),
    (2, 2), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6),
    (2, 3), (2, 3, 2), (2, 3, 3), (2, 3, 4),
    (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9),
    (2, 10), (2, 11), (2, 11, 1), (2, 12), (2, 13), (2, 14), (2, 15),
    (2, 16), (2, 17),
)


def version_str(version: tuple[int, ...]) -> str:
    """``(2, 3, 4)`` -> ``"2.3.4"``."""
    return ".".join(str(v) for v in version)


def glibc_symbol(version: tuple[int, ...]) -> str:
    """``(2, 3, 4)`` -> ``"GLIBC_2.3.4"``."""
    return f"GLIBC_{version_str(version)}"


@dataclasses.dataclass(frozen=True)
class GlibcMember:
    """One shared object shipped by glibc."""

    soname: str
    filename: str  # the real file the soname symlink points at
    size: int  # approximate on-disk size in bytes
    #: Well-known exports (each versioned with the base symbol version).
    exports: tuple[str, ...] = ()


def _members(version: tuple[int, ...]) -> tuple[GlibcMember, ...]:
    v = version_str(version)
    return (
        GlibcMember("libc.so.6", f"libc-{v}.so", 1_600_000,
                    exports=("printf", "malloc", "free", "memcpy", "open",
                             "read", "write", "strlen")),
        GlibcMember("libm.so.6", f"libm-{v}.so", 580_000,
                    exports=("sin", "cos", "sqrt", "pow", "exp")),
        GlibcMember("libpthread.so.0", f"libpthread-{v}.so", 140_000,
                    exports=("pthread_create", "pthread_join",
                             "pthread_mutex_lock")),
        GlibcMember("libdl.so.2", f"libdl-{v}.so", 20_000),
        GlibcMember("librt.so.1", f"librt-{v}.so", 45_000),
        GlibcMember("libutil.so.1", f"libutil-{v}.so", 14_000),
        GlibcMember("libnsl.so.1", f"libnsl-{v}.so", 110_000),
        GlibcMember("libcrypt.so.1", f"libcrypt-{v}.so", 40_000),
    )


@dataclasses.dataclass(frozen=True)
class GlibcRelease:
    """One glibc release, e.g. 2.5 as shipped on CentOS 5."""

    version: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.version not in GLIBC_HISTORY:
            raise ValueError(
                f"unknown glibc release {version_str(self.version)}")

    @property
    def version_string(self) -> str:
        return version_str(self.version)

    @property
    def defined_versions(self) -> tuple[str, ...]:
        """All GLIBC_* symbol versions this release defines."""
        return tuple(
            glibc_symbol(v) for v in GLIBC_HISTORY if v <= self.version)

    def defines(self, symbol_version: str) -> bool:
        """Does this release define *symbol_version* (e.g. GLIBC_2.7)?"""
        return symbol_version in self.defined_versions

    @property
    def banner(self) -> str:
        """The banner printed when the libc binary is executed."""
        return (f"GNU C Library stable release version "
                f"{self.version_string}, by Roland McGrath et al.")

    def highest_at_most(self, ceiling: tuple[int, ...]) -> tuple[int, ...]:
        """Newest symbol version <= both this release and *ceiling*.

        This models which GLIBC version a link against this release
        actually references: the newest version available for the symbols
        the program uses (*ceiling* is the program's feature level).
        """
        candidates = [v for v in GLIBC_HISTORY
                      if v <= self.version and v <= ceiling]
        if not candidates:
            raise ValueError(
                f"no glibc symbol version <= {ceiling} in release "
                f"{self.version_string}")
        return max(candidates)

    @property
    def members(self) -> tuple[GlibcMember, ...]:
        """The shared objects this release ships."""
        return _members(self.version)

    # -- ELF production -----------------------------------------------------

    def member_spec(self, member: GlibcMember,
                    machine: ElfMachine = ElfMachine.X86_64,
                    elf_class: ElfClass = ElfClass.ELF64,
                    data: ElfData = ElfData.LSB) -> BinarySpec:
        """ELF description for one member library of this release."""
        verdefs = (member.soname,) + self.defined_versions + ("GLIBC_PRIVATE",)
        needed: tuple[str, ...] = ()
        version_reqs: dict[str, tuple[str, ...]] = {}
        if member.soname != "libc.so.6":
            needed = ("libc.so.6",)
            version_reqs = {"libc.so.6": ("GLIBC_PRIVATE",
                                          self.defined_versions[-1])}
        comment = (self.banner,)
        from repro.elf.structs import DynamicSymbol
        base_version = glibc_symbol(GLIBC_HISTORY[0])
        symbols = tuple(
            DynamicSymbol(name=name, defined=True, version=base_version)
            for name in member.exports)
        return BinarySpec(
            machine=machine,
            elf_class=elf_class,
            data=data,
            etype=ElfType.DYN,
            soname=member.soname,
            needed=needed,
            version_requirements=version_reqs,
            version_definitions=verdefs,
            comment=comment,
            payload_size=member.size,
            symbols=symbols,
        )

    def install(self, fs: VirtualFilesystem, libdir: str,
                machine: ElfMachine = ElfMachine.X86_64,
                elf_class: ElfClass = ElfClass.ELF64,
                data: ElfData = ElfData.LSB) -> None:
        """Install every member into ``libdir`` of *fs*.

        Writes the real file (``libc-2.5.so``) with a soname symlink
        (``libc.so.6``), the way distro packages lay glibc out.  Contents
        are lazy (see :class:`~repro.elf.writer.LazyImage`): the
        multi-megabyte images are synthesised on read.
        """
        for member in self.members:
            image = lazy_image(
                self.member_spec(member, machine, elf_class, data))
            real = posixpath.join(libdir, member.filename)
            fs.write_lazy(real, image, image.size, mode=0o755)
            fs.symlink(posixpath.join(libdir, member.soname),
                       member.filename)


@functools.lru_cache(maxsize=None)
def _glibc_cached(version: tuple[int, ...]) -> GlibcRelease:
    return GlibcRelease(version=version)


def glibc(version: str | tuple[int, ...]) -> GlibcRelease:
    """Look up a release: ``glibc("2.3.4")`` or ``glibc((2, 3, 4))``.

    Equal versions share one instance regardless of spelling.
    """
    if isinstance(version, str):
        version = tuple(int(p) for p in version.split("."))
    return _glibc_cached(tuple(version))


def parse_banner(text: str) -> Optional[str]:
    """Extract the version string from a libc execution banner.

    Returns e.g. ``"2.5"`` or None when *text* is not a glibc banner.
    This is the parsing the EDC performs on the output of running the C
    library binary (paper Section V.B).
    """
    marker = "release version "
    idx = text.find(marker)
    if idx < 0:
        return None
    rest = text[idx + len(marker):]
    version = rest.split(",")[0].strip()
    if not version or not version[0].isdigit():
        return None
    return version
