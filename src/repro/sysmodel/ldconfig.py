"""``ldconfig`` and the ``ld.so.cache``.

Real systems pre-index the trusted directories: ``ldconfig`` scans
``/etc/ld.so.conf`` plus the default directories, records each shared
library's soname, architecture and path in ``/etc/ld.so.cache``, and the
runtime loader consults the cache instead of re-scanning.  ``ldconfig -p``
prints the index -- a discovery source real administrators (and tools
like FEAM) use constantly.

The emulation stores the cache as a documented text format (one entry per
line) at the real path ``/etc/ld.so.cache``; sites run
:func:`run_ldconfig` at build time, exactly like a distro's post-install
scripts.  The dynamic-loader simulation scans directories directly, which
is behaviourally identical while the cache is fresh -- the cache here
serves the *discovery* side (``ldconfig -p``).
"""

from __future__ import annotations

import dataclasses
import posixpath
from typing import Optional, TYPE_CHECKING

from repro.elf.constants import ElfClass, ElfMachine
from repro.elf.reader import ElfError
from repro.sysmodel.env import Environment
from repro.sysmodel.fs import FsError, VirtualFilesystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sysmodel.machine import Machine

CACHE_PATH = "/etc/ld.so.cache"
_CACHE_HEADER = "ld.so-cache-text/1"


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One indexed shared library."""

    soname: str
    arch: str  # e.g. "x86-64" / "i386"
    bits: int
    path: str

    def render(self) -> str:
        """``ldconfig -p`` style line."""
        return (f"\t{self.soname} (libc6,{self.arch}) => {self.path}")


def scan_trusted_directories(machine: "Machine") -> list[CacheEntry]:
    """Index every shared library in the loader's trusted directories."""
    fs = machine.fs
    directories = machine.loader.search_directories(None, Environment())
    entries: list[CacheEntry] = []
    seen: set[tuple[str, str]] = set()
    for directory in directories:
        if not fs.is_dir(directory):
            continue
        for name in fs.listdir(directory):
            if ".so" not in name:
                continue
            path = posixpath.join(directory, name)
            if not fs.is_file(path):
                continue
            try:
                elf = machine.read_elf(path)
            except (FsError, ElfError):
                continue
            soname = elf.dynamic.soname or name
            try:
                arch = ElfMachine(elf.header.machine).display_name
            except ValueError:  # pragma: no cover - defensive
                arch = "unknown"
            bits = 64 if elf.header.elf_class is ElfClass.ELF64 else 32
            key = (soname, arch)
            if key in seen:
                continue
            seen.add(key)
            entries.append(CacheEntry(soname=soname, arch=arch,
                                      bits=bits, path=path))
    return sorted(entries, key=lambda e: (e.soname, e.arch))


def run_ldconfig(machine: "Machine") -> int:
    """Rebuild ``/etc/ld.so.cache``; returns the number of entries."""
    entries = scan_trusted_directories(machine)
    lines = [_CACHE_HEADER]
    for entry in entries:
        lines.append(f"{entry.soname}|{entry.arch}|{entry.bits}|{entry.path}")
    machine.fs.write_text(CACHE_PATH, "\n".join(lines) + "\n")
    return len(entries)


def read_cache(fs: VirtualFilesystem) -> Optional[list[CacheEntry]]:
    """Parse the cache, or None when absent/unreadable."""
    if not fs.is_file(CACHE_PATH):
        return None
    text = fs.read_text(CACHE_PATH)
    lines = text.splitlines()
    if not lines or lines[0] != _CACHE_HEADER:
        return None
    entries = []
    for line in lines[1:]:
        parts = line.split("|")
        if len(parts) != 4:
            continue
        soname, arch, bits, path = parts
        try:
            entries.append(CacheEntry(soname=soname, arch=arch,
                                      bits=int(bits), path=path))
        except ValueError:
            continue
    return entries


def render_ldconfig_p(entries: list[CacheEntry]) -> str:
    """The ``ldconfig -p`` listing."""
    lines = [f"{len(entries)} libs found in cache `{CACHE_PATH}'"]
    lines += [entry.render() for entry in entries]
    return "\n".join(lines) + "\n"
