"""Adapters exposing the real machine behind the simulation interfaces.

Everything here is **read-only**: mutation methods raise, so FEAM code
paths that would write (staging copies, report files) fail loudly rather
than touching the host.
"""

from __future__ import annotations

import functools
import os
import platform
import posixpath
import stat
from typing import Callable, Iterator, Optional

from repro.sysmodel.distro import Distro
from repro.sysmodel.env import Environment
from repro.sysmodel.fs import FileNode, FsError
from repro.sysmodel.loader import DynamicLoader
from repro.tools.toolbox import Toolbox

#: Directory-walk depth cap: the host filesystem is unbounded, and FEAM's
#: search routines only ever need shallow library trees.
MAX_WALK_DEPTH = 6


class HostFilesystem:
    """Read-only view of the real filesystem (virtual-fs interface)."""

    # -- queries ---------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def lexists(self, path: str) -> bool:
        return os.path.lexists(path)

    def is_file(self, path: str) -> bool:
        return os.path.isfile(path)

    def is_dir(self, path: str) -> bool:
        return os.path.isdir(path)

    def is_symlink(self, path: str) -> bool:
        return os.path.islink(path)

    def readlink(self, path: str) -> str:
        try:
            return os.readlink(path)
        except OSError as exc:
            raise FsError(str(exc)) from exc

    def realpath(self, path: str) -> str:
        return os.path.realpath(path)

    def resolve(self, path: str) -> tuple[str, FileNode]:
        """``(realpath(path), node)`` of the regular file *path* names:
        a lazy node whose provider reads the real file."""
        real = os.path.realpath(path)
        try:
            info = os.stat(real)
        except OSError as exc:
            raise FsError(str(exc)) from exc
        if not stat.S_ISREG(info.st_mode):
            raise FsError(f"not a regular file: {path!r}")
        return real, FileNode(provider=functools.partial(self.read, real),
                              size=info.st_size,
                              mode=stat.S_IMODE(info.st_mode))

    def size(self, path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError as exc:
            raise FsError(str(exc)) from exc

    def is_executable(self, path: str) -> bool:
        return os.path.isfile(path) and os.access(path, os.X_OK)

    def read(self, path: str) -> bytes:
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise FsError(str(exc)) from exc

    def read_text(self, path: str) -> str:
        return self.read(path).decode("utf-8", errors="replace")

    def listdir(self, path: str) -> list[str]:
        try:
            return sorted(os.listdir(path))
        except OSError as exc:
            raise FsError(str(exc)) from exc

    def walk(self, top: str = "/",
             _depth: int = 0) -> Iterator[tuple[str, list[str], list[str]]]:
        """Depth-capped :func:`os.walk` (permission errors skipped)."""
        if _depth > MAX_WALK_DEPTH:
            return
        try:
            entries = sorted(os.listdir(top))
        except OSError:
            return
        dirs, files = [], []
        for name in entries:
            full = os.path.join(top, name)
            if os.path.isdir(full) and not os.path.islink(full):
                dirs.append(name)
            elif os.path.isfile(full) or os.path.islink(full):
                files.append(name)
        yield top, dirs, files
        for name in dirs:
            yield from self.walk(os.path.join(top, name), _depth + 1)

    def find_files(self, top: str = "/",
                   name_filter: Optional[Callable[[str], bool]] = None,
                   ) -> Iterator[str]:
        for dirpath, _dirs, files in self.walk(top):
            for fname in files:
                if name_filter is None or name_filter(fname):
                    yield posixpath.join(dirpath, fname)

    # -- mutation (refused) -------------------------------------------------------

    def _read_only(self, *args, **kwargs):
        raise FsError("the host filesystem adapter is read-only")

    write = write_text = write_lazy = symlink = chmod = remove = _read_only
    copy_file = install_from = makedirs = _read_only


def _detect_distro(fs: HostFilesystem) -> Distro:
    """A best-effort distro record from the real /etc and /proc files."""
    family, version = "linux", "unknown"
    if fs.is_file("/etc/os-release"):
        fields = {}
        for line in fs.read_text("/etc/os-release").splitlines():
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip().strip('"')
        family = fields.get("ID", family)
        version = fields.get("VERSION_ID", version)
    kernel = platform.release() or "unknown"
    return Distro(family=family, version=version, kernel_version=kernel,
                  gcc_banner="host toolchain")


class HostMachine:
    """The real machine behind the :class:`~repro.sysmodel.machine.Machine`
    interface FEAM's tools layer consumes.

    The loader attribute is *our* ld.so simulation resolving against the
    real filesystem -- real trusted directories, the real
    ``/etc/ld.so.conf``, real ELF bytes -- which makes its verdicts
    directly comparable with the system's ``ldd``.
    """

    def __init__(self, env: Optional[Environment] = None) -> None:
        self.hostname = platform.node() or "localhost"
        self.arch = platform.machine() or "x86_64"
        self.fs = HostFilesystem()
        self.env = env if env is not None else Environment({
            key: value for key, value in os.environ.items()
            if key in ("PATH", "LD_LIBRARY_PATH")})
        self.distro = _detect_distro(self.fs)
        self.loader = DynamicLoader(self)
        self._elf_cache: dict[str, tuple[int, object]] = {}

    @property
    def isa_support(self):
        from repro.sysmodel.machine import _ARCH_PROFILES
        profile = _ARCH_PROFILES.get(self.arch)
        if profile is None:
            # Unknown host architecture: report an empty profile rather
            # than guessing.
            return ()
        return profile

    def supports_isa(self, machine, elf_class) -> bool:
        return any(s.machine is machine and s.elf_class is elf_class
                   for s in self.isa_support)

    def uname_processor(self) -> str:
        return self.arch

    def uname_machine(self) -> str:
        return self.arch

    def read_elf(self, path: str):
        """Parse (and cache) a real ELF file."""
        from repro.elf.reader import parse_elf
        real, node = self.fs.resolve(path)
        cached = self._elf_cache.get(real)
        if cached is not None and cached[0] == node.size:
            return cached[1]
        elf = parse_elf(self.fs.read(real)).detach()
        self._elf_cache[real] = (node.size, elf)
        return elf


def host_machine(env: Optional[Environment] = None) -> HostMachine:
    """The current machine as a :class:`HostMachine`."""
    return HostMachine(env=env)


def host_toolbox(env: Optional[Environment] = None) -> Toolbox:
    """A FEAM toolbox over the real machine.

    ``locate`` is disabled (a whole-filesystem walk on a real machine is
    not acceptable); FEAM's documented ``find``-over-common-directories
    fallback engages instead.
    """
    machine = host_machine(env=env)
    available = Toolbox.ALL_TOOLS - frozenset({"locate"})
    return Toolbox(machine, available)
