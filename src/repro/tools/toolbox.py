"""The toolbox: emulated Unix utilities over a simulated machine.

Every query parses real bytes from the machine's virtual filesystem; there
is no side channel to the simulation's construction-time metadata, so FEAM
can only know what the real tool would have printed.
"""

from __future__ import annotations

import dataclasses
import posixpath
from typing import Optional

from repro.elf.reader import ElfError, ElfFile, parse_elf
from repro.elf.structs import newest_glibc
from repro.sysmodel.env import Environment
from repro.sysmodel.fs import FsError
from repro.sysmodel.library import parse_library_name
from repro.sysmodel.loader import ResolutionReport, undefined_symbols
from repro.sysmodel.machine import Machine
from repro.toolchain.libc import parse_banner


class ToolUnavailable(RuntimeError):
    """The requested utility is not installed at this site."""


def _verdef_names(elf: ElfFile) -> tuple[str, ...]:
    """The names under ``objdump -p``'s "Version definitions"."""
    return tuple(d.name.name for d in elf.version_definitions)


#: Common library locations searched by FEAM's ``find`` fallback
#: (Section V.A: "common library locations as well as locations set in
#: the LD_LIBRARY_PATH environment variable").
COMMON_LIB_DIRS = (
    "/lib", "/lib64", "/usr/lib", "/usr/lib64",
    "/usr/local/lib", "/usr/local/lib64", "/opt",
)


@dataclasses.dataclass(frozen=True)
class ObjdumpInfo:
    """Parsed ``objdump -p`` output."""

    file_format: str  # e.g. "elf64-x86-64"
    machine: str
    bits: int
    is_dynamic: bool
    needed: tuple[str, ...]
    soname: Optional[str]
    rpath: Optional[str]
    runpath: Optional[str]
    #: (library file, version name) pairs from "Version References".
    version_references: tuple[tuple[str, str], ...]
    #: version names from "Version Definitions".
    version_definitions: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class LddEntry:
    """One line of ldd output."""

    soname: str
    path: Optional[str]  # None renders as "not found"

    def render(self) -> str:
        target = self.path if self.path else "not found"
        return f"\t{self.soname} => {target}"


@dataclasses.dataclass(frozen=True)
class LddResult:
    """Parsed ``ldd -v`` output."""

    recognised: bool  # False: "not a dynamic executable"
    entries: tuple[LddEntry, ...] = ()
    #: (requesting object, version, from-library, resolved-path-or-None)
    #: -- real ``ldd -v`` groups its "Version information:" section by the
    #: object carrying the reference, starting with the binary itself.
    version_info: tuple[tuple[str, str, str, Optional[str]], ...] = ()
    #: Unsatisfied version references reported by the loader (messages).
    version_errors: tuple[str, ...] = ()
    #: The same, structured: (library soname, version name) pairs.
    unsatisfied_versions: tuple[tuple[str, str], ...] = ()

    @property
    def missing(self) -> tuple[str, ...]:
        return tuple(e.soname for e in self.entries if e.path is None)

    def versions_required_by(self, requester: str,
                             ) -> tuple[tuple[str, str], ...]:
        """(library, version) references carried by one object."""
        return tuple((lib, version)
                     for req, version, lib, _path in self.version_info
                     if req == requester)

    def render(self) -> str:
        if not self.recognised:
            return "\tnot a dynamic executable\n"
        lines = [e.render() for e in self.entries]
        if self.version_info:
            lines.append("\n\tVersion information:")
            current = None
            for requester, version, lib, path in self.version_info:
                if requester != current:
                    lines.append(f"\t{requester}:")
                    current = requester
                lines.append(f"\t\t{lib} ({version}) => {path or 'not found'}")
        return "\n".join(lines) + "\n"


class Toolbox:
    """Emulated utilities bound to one machine.

    *available* lists installed utilities; omitted utilities raise
    :class:`ToolUnavailable` so FEAM's fallback paths engage.
    """

    ALL_TOOLS = frozenset({
        "objdump", "readelf", "ldd", "uname", "locate", "find", "cat",
        "ldconfig", "nm"})

    def __init__(self, machine: Machine,
                 available: Optional[frozenset[str]] = None) -> None:
        self.machine = machine
        self.available = (frozenset(available) if available is not None
                          else self.ALL_TOOLS)

    def _require(self, tool: str) -> None:
        if tool not in self.available:
            raise ToolUnavailable(f"{tool}: command not found")

    def _env(self, env: Optional[Environment]) -> Environment:
        return env if env is not None else self.machine.env

    def _read_elf(self, path: str,
                  tool: Optional[str] = None) -> Optional[ElfFile]:
        """``machine.read_elf(path)``; the one place an unreadable file
        is decided: absent (None) to a probe, an error to a *tool*."""
        try:
            return self.machine.read_elf(path)
        except (FsError, ElfError) as exc:
            if tool is None:
                return None
            raise FsError(f"{tool}: {path}: {exc}") from exc

    # -- objdump -p -----------------------------------------------------------

    def objdump_p(self, path: str) -> ObjdumpInfo:
        """``objdump -p <path>``: file-format specific information."""
        self._require("objdump")
        elf = self._read_elf(path, "objdump")
        isa_name = elf.header.machine.display_name
        dynamic = elf.dynamic
        return ObjdumpInfo(
            file_format=f"elf{elf.header.bits}-{isa_name}",
            machine=isa_name,
            bits=elf.header.bits,
            is_dynamic=elf.is_dynamic,
            needed=dynamic.needed,
            soname=dynamic.soname,
            rpath=dynamic.rpath,
            runpath=dynamic.runpath,
            version_references=tuple(
                (req.filename, v.name)
                for req in elf.version_requirements for v in req.versions),
            version_definitions=_verdef_names(elf),
        )

    # -- readelf -p .comment -----------------------------------------------------

    def readelf_comment(self, path: str) -> tuple[str, ...]:
        """``readelf -p .comment <path>``: toolchain banner strings."""
        self._require("readelf")
        return self._read_elf(path, "readelf").comment

    # -- ldd -v ----------------------------------------------------------------------

    def ldd(self, path: str, env: Optional[Environment] = None) -> LddResult:
        """``ldd -v <path>`` under *env* (defaults to the login env).

        The closure comes from :meth:`Machine.resolve
        <repro.sysmodel.machine.Machine.resolve>` with *path* as the
        origin: the machine's closure memo, relabelled to *path*, so an
        ``ldd`` of a binary whose closure a launch (or an earlier
        ``ldd``) already resolved is a lookup.  The root itself is read
        and parsed on every call.
        """
        self._require("ldd")
        elf = parse_elf(self.machine.fs.read(self.machine.fs.realpath(path)))
        if not elf.is_dynamic:
            return LddResult(recognised=False)
        # The paper's Section V.A quirk: ldd does not recognise some
        # binaries as dynamically linked (emulated for PGI toolchains).
        if any("PGI" in c for c in elf.comment):
            return LddResult(recognised=False)
        report: ResolutionReport = self.machine.resolve(
            elf, self._env(env), origin=path)
        entries = []
        seen: set[str] = set()
        for e in report.entries:
            if e.soname in seen:
                continue
            seen.add(e.soname)
            entries.append(LddEntry(soname=e.soname, path=e.path))
        version_info = []
        for loaded_path, elf in report.loaded.items():
            for req in elf.version_requirements:
                resolved = next(
                    (e.path for e in report.entries
                     if e.soname == req.filename), None)
                for v in req.versions:
                    version_info.append(
                        (loaded_path, v.name, req.filename, resolved))
        version_errors = tuple(
            ve.message() for ve in report.version_errors)
        unsatisfied = tuple(dict.fromkeys(
            (ve.library, ve.version) for ve in report.version_errors))
        return LddResult(
            recognised=True,
            entries=tuple(entries),
            version_info=tuple(version_info),
            version_errors=version_errors,
            unsatisfied_versions=unsatisfied,
        )

    def ldd_r(self, path: str,
              env: Optional[Environment] = None) -> tuple["LddResult", list]:
        """``ldd -r``: relocation (symbol-level) checking on top of ldd.

        Returns ``(ldd result, unsatisfied imported symbols)``.  The
        report comes from :meth:`Machine.resolve
        <repro.sysmodel.machine.Machine.resolve>`, as :meth:`ldd`'s
        does, so it is the closure :meth:`ldd` just resolved.
        """
        result = self.ldd(path, env)
        if not result.recognised:
            return result, []
        root = parse_elf(self.machine.fs.read(self.machine.fs.realpath(path)))
        report = self.machine.resolve(root, self._env(env), origin=path)
        return result, undefined_symbols(report, origin=path)

    # -- uname ------------------------------------------------------------------------

    def uname_p(self) -> str:
        """``uname -p``."""
        self._require("uname")
        return self.machine.uname_processor()

    # -- file reading (cat of /proc and /etc files) -------------------------------------

    def cat(self, path: str) -> str:
        """Read a text file (``cat``)."""
        self._require("cat")
        return self.machine.fs.read_text(path)

    def list_glob(self, directory: str, suffix: str = "") -> list[str]:
        """Shell globbing of ``directory/*suffix``."""
        if not self.machine.fs.is_dir(directory):
            return []
        return [posixpath.join(directory, name)
                for name in self.machine.fs.listdir(directory)
                if name.endswith(suffix)]

    # -- locate / find -----------------------------------------------------------------

    def locate(self, name: str) -> list[str]:
        """``locate <name>``: every path whose basename matches."""
        self._require("locate")
        return sorted(self.machine.fs.find_files(
            "/", name_filter=lambda fname: fname == name))

    def find_in_dirs(self, name: str, directories: list[str]) -> list[str]:
        """``find <dirs> -name <name>`` over specific directories."""
        self._require("find")
        hits = []
        for directory in directories:
            hits.extend(self.machine.fs.find_files(
                directory, name_filter=lambda fname: fname == name))
        return sorted(set(hits))

    def search_library(self, soname: str,
                       env: Optional[Environment] = None) -> list[str]:
        """FEAM's library search: common locations + LD_LIBRARY_PATH.

        Prefers ``locate`` and falls back to ``find`` (Section V.A).
        """
        try:
            hits = self.locate(soname)
            if hits:
                return hits
        except ToolUnavailable:
            pass
        return self.find_in_dirs(soname, self._find_dirs(env))

    def _find_dirs(self, env: Optional[Environment]) -> list[str]:
        """Where FEAM's ``find`` fallback looks: the common library
        locations, then ``LD_LIBRARY_PATH``."""
        return list(COMMON_LIB_DIRS) + self._env(env).ld_library_path

    def loader_visible_library(self, soname: str,
                               env: Optional[Environment] = None,
                               ) -> Optional[str]:
        """Where the dynamic loader would find *soname* under *env*.

        Unlike :meth:`search_library` (which hunts the whole filesystem to
        *locate copies*), this checks only the loader's search order:
        LD_LIBRARY_PATH, ``/etc/ld.so.conf`` directories, and the trusted
        default directories.  Presence elsewhere (an unloaded ``/opt``
        prefix) does not make a binary runnable, so readiness checks must
        use this test.  The order is
        :meth:`DynamicLoader.search_directories
        <repro.sysmodel.loader.DynamicLoader.search_directories>` for an
        object without RPATH or RUNPATH, the loader's own list.
        """
        for directory in self.machine.loader.search_directories(
                None, self._env(env)):
            candidate = posixpath.join(directory, soname)
            if self.machine.fs.is_file(candidate):
                return candidate
        return None

    def search_library_stem(self, stem: str,
                            env: Optional[Environment] = None) -> list[str]:
        """Find any version of ``lib<stem>`` (used for MPI stack discovery)."""
        def matches(fname: str) -> bool:
            parsed = parse_library_name(fname)
            return parsed is not None and parsed.stem == stem

        self._require("find")
        hits = []
        for directory in self._find_dirs(env):
            hits.extend(self.machine.fs.find_files(
                directory, name_filter=matches))
        return sorted(set(hits))

    # -- nm -D -------------------------------------------------------------------------

    def nm_dynamic(self, path: str):
        """``nm -D <path>``: the dynamic symbol table.

        Returns a tuple of :class:`repro.elf.structs.DynamicSymbol`.
        """
        self._require("nm")
        return self._read_elf(path, "nm").symbols

    def nm_render(self, path: str) -> str:
        """``nm -D`` text output."""
        symbols = self.nm_dynamic(path)
        if not symbols:
            return "nm: no symbols\n"
        return "\n".join(s.render() for s in symbols) + "\n"

    # -- ldconfig -----------------------------------------------------------------------

    def ldconfig_p(self):
        """``ldconfig -p``: the ld.so.cache index, or None when absent.

        Returns a list of :class:`repro.sysmodel.ldconfig.CacheEntry`.
        """
        self._require("ldconfig")
        from repro.sysmodel.ldconfig import read_cache
        return read_cache(self.machine.fs)

    def cache_lookup(self, soname: str) -> Optional[str]:
        """Path of *soname* per the ld.so.cache, or None."""
        try:
            entries = self.ldconfig_p()
        except ToolUnavailable:
            return None
        if not entries:
            return None
        for entry in entries:
            if entry.soname == soname:
                return entry.path
        return None

    # -- C library version ------------------------------------------------------------

    def run_libc_binary(self, path: str) -> Optional[str]:
        """Execute the C library binary and parse its banner.

        Real glibc prints its version banner when ``/lib64/libc.so.6`` is
        executed; the emulation recovers the banner the build embedded in
        the image's ``.comment`` section.
        """
        elf = self._read_elf(path) if self.machine.fs.is_file(path) else None
        if elf is None:
            return None
        for comment in elf.comment:
            version = parse_banner(comment)
            if version is not None:
                return comment
        return None

    def libc_version_via_api(self, path: str) -> Optional[str]:
        """Fallback: ``gnu_get_libc_version()`` via the C library API.

        Emulated by reading the newest numbered GLIBC version the
        installed library's ELF image defines
        (:func:`~repro.elf.structs.newest_glibc`).
        """
        elf = self._read_elf(path)
        return newest_glibc(_verdef_names(elf)) if elf is not None else None

    # -- wrapper inspection ---------------------------------------------------------------

    def wrapper_compiler(self, wrapper_path: str) -> Optional[str]:
        """Parse an mpicc-style wrapper script for its compiler driver."""
        fs = self.machine.fs
        if not fs.is_file(wrapper_path):
            return None
        text = fs.read(wrapper_path)
        if text[:4] == b"\x7fELF":
            return None
        for line in text.decode("utf-8", errors="replace").splitlines():
            line = line.strip()
            if line.startswith("CC="):
                return line[len("CC="):].strip().strip('"')
        return None

    def compiler_banner(self, driver_path: str) -> Optional[str]:
        """``<driver> -V``: the compiler's identification banner."""
        elf = self._read_elf(driver_path)
        return elf.comment[0] if elf is not None and elf.comment else None
