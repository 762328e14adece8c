"""Dynamic loader (``ld.so``) simulation.

This models the glibc runtime loader faithfully enough to provide the
ground truth against which FEAM's predictions are evaluated:

* search order: ``DT_RPATH`` (ignored when ``DT_RUNPATH`` is present),
  ``LD_LIBRARY_PATH``, ``DT_RUNPATH``, then the trusted default directories
  plus any extra directories from ``/etc/ld.so.conf``;
* candidate filtering: a library whose ELF class or machine does not match
  the requesting object is skipped and the search continues, exactly as the
  real loader does on multi-arch systems (this is how 32-bit libraries in
  ``/usr/lib`` don't shadow 64-bit ones in ``/usr/lib64``);
* recursive resolution of each resolved library's own ``DT_NEEDED`` list;
* symbol-version checking: each verneed entry must be satisfied by a verdef
  of the resolved library -- unsatisfied ``GLIBC_x.y`` references produce
  the paper's C-library-version failures, other namespaces (``GLIBCXX``,
  ``OMPI``...) produce ABI failures.

The loader reads genuine ELF bytes out of the site's virtual filesystem;
nothing here consults the simulation's construction-time metadata.
"""

from __future__ import annotations

import dataclasses
import posixpath
from typing import Optional, TYPE_CHECKING, Union

from repro.elf.reader import ElfError, ElfFile, parse_elf
from repro.sysmodel.errors import FailureKind
from repro.sysmodel.fs import FileNode, FsError, VirtualFilesystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sysmodel.env import Environment
    from repro.sysmodel.machine import Machine


@dataclasses.dataclass(frozen=True)
class ResolvedLibrary:
    """Where one DT_NEEDED entry resolved (or failed to)."""

    soname: str
    #: Absolute path of the library file, or None when not found.
    path: Optional[str]
    #: Which object requested this library (path or "<main>").
    requested_by: str
    #: Directories where a same-named file existed but had the wrong
    #: ELF class/machine (skipped, like the real loader).
    arch_skipped: tuple[str, ...] = ()

    @property
    def found(self) -> bool:
        return self.path is not None


@dataclasses.dataclass(frozen=True)
class VersionError:
    """An unsatisfied symbol-version reference."""

    version: str
    library: str  # soname the version was required from
    library_path: Optional[str]  # where that library resolved (if it did)
    required_by: str  # object that carries the verneed entry

    @property
    def failure_kind(self) -> FailureKind:
        """C-library failures vs other ABI-level version failures."""
        if self.version.startswith("GLIBC_"):
            return FailureKind.LIBC_VERSION
        return FailureKind.ABI_MISMATCH

    def message(self) -> str:
        """glibc-style diagnostic."""
        return (f"version `{self.version}' not found "
                f"(required by {self.required_by})")


@dataclasses.dataclass
class ResolutionReport:
    """Complete result of resolving a binary's dynamic dependencies."""

    entries: list[ResolvedLibrary] = dataclasses.field(default_factory=list)
    version_errors: list[VersionError] = dataclasses.field(default_factory=list)
    #: Parsed objects by resolved path (main binary under "<main>").
    loaded: dict[str, ElfFile] = dataclasses.field(default_factory=dict)
    #: The effective search directories, in order (for diagnostics).
    search_order: list[str] = dataclasses.field(default_factory=list)

    @property
    def missing(self) -> list[ResolvedLibrary]:
        """Entries that failed to resolve."""
        return [e for e in self.entries if not e.found]

    @property
    def missing_sonames(self) -> list[str]:
        """Unique sonames that could not be located, in request order."""
        seen: dict[str, None] = {}
        for e in self.missing:
            seen.setdefault(e.soname)
        return list(seen)

    @property
    def ok(self) -> bool:
        """True when everything resolved with all versions satisfied."""
        return not self.missing and not self.version_errors

    def first_failure_kind(self) -> Optional[FailureKind]:
        """The failure class the runtime would report first.

        The real loader reports missing libraries before version errors.
        """
        if self.missing:
            return FailureKind.MISSING_LIBRARY
        if self.version_errors:
            return self.version_errors[0].failure_kind
        return None


def undefined_symbols(report: "ResolutionReport",
                      origin: str = "<main>") -> list:
    """Imported symbols of the root object no loaded object defines.

    A symbol-level diagnostic on top of soname/version resolution (what
    ``ldd -r`` adds over plain ``ldd``): a versioned import is satisfied
    by an export of the same name and version; an unversioned import by
    any export of the name.  Returns the unsatisfied
    :class:`~repro.elf.structs.DynamicSymbol` imports.

    Purely diagnostic -- the simulation's execution outcomes model ABI
    divergence at the stack-pair level instead (see
    :mod:`repro.mpi.runtime`), because real-world ABI breaks usually hide
    in type layouts rather than in missing symbol names.
    """
    root = report.loaded.get(origin)
    if root is None:
        return []
    exported_names: set[str] = set()
    exported_versioned: set[tuple[str, str]] = set()
    for path, elf in report.loaded.items():
        if path == origin:
            continue
        for symbol in elf.exported_symbols:
            exported_names.add(symbol.name)
            if symbol.version is not None:
                exported_versioned.add((symbol.name, symbol.version))
    missing = []
    for symbol in root.imported_symbols:
        if symbol.version is not None:
            if (symbol.name, symbol.version) in exported_versioned:
                continue
            # A same-named unversioned export also satisfies (old-style
            # libraries without versioning).
            if symbol.name in exported_names:
                continue
            missing.append(symbol)
        elif symbol.name not in exported_names:
            missing.append(symbol)
    return missing


#: Trusted directories searched last, in glibc's order (64-bit dirs first
#: on 64-bit systems; the loader filters by ELF class anyway).
DEFAULT_TRUSTED_DIRS = ("/lib64", "/usr/lib64", "/lib", "/usr/lib")

LD_SO_CONF = "/etc/ld.so.conf"


def read_ld_so_conf(fs: VirtualFilesystem) -> list[str]:
    """Extra trusted directories configured in ``/etc/ld.so.conf``.

    Supports plain directory lines and ``include`` of fragment files
    (``include /etc/ld.so.conf.d/*.conf``).  An ``include`` inside a
    fragment is followed too, as ``ldconfig`` follows it, but each file
    is parsed at most once per call, so a fragment that includes its own
    pattern contributes its lines once and the walk ends.
    """
    dirs: list[str] = []
    parsed: set[str] = set()

    def parse(path: str) -> None:
        if path in parsed or not fs.is_file(path):
            return
        parsed.add(path)
        for line in fs.read_text(path).splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("include "):
                pattern = line[len("include "):].strip()
                directory = posixpath.dirname(pattern)
                if fs.is_dir(directory):
                    for name in fs.listdir(directory):
                        if name.endswith(".conf"):
                            parse(posixpath.join(directory, name))
                continue
            dirs.append(line)

    parse(LD_SO_CONF)
    return dirs


class DynamicLoader:
    """Resolve dynamic dependencies of a binary against a machine's fs."""

    def __init__(self, machine: "Machine") -> None:
        self._machine = machine

    # -- search ---------------------------------------------------------------

    def search_directories(self, root: Optional[ElfFile],
                           env: "Environment") -> list[str]:
        """The search order for *root* under *env*: the loader's, the
        loader-visible check's and ``ldconfig``'s.  *root* None is an
        object without ``DT_RPATH`` or ``DT_RUNPATH``."""
        dirs: list[str] = []
        rpath = root.dynamic.rpath if root is not None else None
        runpath = root.dynamic.runpath if root is not None else None
        if rpath and not runpath:
            dirs.extend(p for p in rpath.split(":") if p)
        dirs.extend(env.ld_library_path)
        if runpath:
            dirs.extend(p for p in runpath.split(":") if p)
        dirs.extend(read_ld_so_conf(self._machine.fs))
        dirs.extend(DEFAULT_TRUSTED_DIRS)
        # Deduplicate, preserving order, on the spelling as ld.so does:
        # only trailing slashes are dropped.  ``..`` is left to the
        # filesystem walk, which follows a symlink before climbing out
        # of it, so ``/a/link/..`` is not ``/a``.
        seen: dict[str, None] = {}
        for d in dirs:
            seen.setdefault(d.rstrip("/") or "/")
        return list(seen)

    def _candidate(self, directory: str, soname: str,
                   want_class: int, want_machine: int,
                   ) -> tuple[Optional[str], Optional[FileNode], bool]:
        """Try ``directory/soname``.

        Returns ``(path, node, arch_skip)``: the canonical *path* and file
        *node* when a matching library was found; ``arch_skip`` True when
        a file existed but had the wrong architecture (search continues).
        """
        try:
            real, node = self._machine.fs.resolve(
                posixpath.join(directory, soname))
            elf = self._machine.read_elf(real, node)
        except (FsError, ElfError):
            return None, None, False
        if (int(elf.header.elf_class) != want_class
                or int(elf.header.machine) != want_machine):
            return None, None, True
        return real, node, False

    # -- resolution -------------------------------------------------------------

    def resolve(self, binary: Union[bytes, ElfFile], env: "Environment",
                origin: str = "<main>") -> ResolutionReport:
        """Resolve the full dependency closure of *binary* under *env*.

        *binary* is the root object's image, or the parse of it a caller
        already holds (which is then not parsed again).
        """
        report = ResolutionReport()
        root = binary if isinstance(binary, ElfFile) else parse_elf(binary)
        report.loaded[origin] = root
        if not root.is_dynamic:
            return report
        want_class = int(root.header.elf_class)
        want_machine = int(root.header.machine)
        search = self.search_directories(root, env)
        report.search_order = search

        resolved_by_soname: dict[str, Optional[str]] = {}
        queue: list[tuple[str, str]] = [
            (soname, origin) for soname in root.dynamic.needed]
        while queue:
            soname, requester = queue.pop(0)
            if soname in resolved_by_soname:
                continue
            arch_skips: list[str] = []
            found: Optional[str] = None
            for directory in search:
                path, node, skipped = self._candidate(
                    directory, soname, want_class, want_machine)
                if skipped:
                    arch_skips.append(directory)
                if path is not None:
                    found = path
                    break
            resolved_by_soname[soname] = found
            report.entries.append(ResolvedLibrary(
                soname=soname, path=found, requested_by=requester,
                arch_skipped=tuple(arch_skips)))
            if found is not None and found not in report.loaded:
                lib = self._machine.read_elf(found, node)
                report.loaded[found] = lib
                for dep in lib.dynamic.needed:
                    queue.append((dep, found))

        # Version checking across every loaded object.
        defs_by_soname: dict[str, set[str]] = {}
        for path, elf in report.loaded.items():
            if path == origin:
                continue
            soname = elf.dynamic.soname or posixpath.basename(path)
            names = {d.name.name for d in elf.version_definitions}
            defs_by_soname.setdefault(soname, set()).update(names)
            # The filename on disk may differ from the soname; index both.
            defs_by_soname.setdefault(
                posixpath.basename(path), set()).update(names)

        for path, elf in report.loaded.items():
            for req in elf.version_requirements:
                target = resolved_by_soname.get(req.filename)
                if target is None and req.filename not in defs_by_soname:
                    # verneed names a file that was never loaded; the real
                    # loader only checks versions of loaded objects.
                    continue
                provided = defs_by_soname.get(req.filename, set())
                for version in req.versions:
                    if version.name not in provided:
                        report.version_errors.append(VersionError(
                            version=version.name,
                            library=req.filename,
                            library_path=target,
                            required_by=path,
                        ))
        return report
