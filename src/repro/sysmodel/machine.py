"""The :class:`Machine` aggregate.

A machine is a virtual filesystem plus an OS identity (distro, kernel,
hardware architecture), a base process environment, and the set of ELF
(machine, class) pairs its CPUs can execute -- e.g. an x86-64 node executes
both ELF64/x86-64 and ELF32/i386 images, while a ppc64 node executes
neither.

The tools layer (:mod:`repro.tools`) and the loader operate on machines;
sites (:mod:`repro.sites`) extend machines with schedulers and module
systems.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.elf.constants import ElfClass, ElfMachine
from repro.elf.reader import ElfError, ElfFile, parse_elf
from repro.elf.writer import LazyImage
from repro.sysmodel.distro import Distro
from repro.sysmodel.env import Environment
from repro.sysmodel.errors import ExecutionResult, FailureKind
from repro.sysmodel.fs import DirNode, FileNode, VirtualFilesystem
from repro.sysmodel.loader import DynamicLoader, ResolutionReport


@dataclasses.dataclass(frozen=True)
class IsaSupport:
    """One executable (machine, word-length) combination."""

    machine: ElfMachine
    elf_class: ElfClass

    @property
    def bits(self) -> int:
        return self.elf_class.bits


#: Architectures and the ISA combinations they execute.
_ARCH_PROFILES: dict[str, tuple[IsaSupport, ...]] = {
    "x86_64": (
        IsaSupport(ElfMachine.X86_64, ElfClass.ELF64),
        IsaSupport(ElfMachine.X86, ElfClass.ELF32),
    ),
    "i686": (IsaSupport(ElfMachine.X86, ElfClass.ELF32),),
    "ppc64": (
        IsaSupport(ElfMachine.PPC64, ElfClass.ELF64),
        IsaSupport(ElfMachine.PPC, ElfClass.ELF32),
    ),
    "ia64": (IsaSupport(ElfMachine.IA_64, ElfClass.ELF64),),
    "sparc64": (
        IsaSupport(ElfMachine.SPARCV9, ElfClass.ELF64),
        IsaSupport(ElfMachine.SPARC, ElfClass.ELF32),
    ),
}


def shared_image(fs, node: FileNode) -> Optional[LazyImage]:
    """The :class:`~repro.elf.writer.LazyImage` behind *node*, when reads
    of it may bypass *fs*.

    A library node's provider is one object shared by every site holding
    an equal library, so its bytes and its parse can be taken from the
    image itself.  None for inline and host files, and for every file
    while a fault hook is armed on *fs*: those reads go through
    ``fs.read`` so the hook sees each one.  The one rule behind
    :meth:`Machine.read_elf` and the source phase's library copies.
    """
    image = node.provider
    if isinstance(image, LazyImage) and fs.fault_hook is None:
        return image
    return None


def _dynamic_view(root: ElfFile) -> tuple:
    """Every input :meth:`DynamicLoader.resolve` reads from a root object.

    Linkage, ELF class and machine, ``DT_NEEDED``, ``DT_RPATH``,
    ``DT_RUNPATH`` and the verneed entries as (file, version names).
    The report labels the root ``<main>`` whatever its path, so roots
    with equal views resolve to one closure under one environment.
    ``is_dynamic`` is part of it: a static root and a dynamic root with
    no ``DT_NEEDED`` build different reports.
    """
    dynamic = root.dynamic
    return (root.is_dynamic, root.header.elf_class, root.header.machine,
            dynamic.needed, dynamic.rpath, dynamic.runpath,
            tuple((req.filename, tuple(v.name for v in req.versions))
                  for req in root.version_requirements))


def _first_failure(report: ResolutionReport) -> Optional[ExecutionResult]:
    """The failure the real loader reports first for *report*, if any."""
    kind = report.first_failure_kind()
    if kind is FailureKind.MISSING_LIBRARY:
        missing = ", ".join(report.missing_sonames)
        return ExecutionResult.fail(
            kind,
            f"error while loading shared libraries: {missing}: cannot "
            f"open shared object file: No such file or directory")
    if kind is not None:
        return ExecutionResult.fail(kind, report.version_errors[0].message())
    return None


class _Closure:
    """One memoised resolution: what it found and what it looked at.

    Holds the report's parts, resolved with the root labelled
    ``<main>`` -- entries, version errors, search order and the library
    parses by path -- plus the first failure (an
    :class:`ExecutionResult` is frozen, so every caller can share it),
    the filesystem generation it was resolved at and the directories
    its walks looked into.
    """

    __slots__ = ("generation", "visited", "failure", "entries",
                 "version_errors", "search_order", "libraries")

    def __init__(self, generation: int, visited: tuple[DirNode, ...],
                 report: ResolutionReport) -> None:
        self.generation = generation
        self.visited = visited
        self.failure = _first_failure(report)
        self.entries = tuple(report.entries)
        self.version_errors = tuple(report.version_errors)
        self.search_order = tuple(report.search_order)
        self.libraries = dict(
            (path, elf) for path, elf in report.loaded.items()
            if path != "<main>")

    def valid(self) -> bool:
        """Has no visited directory's entries changed since?"""
        return all(d.stamp <= self.generation for d in self.visited)

    def report(self, root: ElfFile, origin: str) -> ResolutionReport:
        """A fresh report for *root* labelled *origin*: no caller can
        alter the memo.

        The root's direct entries and version errors name *origin* as
        their requester, as a resolution from *origin* would.
        """
        entries = list(self.entries)
        version_errors = list(self.version_errors)
        if origin != "<main>":
            entries = [
                dataclasses.replace(e, requested_by=origin)
                if e.requested_by == "<main>" else e for e in entries]
            version_errors = [
                dataclasses.replace(ve, required_by=origin)
                if ve.required_by == "<main>" else ve
                for ve in version_errors]
        loaded = {origin: root}
        loaded.update(self.libraries)
        return ResolutionReport(
            entries=entries, version_errors=version_errors,
            loaded=loaded, search_order=list(self.search_order))


class Machine:
    """A simulated Linux machine."""

    def __init__(self, hostname: str, arch: str, distro: Distro,
                 fs: Optional[VirtualFilesystem] = None,
                 env: Optional[Environment] = None) -> None:
        if arch not in _ARCH_PROFILES:
            raise ValueError(f"unknown architecture {arch!r}; "
                             f"known: {sorted(_ARCH_PROFILES)}")
        self.hostname = hostname
        self.arch = arch
        self.distro = distro
        self.fs = fs if fs is not None else VirtualFilesystem()
        self.env = env if env is not None else Environment()
        self.loader = DynamicLoader(self)
        distro.materialise(self.fs)
        self.fs.makedirs("/tmp")
        self.fs.makedirs("/home")
        #: Parse cache: canonical path -> (content source, detached
        #: ElfFile).  The source is the node's inline bytes or its
        #: provider, both immutable, so a hit is the same image even
        #: when the path was rewritten with another one of equal size.
        self._elf_cache: dict[str, tuple[object, ElfFile]] = {}
        #: Closure memo of :meth:`resolve`: (root's dynamic view,
        #: LD_LIBRARY_PATH) -> :class:`_Closure`.
        self._closures: dict[tuple, _Closure] = {}
        #: (image, parse) of the last image :meth:`check_loadable` parsed.
        self._last_launch: Optional[tuple[bytes, ElfFile]] = None

    # -- ELF parse cache ----------------------------------------------------

    def read_elf(self, path: str, node: Optional[FileNode] = None):
        """Parse the ELF file at *path*, caching the (detached) result.

        A caller that has already resolved the file passes its canonical
        path as *path* and the :class:`~repro.sysmodel.fs.FileNode` as
        *node*, which saves a second walk; every ELF read still comes
        through here.

        Two tiers.  This machine's cache, keyed by canonical path and
        checked against the node's content source (its inline bytes or
        its provider), answers first; a path rewritten with another
        image misses, even at equal size.  On a miss, a file whose
        :func:`shared_image` is a :class:`~repro.elf.writer.LazyImage`
        takes the parse that image keeps, making it if no site has yet:
        every live site holding an equal library, and every target a
        bundle staged it on, shares one synthesis and one parse.  Any
        other file -- and every file while a fault hook is armed -- is
        read through :meth:`VirtualFilesystem.read`, so the hook sees
        every opportunity it would see without the shared parse, and an
        armed read never fills the image's parse.

        The returned :class:`~repro.elf.reader.ElfFile` has its raw image
        dropped -- callers needing bytes must read the filesystem
        directly.
        """
        if node is None:
            path, node = self.fs.resolve(path)
        source = node.content if node.content is not None else node.provider
        cached = self._elf_cache.get(path)
        if cached is not None and cached[0] is source:
            return cached[1]
        image = shared_image(self.fs, node)
        if image is not None:
            if image.elf is None:
                image.elf = parse_elf(node.read()).detach()
            elf = image.elf
        else:
            elf = parse_elf(self.fs.read(path)).detach()
        self._elf_cache[path] = (source, elf)
        return elf

    # -- cloning ----------------------------------------------------------------

    def clone(self, hostname: str) -> "Machine":
        """An independent machine with the same installed state.

        The filesystem tree is copied node-by-node (contents shared, see
        :meth:`VirtualFilesystem.clone`); the ELF parse cache is carried
        over, since its entries are checked against content sources the
        clone's nodes share.  The closure memo is not: its entries hold
        the template's directory nodes, which the clone does not have,
        so the clone starts with an empty one.  Nor is the last launch's
        parse.
        """
        copy = Machine(hostname, self.arch, self.distro,
                       fs=self.fs.clone(), env=self.env.copy())
        copy._elf_cache = dict(self._elf_cache)
        return copy

    # -- identity ---------------------------------------------------------------

    @property
    def isa_support(self) -> tuple[IsaSupport, ...]:
        """The ELF (machine, class) pairs this machine executes, if any."""
        return _ARCH_PROFILES.get(self.arch, ())

    def supports_isa(self, machine: ElfMachine, elf_class: ElfClass) -> bool:
        """Can this machine execute images of the given machine/class?"""
        return any(s.machine is machine and s.elf_class is elf_class
                   for s in self.isa_support)

    def uname_processor(self) -> str:
        """Output of ``uname -p``."""
        return self.arch

    def uname_machine(self) -> str:
        """Output of ``uname -m`` (same as -p on our platforms)."""
        return self.arch

    # -- execution --------------------------------------------------------------

    def check_loadable(self, binary: bytes,
                       env: Optional[Environment] = None,
                       ) -> tuple[Optional[ExecutionResult], Optional[ResolutionReport]]:
        """Run the pre-execution checks the kernel and loader perform.

        Returns ``(failure, report)``: *failure* is None when the image
        passes the ISA check and the loader resolves everything; otherwise
        an :class:`ExecutionResult` describing the first failure the real
        system would report.  *report* is the loader's resolution report
        (None when the image failed before loading).

        The image is ISA-checked on every call.  It is parsed unless it
        *is* the image this machine last parsed here: a retried launch
        (the paper's five spaced attempts, the two-attempt hello probes)
        reuses that parse, which is exact because bytes are immutable.
        Only that one (image, parse) pair is kept, so no discarded image
        stays pinned; an image that fails to parse is not kept.  The
        parse is not detached, so ``report.loaded["<main>"]`` holds the
        image.  The closure comes from :meth:`resolve`.
        """
        effective_env = env if env is not None else self.env
        last = self._last_launch
        if last is not None and last[0] is binary:
            elf = last[1]
        else:
            try:
                elf = parse_elf(binary)
            except ElfError as exc:
                return ExecutionResult.fail(
                    FailureKind.EXEC_FORMAT,
                    f"cannot execute binary file: {exc}"), None
            self._last_launch = (binary, elf)
        if not self.supports_isa(elf.header.machine, elf.header.elf_class):
            return ExecutionResult.fail(
                FailureKind.EXEC_FORMAT,
                f"cannot execute {elf.header.machine.display_name}/"
                f"{elf.header.bits}-bit binary on {self.arch}",
            ), None
        return self._resolve(elf, effective_env, "<main>")

    def resolve(self, root: ElfFile, env: Environment,
                origin: str = "<main>") -> ResolutionReport:
        """What ``DynamicLoader.resolve(root, env, origin=origin)``
        returns, served from this machine's closure memo.

        The memo is keyed by the root's dynamic view
        (:func:`_dynamic_view`) and ``LD_LIBRARY_PATH``: every input the
        loader reads from them.  An entry records each directory its
        resolution's walks looked into, and is served only while none
        of them has been stamped since (see :mod:`repro.sysmodel.fs`);
        staging a copy into a searched directory re-resolves, writing
        elsewhere does not.  Entries are resolved as ``<main>``; each
        call gets a fresh report relabelled to *origin* (the root's key
        in ``loaded``, its direct entries' ``requested_by`` and its
        version errors' ``required_by``).  When *origin* is the path of
        a library in the closure the loader would take that library for
        the already-loaded root, so the call resolves afresh.  While a
        fault hook is armed every call resolves afresh and stores
        nothing, so the hook sees every read.
        """
        return self._resolve(root, env, origin)[1]

    def _resolve(self, root: ElfFile, env: Environment, origin: str,
                 ) -> tuple[Optional[ExecutionResult], ResolutionReport]:
        """:meth:`resolve`, with the report's first failure."""
        if self.fs.fault_hook is None:
            key = (_dynamic_view(root), tuple(env.ld_library_path))
            closure = self._closures.get(key)
            if closure is None or not closure.valid():
                closure = self._closures[key] = self._resolve_recorded(
                    root, env)
            if origin not in closure.libraries:
                return closure.failure, closure.report(root, origin)
        report = self.loader.resolve(root, env, origin=origin)
        return _first_failure(report), report

    def _resolve_recorded(self, root: ElfFile, env: Environment) -> _Closure:
        """Resolve *root* under *env*, recording the directories looked
        into."""
        generation = self.fs.generation
        self.fs.visits = visited = set()
        try:
            report = self.loader.resolve(root, env)
        finally:
            self.fs.visits = None
        return _Closure(generation, tuple(visited), report)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Machine({self.hostname!r}, arch={self.arch!r}, "
                f"distro={self.distro.family}-{self.distro.version})")
