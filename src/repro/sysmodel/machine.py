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
from repro.elf.reader import ElfError, parse_elf
from repro.elf.writer import LazyImage
from repro.sysmodel.distro import Distro
from repro.sysmodel.env import Environment
from repro.sysmodel.errors import ExecutionResult, FailureKind
from repro.sysmodel.fs import VirtualFilesystem
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
        #: Parse cache: path -> (file size, detached ElfFile).  Files in the
        #: simulation are immutable once written (new content gets a new
        #: path), so (path, size) identifies an image.
        self._elf_cache: dict[str, tuple[int, "ElfFileType"]] = {}

    # -- ELF parse cache ----------------------------------------------------

    def read_elf(self, path: str):
        """Parse the ELF file at *path*, caching the (detached) result.

        Two tiers.  This machine's cache, keyed by canonical path and
        size, answers first.  On a miss, a library file whose provider is
        a :class:`~repro.elf.writer.LazyImage` takes the parse that image
        keeps, making it if no site has yet: every live site holding an
        equal library shares one synthesis and one parse.  That tier is
        skipped while a fault hook is armed on the filesystem, and an
        armed read never fills it: the read goes through
        :meth:`VirtualFilesystem.read`, so the hook sees every
        opportunity it would see without the shared parse.

        The returned :class:`~repro.elf.reader.ElfFile` has its raw image
        dropped -- callers needing bytes must read the filesystem
        directly.
        """
        real, node = self.fs.resolve(path)
        cached = self._elf_cache.get(real)
        if cached is not None and cached[0] == node.size:
            return cached[1]
        image = node.provider
        if isinstance(image, LazyImage) and self.fs.fault_hook is None:
            if image.elf is None:
                image.elf = parse_elf(node.read()).detach()
            elf = image.elf
        else:
            elf = parse_elf(self.fs.read(real)).detach()
        self._elf_cache[real] = (node.size, elf)
        return elf

    # -- cloning ----------------------------------------------------------------

    def clone(self, hostname: str) -> "Machine":
        """An independent machine with the same installed state.

        The filesystem tree is copied node-by-node (contents shared, see
        :meth:`VirtualFilesystem.clone`); the ELF parse cache is carried
        over since cache entries are keyed by (path, size) and every
        image in the simulation is immutable once written.
        """
        copy = Machine(hostname, self.arch, self.distro,
                       fs=self.fs.clone(), env=self.env.copy())
        copy._elf_cache = dict(self._elf_cache)
        return copy

    # -- identity ---------------------------------------------------------------

    @property
    def isa_support(self) -> tuple[IsaSupport, ...]:
        """The ELF (machine, class) combinations this machine executes."""
        return _ARCH_PROFILES[self.arch]

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
        """
        effective_env = env if env is not None else self.env
        try:
            elf = parse_elf(binary)
        except ElfError as exc:
            return ExecutionResult.fail(
                FailureKind.EXEC_FORMAT, f"cannot execute binary file: {exc}"
            ), None
        if not self.supports_isa(elf.header.machine, elf.header.elf_class):
            return ExecutionResult.fail(
                FailureKind.EXEC_FORMAT,
                f"cannot execute {elf.header.machine.display_name}/"
                f"{elf.header.bits}-bit binary on {self.arch}",
            ), None
        report = self.loader.resolve(binary, effective_env)
        kind = report.first_failure_kind()
        if kind is FailureKind.MISSING_LIBRARY:
            missing = ", ".join(report.missing_sonames)
            return ExecutionResult.fail(
                kind,
                f"error while loading shared libraries: {missing}: cannot "
                f"open shared object file: No such file or directory",
            ), report
        if kind is not None:
            first = report.version_errors[0]
            return ExecutionResult.fail(kind, first.message()), report
        return None, report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Machine({self.hostname!r}, arch={self.arch!r}, "
                f"distro={self.distro.family}-{self.distro.version})")
