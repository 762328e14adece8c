"""Site assembly.

A :class:`SiteSpec` declares a computing site the way the paper's Table II
does (operating system, C library, compilers, MPI stacks, interconnect);
:meth:`Site.build` materialises it: a machine with genuine ELF libraries on
its virtual filesystem, compiler and MPI-stack installations, a module
system or SoftEnv database, a batch scheduler, and the ground-truth
execution simulator.

FEAM itself (:mod:`repro.core`) must only interact with a site through its
filesystem, environment, module files and scheduler -- the same interfaces
the real tool has -- never through the construction-time spec.
"""

from __future__ import annotations

import dataclasses
import posixpath
from typing import Optional

from repro.elf.constants import ElfClass, ElfData, ElfMachine
from repro.mpi.implementations import MpiImplementationKind, MpiRelease
from repro.mpi.provenance import GLOBAL_REGISTRY
from repro.mpi.runtime import BuildProvenance, ExecutionSimulator, RunRequest
from repro.mpi.stack import Interconnect, MpiStackInstall, MpiStackSpec
from repro.sites.modules import EnvironmentModules, NoModuleSystem
from repro.sites.scheduler import JobRecord, Scheduler, SchedulerFlavor
from repro.sites.softenv import SoftEnv
from repro.sysmodel.distro import Distro
from repro.sysmodel.env import Environment
from repro.sysmodel.errors import ExecutionResult
from repro.sysmodel.machine import Machine
from repro.toolchain.compilers import Compiler, CompilerFamily, Language
from repro.toolchain.installs import CompilerInstall
from repro.toolchain.libc import GlibcRelease, glibc
from repro.toolchain.linker import LinkInput, LinkedObject, link_program
from repro.toolchain.products import LibraryProduct


class StaticLibrariesUnavailable(RuntimeError):
    """The MPI implementation was not installed with static libraries.

    The paper (Section VI.C): "Scientists compiling their own or community
    MPI applications at sites where MPI implementations have not been
    installed with static libraries do not have the option to prepare
    statically linked binaries for migration."
    """


@dataclasses.dataclass(frozen=True)
class StackRequest:
    """One MPI stack to install: a release built with a compiler family."""

    release: MpiRelease
    compiler_family: CompilerFamily
    #: Were static archives (.a) installed alongside the shared libraries?
    static_libs: bool = False


#: Common system libraries every distro ships.
_SYSTEM_PRODUCTS = (
    LibraryProduct("libz.so.1", filename="libz.so.1.2.3", size=90_000,
                   glibc_ceiling=(2, 3, 4), comment=("zlib",)),
)

#: System InfiniBand userspace libraries (present on IB sites).
_IB_PRODUCTS = (
    LibraryProduct("libibverbs.so.1", filename="libibverbs.so.1.0.0",
                   size=85_000, glibc_ceiling=(2, 3, 4),
                   comment=("libibverbs",)),
    LibraryProduct("libibumad.so.3", filename="libibumad.so.3.0.2",
                   size=30_000, glibc_ceiling=(2, 3, 4),
                   comment=("libibumad",)),
    LibraryProduct("librdmacm.so.1", filename="librdmacm.so.1.0.0",
                   size=60_000, glibc_ceiling=(2, 3, 4),
                   comment=("librdmacm",)),
)


@dataclasses.dataclass(frozen=True)
class SiteSpec:
    """Declarative description of a computing site (one Table II row)."""

    name: str
    display_name: str
    organization: str
    site_type: str  # "MPP" | "SMP" | "Hybrid" | "Cluster"
    cores: int
    arch: str
    distro: Distro
    libc_version: str
    system_gnu_version: str
    vendor_compilers: tuple[Compiler, ...]
    stacks: tuple[StackRequest, ...]
    interconnect: Interconnect
    module_system: str  # "modules" | "softenv" | "none"
    scheduler_flavor: SchedulerFlavor
    #: Stack slugs that are advertised but misconfigured (unusable).
    misconfigured: tuple[str, ...] = ()
    #: Utilities not installed at this site (exercises FEAM's fallbacks).
    missing_tools: tuple[str, ...] = ()
    #: Distro compatibility packages (compat-libgfortran, compat-libf2c,
    #: ...) installed into the system library directory.
    compat_products: tuple[LibraryProduct, ...] = ()
    #: Absolute file paths present on the login node but MISSING on the
    #: compute nodes (diverged images -- a real-world trap FEAM cannot
    #: see, since its discovery runs on the login node).  Empty on the
    #: paper's sites.
    compute_node_missing: tuple[str, ...] = ()

    def compiler_for(self, family: CompilerFamily) -> Compiler:
        """The site's compiler of *family* (system GNU or a vendor one)."""
        if family is CompilerFamily.GNU:
            from repro.toolchain.compilers import gnu
            return gnu(self.system_gnu_version)
        for comp in self.vendor_compilers:
            if comp.family is family:
                return comp
        raise KeyError(f"{self.name} has no {family.value} compiler")


class Site:
    """A fully materialised computing site."""

    def __init__(self, spec: SiteSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.machine = Machine(spec.name, spec.arch, spec.distro)
        self.libc: GlibcRelease = glibc(spec.libc_version)
        self.compiler_installs: dict[str, CompilerInstall] = {}
        self.stacks: list[MpiStackInstall] = []
        self.scheduler = Scheduler(spec.scheduler_flavor, spec.name, seed)
        self.modules: Optional[EnvironmentModules] = None
        self.softenv: Optional[SoftEnv] = None
        #: Links made by :meth:`compile_with_wrapper`, by link input.
        self._wrapper_links: dict[LinkInput, LinkedObject] = {}
        self._install()
        #: The machine jobs actually run on.  Identical to the login
        #: machine unless the spec declares compute-node divergence.
        self.compute_machine = self._build_compute_machine()
        self.simulator = ExecutionSimulator(
            self.compute_machine, spec.name, seed,
            misconfigured_stacks=frozenset(spec.misconfigured))

    #: SiteSpec fields that do not influence ``_install`` output and may
    #: therefore differ between a clone and its template.
    _CLONE_SAFE_OVERRIDES = frozenset((
        "display_name", "organization", "site_type", "cores",
        "scheduler_flavor", "misconfigured", "missing_tools"))

    @classmethod
    def cloned(cls, template: "Site", name: str, seed: int,
               **spec_overrides) -> "Site":
        """A new site copied from a fully-built *template*.

        Skips ``_install`` entirely: the template's filesystem tree is
        cloned (contents shared), its install records are reused, and
        only the per-site identity -- hostname, scheduler, execution
        simulator -- is rebuilt around *name* and *seed*.  This is what
        makes standing up thousands of same-configuration fleet sites
        tractable: timed per call on the seed-7 150-site fleet (2-core
        host, Python 3.11), a build from the spec takes about 8 ms and a
        clone about 0.25 ms, so building costs about 30x more.

        *spec_overrides* may adjust fields that do not affect the
        installed filesystem (scheduler flavor, misconfigured stacks,
        missing tools, cosmetics); anything else must go through a full
        build.
        """
        unsafe = set(spec_overrides) - cls._CLONE_SAFE_OVERRIDES
        if unsafe:
            raise ValueError(
                f"spec fields {sorted(unsafe)} affect installation and "
                f"cannot be overridden on a clone")
        site = cls.__new__(cls)
        site.spec = dataclasses.replace(template.spec, name=name,
                                        **spec_overrides)
        site.seed = seed
        site._wrapper_links = {}
        site.machine = template.machine.clone(name)
        site.libc = template.libc
        site.compiler_installs = dict(template.compiler_installs)
        site.stacks = list(template.stacks)
        site.scheduler = Scheduler(site.spec.scheduler_flavor, name, seed)
        site.modules = (EnvironmentModules(site.machine.fs)
                        if template.modules is not None else None)
        site.softenv = (SoftEnv(site.machine.fs)
                        if template.softenv is not None else None)
        if template.compute_machine is template.machine:
            site.compute_machine = site.machine
        else:
            site.compute_machine = template.compute_machine.clone(
                name + "-compute")
        site.simulator = ExecutionSimulator(
            site.compute_machine, name, seed,
            misconfigured_stacks=frozenset(site.spec.misconfigured))
        return site

    def _build_compute_machine(self) -> Machine:
        if not self.spec.compute_node_missing:
            return self.machine
        # Re-run the identical (deterministic) install on a fresh machine,
        # then take away what the compute image lacks.
        compute = Machine(self.spec.name + "-compute", self.spec.arch,
                          self.spec.distro)
        saved = (self.machine, self.modules, self.softenv, self.stacks,
                 self.compiler_installs)
        self.machine = compute
        self.modules = None
        self.softenv = None
        self.stacks = []
        self.compiler_installs = {}
        try:
            self._install()
        finally:
            (self.machine, self.modules, self.softenv, self.stacks,
             self.compiler_installs) = saved
        for path in self.spec.compute_node_missing:
            if compute.fs.lexists(path):
                compute.fs.remove(path)
        from repro.sysmodel.ldconfig import run_ldconfig
        run_ldconfig(compute)
        return compute

    # -- construction ------------------------------------------------------------

    @property
    def _elf_target(self) -> tuple[ElfMachine, ElfClass, ElfData]:
        primary = self.machine.isa_support[0]
        return primary.machine, primary.elf_class, ElfData.LSB

    def _install(self) -> None:
        fs = self.machine.fs
        machine_kind, elf_class, data = self._elf_target
        # C library into the primary trusted directory.
        libdir = "/lib64" if elf_class is ElfClass.ELF64 else "/lib"
        self.libc.install(fs, libdir, machine_kind, elf_class, data)
        fs.write_text("/etc/ld.so.conf",
                      "include /etc/ld.so.conf.d/*.conf\n")
        fs.makedirs("/etc/ld.so.conf.d")
        # Compilers: the distro GNU toolchain plus any vendor compilers.
        from repro.toolchain.compilers import gnu
        system = CompilerInstall.system_gnu(gnu(self.spec.system_gnu_version))
        system.install(self.machine, self.libc, machine_kind, elf_class, data)
        self.compiler_installs[str(system.compiler)] = system
        for comp in self.spec.vendor_compilers:
            install = CompilerInstall.vendor(comp)
            install.install(self.machine, self.libc,
                            machine_kind, elf_class, data)
            self.compiler_installs[str(comp)] = install
        # Common system libraries, plus InfiniBand userspace libraries
        # where the fabric exists.
        sysdir = "/usr/lib64" if elf_class is ElfClass.ELF64 else "/usr/lib"
        for product in _SYSTEM_PRODUCTS + self.spec.compat_products:
            product.install(fs, sysdir, self.libc,
                            machine_kind, elf_class, data)
        if self.spec.interconnect is Interconnect.INFINIBAND:
            for product in _IB_PRODUCTS:
                product.install(fs, sysdir, self.libc,
                                machine_kind, elf_class, data)
        # User-environment management tool.
        if self.spec.module_system == "modules":
            self.modules = EnvironmentModules(fs)
            self.modules.install()
        elif self.spec.module_system == "softenv":
            self.softenv = SoftEnv(fs)
            self.softenv.install()
        # MPI stacks.
        for request in self.spec.stacks:
            compiler = self.spec.compiler_for(request.compiler_family)
            comp_install = self.compiler_installs[str(compiler)]
            stack_spec = MpiStackSpec(
                release=request.release, compiler=compiler,
                interconnect=self.spec.interconnect)
            install = MpiStackInstall.conventional(
                stack_spec, comp_install,
                has_static_libs=request.static_libs)
            install.install(self.machine, self.libc,
                            machine_kind, elf_class, data)
            self.stacks.append(install)
            if self.modules is not None:
                self.modules.write_modulefile(
                    install.module_name, install.env_additions(),
                    description=str(stack_spec))
            elif self.softenv is not None:
                self.softenv.add_key(
                    install.module_name.replace("/", "-"),
                    install.env_additions())
        # Index the trusted directories, as distro post-install does.
        from repro.sysmodel.ldconfig import run_ldconfig
        run_ldconfig(self.machine)

    # -- identity ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    def toolbox(self):
        """A toolbox over this site's machine, honouring missing tools."""
        from repro.tools.toolbox import Toolbox
        available = Toolbox.ALL_TOOLS - frozenset(self.spec.missing_tools)
        return Toolbox(self.machine, available)

    def module_system(self):
        """The site's user-environment tool (never None; may be a no-op)."""
        if self.modules is not None:
            return self.modules
        if self.softenv is not None:
            return self.softenv
        return NoModuleSystem()

    # -- stacks ----------------------------------------------------------------------

    def stacks_of_kind(self, kind: MpiImplementationKind) -> list[MpiStackInstall]:
        """Installed stacks of one implementation type."""
        return [s for s in self.stacks if s.spec.kind is kind]

    def find_stack(self, slug: str) -> MpiStackInstall:
        """Look up an installed stack by its slug."""
        for stack in self.stacks:
            if stack.spec.slug == slug:
                return stack
        raise KeyError(f"no stack {slug!r} at {self.name}")

    def stack_by_prefix(self, prefix: str) -> MpiStackInstall:
        """Look up an installed stack by its installation prefix.

        This is how an ``mpiexec`` path maps back to the stack that owns
        it -- the only stack identity a user-level process actually has.
        """
        norm = prefix.rstrip("/")
        for stack in self.stacks:
            if stack.prefix.rstrip("/") == norm:
                return stack
        raise KeyError(f"no stack installed at {prefix!r} on {self.name}")

    def env_with_stack(self, stack: MpiStackInstall) -> Environment:
        """A login environment with *stack* selected (``module load``)."""
        env = self.machine.env.copy()
        tool = self.module_system()
        if isinstance(tool, EnvironmentModules):
            tool.load(stack.module_name, env)
        elif isinstance(tool, SoftEnv):
            tool.load(stack.module_name.replace("/", "-"), env)
        else:
            for var, value in stack.env_additions():
                env.prepend_path(var, value)
        return env

    # -- compilation -------------------------------------------------------------------

    def compile_mpi_program(self, name: str, language: Language,
                            stack: MpiStackInstall,
                            glibc_ceiling: tuple[int, ...] = (2, 2, 5),
                            payload_size: int = 40_000,
                            extra_deps: tuple = (),
                            static: bool = False) -> LinkedObject:
        """Compile an MPI program natively with *stack*'s wrapper.

        Raises FsError when the wrapper or underlying compiler driver is
        missing (FEAM then falls back to imported test binaries), and
        :class:`StaticLibrariesUnavailable` when ``static=True`` but the
        stack was installed without static archives (the paper's
        Section VI.C remark).  Every call links afresh.
        """
        inp = self._link_input(name, language, stack, glibc_ceiling,
                               payload_size, extra_deps, static)
        return self._registered(link_program(inp), stack, name)

    def _link_input(self, name: str, language: Language,
                    stack: MpiStackInstall,
                    glibc_ceiling: tuple[int, ...] = (2, 2, 5),
                    payload_size: int = 40_000,
                    extra_deps: tuple = (),
                    static: bool = False) -> LinkInput:
        """What linking *name* with *stack* takes, once the wrapper and
        driver checks of :meth:`compile_mpi_program` pass."""
        if static and not stack.has_static_libs:
            raise StaticLibrariesUnavailable(
                f"{stack.spec.slug} at {self.name} was installed without "
                f"static libraries")
        wrapper = {"fortran": "mpif90", "c++": "mpicxx"}.get(
            language.value, "mpicc")
        wrapper_path = stack.wrapper_path(wrapper)
        if not self.machine.fs.is_executable(wrapper_path):
            from repro.sysmodel.fs import FsError
            raise FsError(f"compiler wrapper missing: {wrapper_path}")
        driver = stack.compiler_install.driver_path(language)
        if not self.machine.fs.is_executable(driver):
            from repro.sysmodel.fs import FsError
            raise FsError(f"compiler driver missing: {driver}")
        machine_kind, elf_class, data = self._elf_target
        return LinkInput(
            name=name, language=language, compiler=stack.spec.compiler,
            libc=self.libc, glibc_ceiling=glibc_ceiling,
            mpi_deps=stack.spec.release.app_deps(language),
            extra_deps=extra_deps,
            machine=machine_kind, elf_class=elf_class, data=data,
            payload_size=payload_size, static=static,
            build_tag=f"{self.name}/{stack.spec.slug}")

    def _registered(self, linked: LinkedObject, stack: MpiStackInstall,
                    name: str) -> LinkedObject:
        """Record *linked*'s build in the provenance registry."""
        GLOBAL_REGISTRY.register(linked.image, BuildProvenance(
            stack=stack.spec, build_site=self.name, binary_name=name))
        return linked

    def compile_with_wrapper(self, wrapper_path: str, name: str,
                             language: Language,
                             payload_size: int = 40_000) -> LinkedObject:
        """Compile through a wrapper identified only by its path.

        This is what FEAM does when it runs ``<prefix>/bin/mpicc
        hello.c``: it knows the wrapper's location (from discovery), not
        which installed stack object owns it.

        FEAM links the same hello-world for every candidate stack at
        every evaluation, so the link is served from a per-site memo
        keyed by the full :class:`~repro.toolchain.linker.LinkInput`:
        :func:`~repro.toolchain.linker.link_program` is a pure function
        of it, and the image bytes are deterministic.  The wrapper and
        driver checks still run on every call (a removed wrapper raises
        ``FsError`` as before), and every call registers the build's
        provenance, as a fresh link does.  :meth:`compile_mpi_program`,
        which builds distinct programs, is not memoised: holding its
        images would pin every binary a corpus build discards.
        """
        prefix = posixpath.dirname(posixpath.dirname(wrapper_path))
        stack = self.stack_by_prefix(prefix)
        inp = self._link_input(name, language, stack,
                               payload_size=payload_size)
        linked = self._wrapper_links.get(inp)
        if linked is None:
            linked = self._wrapper_links[inp] = link_program(inp)
        return self._registered(linked, stack, name)

    # -- execution ----------------------------------------------------------------------

    def execute(self, name: str, binary: bytes, stack: MpiStackInstall,
                env: Optional[Environment] = None,
                provenance: Optional[BuildProvenance] = None,
                curse_probability: float = 0.0,
                attempt: int = 0, nprocs: int = 4,
                queue: str = "debug",
                launcher: str = "mpiexec") -> JobRecord:
        """Submit one execution of *binary* through the batch system.

        When *provenance* is omitted it is recovered from the provenance
        registry (the simulation's "bytes remember their build" channel).
        """
        effective_env = env if env is not None else self.env_with_stack(stack)
        if provenance is None:
            provenance = GLOBAL_REGISTRY.lookup(binary)
        request = RunRequest(
            binary=binary, stack=stack, env=effective_env,
            provenance=provenance, nprocs=nprocs,
            curse_probability=curse_probability, attempt=attempt,
            launcher=launcher)
        return self.scheduler.submit(
            name, lambda: self.simulator.run(request),
            queue=queue, nprocs=nprocs)

    def run_with_retries(self, name: str, binary: bytes,
                         stack: MpiStackInstall,
                         env: Optional[Environment] = None,
                         provenance: Optional[BuildProvenance] = None,
                         curse_probability: float = 0.0,
                         attempts: int = 5, nprocs: int = 4,
                         queue: str = "normal",
                         launcher: str = "mpiexec") -> ExecutionResult:
        """The paper's methodology: up to five spaced attempts.

        Returns the first success, or the last failure when every attempt
        fails.
        """
        last: Optional[ExecutionResult] = None
        for attempt in range(attempts):
            record = self.execute(
                name, binary, stack, env=env, provenance=provenance,
                curse_probability=curse_probability, attempt=attempt,
                nprocs=nprocs, queue=queue, launcher=launcher)
            last = record.result
            if record.result.ok:
                return record.result
        assert last is not None
        return last

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Site({self.name!r}, stacks={len(self.stacks)})"
