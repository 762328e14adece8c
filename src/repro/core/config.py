"""FEAM user configuration.

Before running FEAM, a user specifies (via a configuration file) the
site's serial and parallel submission scripts -- "the only information
about a new site our methods require the user to determine" -- plus which
phase to run, the binary location, and optional per-MPI-type ``mpiexec``
overrides (paper Sections V and V.C).

The configuration holds that information and the model's parameters,
nothing else.  Operational defaults live in the component they
configure: retries and breakers in :mod:`repro.core.resilience`, the
wide-event ring in :mod:`repro.obs.wide`, the run ledger's directory
rule in :mod:`repro.obs.ledger`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass(frozen=True)
class FeamConfig:
    """Per-run FEAM configuration (the paper's configuration file)."""

    #: Queue used for FEAM's own serial work (description/discovery jobs).
    serial_queue: str = "debug"
    #: Queue used for hello-world MPI functional tests.
    parallel_queue: str = "debug"
    #: Per-MPI-type launch command override; ``mpiexec`` by default.
    mpiexec_overrides: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Ranks used for hello-world tests.
    hello_nprocs: int = 2
    #: Recursion limit of the resolution model.
    max_resolution_depth: int = 8
    #: Sonames never copied by the resolution model (Section IV copies
    #: every shared library "except for the C library").
    copy_excludes: tuple[str, ...] = (
        "libc.so.6", "ld-linux.so.2", "ld-linux-x86-64.so.2")
    #: Where library copies are staged at a target site.
    staging_root: str = "/home/user/feam/stage"
    #: Where FEAM writes its output files.
    output_root: str = "/home/user/feam/out"
    #: Timing model of FEAM's own (scheduler-visible) work, in seconds.
    #: Fixed target-phase overhead (description + discovery bookkeeping).
    feam_base_seconds: float = 10.0
    #: Added per NEEDED entry of the binary being described.
    feam_seconds_per_dependency: float = 0.2
    #: One hello-world functional test of a candidate MPI stack.
    stack_assessment_seconds: float = 25.0
    #: Per-library loader-visibility check.
    library_check_seconds: float = 0.5
    #: Per-library resolution-model analysis and staging.
    resolution_seconds_per_library: float = 2.0
    #: Post-resolution retest of the imported hello-world.
    hello_retest_seconds: float = 20.0
    #: Persistent cache: per-segment byte cap before LRU eviction
    #: (:data:`repro.core.persist.DEFAULT_MAX_BYTES`).
    cache_max_bytes: int = 64 * 1024 * 1024

    def mpiexec_for(self, mpi_type: Optional[str]) -> str:
        """The launch command for an MPI type (Section V.C default)."""
        if mpi_type and mpi_type in self.mpiexec_overrides:
            return self.mpiexec_overrides[mpi_type]
        return "mpiexec"

    @staticmethod
    def parse(text: str) -> "FeamConfig":
        """Parse the simple ``key = value`` configuration-file format.

        The keys are the field names :meth:`render` writes, plus
        ``mpiexec.<MPI type>`` overrides.  Any other key raises
        ``ValueError`` naming its line, so a file that sets a retry,
        breaker, ledger or cache knob fails loudly instead of being
        silently ignored.
        """
        kwargs: dict = {}
        overrides: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key.startswith("mpiexec."):
                overrides[key[len("mpiexec."):]] = value
            elif key in ("serial_queue", "parallel_queue",
                         "staging_root", "output_root"):
                kwargs[key] = value
            elif key in ("hello_nprocs", "max_resolution_depth",
                         "cache_max_bytes"):
                kwargs[key] = int(value)
            elif key in ("feam_base_seconds", "feam_seconds_per_dependency",
                         "stack_assessment_seconds", "library_check_seconds",
                         "resolution_seconds_per_library",
                         "hello_retest_seconds"):
                kwargs[key] = float(value)
            else:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if overrides:
            kwargs["mpiexec_overrides"] = overrides
        return FeamConfig(**kwargs)

    def render(self) -> str:
        """Serialize back to the configuration-file format."""
        lines = [
            f"serial_queue = {self.serial_queue}",
            f"parallel_queue = {self.parallel_queue}",
            f"hello_nprocs = {self.hello_nprocs}",
            f"max_resolution_depth = {self.max_resolution_depth}",
            f"staging_root = {self.staging_root}",
            f"output_root = {self.output_root}",
            f"feam_base_seconds = {self.feam_base_seconds}",
            f"feam_seconds_per_dependency = {self.feam_seconds_per_dependency}",
            f"stack_assessment_seconds = {self.stack_assessment_seconds}",
            f"library_check_seconds = {self.library_check_seconds}",
            f"resolution_seconds_per_library = "
            f"{self.resolution_seconds_per_library}",
            f"hello_retest_seconds = {self.hello_retest_seconds}",
            f"cache_max_bytes = {self.cache_max_bytes}",
        ]
        for mpi_type, command in sorted(self.mpiexec_overrides.items()):
            lines.append(f"mpiexec.{mpi_type} = {command}")
        return "\n".join(lines) + "\n"
