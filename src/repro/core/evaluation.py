"""The Target Evaluation Component (TEC).

"The TEC uses the information gathered by the BDC and EDC to determine
whether execution can occur at a target site without recompilation"
(Section V.C).  Order of operations, per the paper:

1. match ISA and C-library version; stop with detailed reasons on failure;
2. for each compatible MPI stack detected, compile and run a hello-world
   program natively to confirm the stack functions; when hello-world
   programs from a guaranteed execution environment are available (the
   source phase ran), run them too to confirm compatibility with the
   binary's own build stack;
3. under the selected stack's environment, identify missing shared
   libraries and unsatisfied symbol-version references;
4. with a source-phase bundle, apply the resolution model to the missing
   libraries and re-check;
5. emit the verdict, the reasons, and a site-configuration activation
   script.

The determinant logic itself lives in the pluggable pipeline under
:mod:`repro.core.determinants`; the TEC provides the site-bound services
the checks need (environment discovery, hello-world probes) and turns the
pipeline's results into a :class:`TargetReport`.

All of FEAM's own work runs through the site's batch scheduler (debug
queue), which is how the paper measures its sub-five-minute cost.
"""

from __future__ import annotations

import dataclasses
import posixpath
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.core.bundle import SourceBundle
from repro.core.config import FeamConfig
from repro.core.description import BinaryDescription
from repro.core.determinants import (
    DeterminantContext,
    DeterminantRegistry,
    default_registry,
    isa_compatible,  # noqa: F401  (re-exported for back-compat)
)
from repro.core.discovery import (
    DiscoveredStack,
    EnvironmentDescription,
    EnvironmentDiscoveryComponent,
)
from repro.core.prediction import (
    Outcome,
    Prediction,
    PredictionMode,
    StackAssessment,
)
from repro.core.resolution import ResolutionModel, ResolutionPlan
from repro.sysmodel.env import Environment
from repro.sysmodel.fs import FsError
from repro.toolchain.compilers import Language

if TYPE_CHECKING:
    from repro.core.resilience import FailureProvenance


def _loader_failure(detail: str) -> bool:
    """Does this stderr text look like a dynamic-loader failure?

    Loader failures of the *imported* hello-world probe (missing shared
    objects, unsatisfied versions) are inconclusive for stack
    compatibility: the probe shares the application's own library
    requirements, which the resolution model may satisfy.  Launch/ABI/FPE
    failures, by contrast, condemn the stack pairing.
    """
    return ("cannot open shared object file" in detail
            or "version `" in detail)


def _compiler_family_hint(description: BinaryDescription) -> Optional[str]:
    """Guess the build compiler family from the .comment banner."""
    hint = description.build_compiler_hint or ""
    if hint.startswith("GCC"):
        return "gnu"
    if hint.startswith("Intel"):
        return "intel"
    if hint.startswith("PGI"):
        return "pgi"
    return None


@dataclasses.dataclass(frozen=True)
class CellCacheInfo:
    """Which evaluation-engine caches served one (binary, site) cell."""

    description_hit: bool = False
    discovery_hit: bool = False
    evaluation_hit: bool = False
    #: Which tier served the evaluation layer: ``"memory"`` (the
    #: engine's in-process dict), ``"disk"`` (the persistent store,
    #: including a rerun that resumes a killed run), or None for a
    #: freshly computed cell.  Wide events surface this as ``cache_tier``; :meth:`render`
    #: does not (the verbose grid stays byte-stable across tiers by
    #: design).
    tier: Optional[str] = None

    def render(self) -> str:
        def word(hit: bool) -> str:
            return "hit" if hit else "miss"

        return (f"description={word(self.description_hit)} "
                f"discovery={word(self.discovery_hit)} "
                f"evaluation={word(self.evaluation_hit)}")


@dataclasses.dataclass
class TargetReport:
    """Everything a target phase produces."""

    prediction: Prediction
    environment: EnvironmentDescription
    resolution: Optional[ResolutionPlan] = None
    #: Ready-to-run environment (stack + staging) when prediction is ready.
    run_environment: Optional[Environment] = None
    selected_stack_prefix: Optional[str] = None
    #: Simulated seconds of FEAM's own work (scheduler-visible).
    feam_seconds: float = 0.0
    output_path: Optional[str] = None
    #: Engine cache provenance (None when evaluated outside the engine).
    cache: Optional[CellCacheInfo] = None
    #: Set when evaluation degraded to UNKNOWN instead of completing
    #: (injected or real fault; see :mod:`repro.core.resilience`).
    failure: Optional["FailureProvenance"] = None

    @property
    def ready(self) -> bool:
        return self.prediction.ready

    @property
    def faulted(self) -> bool:
        return self.failure is not None


class TargetEvaluationComponent:
    """The TEC, bound to one target site."""

    def __init__(self, site, config: Optional[FeamConfig] = None,
                 registry: Optional[DeterminantRegistry] = None) -> None:
        self.site = site
        self.config = config or FeamConfig()
        self.registry = registry if registry is not None else \
            default_registry()
        self.toolbox = site.toolbox()
        self.edc = EnvironmentDiscoveryComponent(self.toolbox)
        self._environment: Optional[EnvironmentDescription] = None

    # -- cached discovery ----------------------------------------------------------

    def environment(self) -> EnvironmentDescription:
        """The (cached) EDC description of this site."""
        if self._environment is None:
            self._environment = self.edc.discover()
        return self._environment

    def invalidate_environment(self) -> None:
        """Drop the cached discovery (the site's environment changed)."""
        self._environment = None

    def adopt_environment(self,
                          environment: EnvironmentDescription) -> None:
        """Seed the discovery cache with an externally obtained description.

        The evaluation engine uses this to share one discovery across
        evaluation-equivalent fleet sites (equal ``content_key``); the
        adopted description must be re-hosted to this site's hostname by
        the caller.
        """
        self._environment = environment

    # -- hello-world stack tests ------------------------------------------------------

    def _hello_dir(self) -> str:
        return posixpath.join(self.config.output_root, "hello")

    def assess_stack(self, stack: DiscoveredStack,
                     bundle: Optional[SourceBundle]) -> StackAssessment:
        """Functional tests for one candidate stack (Section V.C)."""
        with obs.span("tec.assess_stack", stack=stack.label) as sp:
            assessment = self._assess_stack(stack, bundle)
            sp.set_attrs(native_ok=assessment.native_hello_ok,
                         imported_ok=assessment.imported_hello_ok,
                         usable=assessment.usable)
        return assessment

    def _assess_stack(self, stack: DiscoveredStack,
                      bundle: Optional[SourceBundle]) -> StackAssessment:
        env = self.edc.env_for_stack(stack)
        native_ok: Optional[bool] = None
        imported_ok: Optional[bool] = None
        notes = []
        if stack.prefix is None:
            return StackAssessment(stack=stack, notes="no install prefix")
        try:
            hello = self.site.compile_with_wrapper(
                posixpath.join(stack.prefix, "bin", "mpicc"),
                f"feam-hello-{stack.label.replace('/', '-')}",
                Language.C)
        except (FsError, KeyError) as exc:
            hello = None
            notes.append(f"native compile failed: {exc}")
        if hello is not None:
            path = posixpath.join(
                self._hello_dir(), f"native-{stack.label.replace('/', '-')}")
            self.site.machine.fs.write(path, hello.image, mode=0o755)
            native_ok = False
            for attempt in range(2):  # absorb transient scheduler faults
                record = self.site.execute(
                    f"feam:hello-native:{stack.label}", hello.image,
                    self.site.stack_by_prefix(stack.prefix), env=env,
                    attempt=attempt, nprocs=self.config.hello_nprocs,
                    queue=self.config.parallel_queue,
                    launcher=self.config.mpiexec_for(stack.kind))
                if record.result.ok:
                    native_ok = True
                    break
            if not native_ok:
                notes.append(f"native hello failed: {record.result.failure}")
        if bundle is not None and bundle.hello is not None:
            image = bundle.hello.best()
            if image is not None:
                path = posixpath.join(
                    self._hello_dir(),
                    f"imported-{stack.label.replace('/', '-')}")
                self.site.machine.fs.write(path, image, mode=0o755)
                record = None
                for attempt in range(2):  # absorb transient faults
                    record = self.site.execute(
                        f"feam:hello-imported:{stack.label}", image,
                        self.site.stack_by_prefix(stack.prefix), env=env,
                        attempt=attempt, nprocs=self.config.hello_nprocs,
                        queue=self.config.parallel_queue,
                        launcher=self.config.mpiexec_for(stack.kind))
                    if record.result.ok:
                        break
                if record.result.ok:
                    imported_ok = True
                elif _loader_failure(record.result.failure.detail):
                    # The probe shares the binary's library needs; a
                    # loader failure here is resolvable, not a stack
                    # incompatibility.  Re-tested after resolution.
                    imported_ok = None
                    notes.append(
                        f"imported hello inconclusive: "
                        f"{record.result.failure}")
                else:
                    imported_ok = False
                    notes.append(
                        f"imported hello failed: {record.result.failure}")
        return StackAssessment(
            stack=stack, native_hello_ok=native_ok,
            imported_hello_ok=imported_ok, notes="; ".join(notes))

    def order_candidates(self, candidates: list[DiscoveredStack],
                         description: BinaryDescription,
                         ) -> list[DiscoveredStack]:
        """Prefer the binary's own compiler family, then stable order."""
        hint = _compiler_family_hint(description)
        return sorted(
            candidates,
            key=lambda s: (0 if s.compiler_family == hint else 1, s.label))

    # -- the evaluation --------------------------------------------------------------

    def evaluate(self, description: BinaryDescription,
                 binary_path: Optional[str] = None,
                 bundle: Optional[SourceBundle] = None,
                 staging_tag: str = "default") -> TargetReport:
        """Run the full prediction (and resolution) for one binary.

        Delegates the determinant logic to the registry's pipeline; this
        method only assembles the context, derives the verdict from the
        pipeline's results and writes the report.
        """
        mode = (PredictionMode.EXTENDED if bundle is not None
                else PredictionMode.BASIC)
        with obs.span("tec.evaluate", site=self.site.name,
                      binary=description.path, mode=mode.value,
                      tag=staging_tag) as sp:
            environment = self.environment()
            ctx = DeterminantContext(
                description=description,
                environment=environment,
                config=self.config,
                services=self,
                mode=mode,
                binary_path=binary_path,
                bundle=bundle,
                staging_tag=staging_tag,
            )
            ctx.feam_seconds = (
                self.config.feam_base_seconds
                + self.config.feam_seconds_per_dependency
                * len(description.needed))
            results = self.registry.run(ctx)
            ready = all(r.outcome is not Outcome.FAIL for r in results)
            sp.set_attrs(ready=ready, reasons=len(ctx.reasons))
            sp.add_sim_seconds(ctx.feam_seconds)
        prediction = Prediction(
            ready=ready, mode=mode, determinants=results,
            stack_assessments=tuple(ctx.assessments),
            selected_stack=ctx.selected,
            missing_libraries=tuple(ctx.missing),
            unsatisfied_versions=tuple(ctx.unsatisfied),
            requires_resolution=(
                bool(ctx.resolution and ctx.resolution.staged)
                and not ctx.retest_failed),
            reasons=tuple(ctx.reasons))
        return self._finish(prediction, environment, ctx.resolution,
                            ctx.env if ready else None, ctx.feam_seconds,
                            staging_tag, ctx.selected)

    def run_imported_hello(self, stack: DiscoveredStack,
                           bundle: SourceBundle, env: Environment,
                           staging_dir: str) -> tuple[Optional[bool], str]:
        """Run the guaranteed-environment hello under *env*.

        The probe's *own* missing libraries are first resolved from the
        bundle (the probe was built with the application's stack, so its
        requirements are a subset of the application's) -- otherwise a
        loader failure of the probe would mask the ABI signal the test
        exists to expose.  Returns (ok, failure detail); ok is None when
        the outcome remains a loader failure (inconclusive).
        """
        with obs.span("tec.hello_retest", stack=stack.label) as sp:
            ok, detail = self._run_imported_hello(
                stack, bundle, env, staging_dir)
            sp.set_attrs(ok=ok, detail=detail or "passed")
        return ok, detail

    def _run_imported_hello(self, stack: DiscoveredStack,
                            bundle: SourceBundle, env: Environment,
                            staging_dir: str) -> tuple[Optional[bool], str]:
        image = bundle.hello.best() if bundle.hello else None
        if image is None or stack.prefix is None:
            return None, "no imported hello available"
        hello_path = posixpath.join(
            self._hello_dir(), f"retest-{stack.label.replace('/', '-')}")
        self.site.machine.fs.write(hello_path, image, mode=0o755)
        probe_env = env.copy()
        try:
            ldd = self.toolbox.ldd(hello_path, probe_env)
            hello_missing = list(ldd.missing) if ldd.recognised else []
        except FsError:
            hello_missing = []
        if hello_missing:
            resolver = ResolutionModel(
                self.toolbox, self.environment(), self.config)
            plan = resolver.resolve(hello_missing, bundle, probe_env,
                                    posixpath.join(staging_dir, "hello"))
            for var, path in plan.env_additions:
                probe_env.prepend_path(var, path)
        last_detail = ""
        for attempt in range(2):
            record = self.site.execute(
                f"feam:hello-retest:{stack.label}", image,
                self.site.stack_by_prefix(stack.prefix), env=probe_env,
                attempt=attempt, nprocs=self.config.hello_nprocs,
                queue=self.config.parallel_queue,
                launcher=self.config.mpiexec_for(stack.kind))
            if record.result.ok:
                return True, ""
            last_detail = record.result.failure.detail
        if _loader_failure(last_detail):
            return None, last_detail
        return False, last_detail

    # -- reporting -----------------------------------------------------------------------

    def _finish(self, prediction: Prediction,
                environment: EnvironmentDescription,
                resolution: Optional[ResolutionPlan],
                run_env: Optional[Environment],
                feam_seconds: float, staging_tag: str,
                selected: Optional[DiscoveredStack] = None) -> TargetReport:
        from repro.core.report import render_target_report
        report = TargetReport(
            prediction=prediction,
            environment=environment,
            resolution=resolution,
            run_environment=run_env,
            selected_stack_prefix=(selected.prefix if selected else None),
            feam_seconds=feam_seconds)
        output_path = posixpath.join(
            self.config.output_root, f"prediction-{staging_tag}.txt")
        self.site.machine.fs.write_text(
            output_path, render_target_report(report))
        if resolution is not None:
            script_path = posixpath.join(
                self.config.output_root, f"activate-{staging_tag}.sh")
            self.site.machine.fs.write_text(
                script_path, resolution.activation_script(), mode=0o755)
        report.output_path = output_path
        return report
