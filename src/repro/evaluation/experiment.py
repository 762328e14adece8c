"""The full evaluation (paper Section VI.B methodology).

"We migrated each MPI application binary to all target sites where the
binary had not been compiled. ... we only report prediction results for
sites with matching MPI implementations.  Only at such sites is there
potential for successful execution."

For every (binary, matching target site) pair the experiment records:

* the **basic prediction** (target phase only, binary present);
* the **extended prediction** (source phase bundle + target phase,
  resolution applied);
* the **actual execution before resolution**: the site's matching-impl
  stack selected naively (same implementation, preferring the binary's own
  compiler), up to five spaced attempts;
* the **actual execution after resolution**: FEAM's selected stack and
  environment (with staged library copies) when available.

Prediction accuracy compares each prediction mode against the actual
outcome of the execution it describes (Table III); the success rates
before/after resolution reproduce Table IV.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Optional

from repro import obs
from repro.core.bundle import SourceBundle
from repro.core.config import FeamConfig
from repro.core.engine import CacheStats, publish_matrix_metrics
from repro.core.feam import Feam
from repro.corpus.builder import (
    CompiledBinary,
    Corpus,
    CorpusConfig,
    build_corpus,
)
from repro.corpus.benchmarks import Suite
from repro.sites.catalog import build_paper_sites
from repro.sites.site import Site
from repro.sysmodel.errors import ExecutionResult


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Everything the evaluation run needs."""

    seed: int = 20130101
    corpus: CorpusConfig = dataclasses.field(default_factory=CorpusConfig)
    feam: FeamConfig = dataclasses.field(default_factory=FeamConfig)
    execution_attempts: int = 5

    def __post_init__(self) -> None:
        if self.corpus.seed != self.seed:
            object.__setattr__(
                self, "corpus",
                dataclasses.replace(self.corpus, seed=self.seed))


@dataclasses.dataclass
class MigrationRecord:
    """One (binary, target site) migration with every measurement."""

    binary_id: str
    suite: Suite
    benchmark: str
    build_site: str
    build_stack: str
    target_site: str
    naive_stack: str
    basic_ready: bool
    extended_ready: bool
    actual_before_ok: bool
    actual_before_failure: Optional[str]
    actual_after_ok: bool
    actual_after_failure: Optional[str]
    feam_stack: Optional[str]
    resolution_staged: int = 0
    resolution_unresolved: int = 0
    basic_feam_seconds: float = 0.0
    extended_feam_seconds: float = 0.0
    #: Per-determinant outcomes (determinant value -> passed/None), kept
    #: for the determinant-ablation study.
    basic_determinants: dict = dataclasses.field(default_factory=dict)
    extended_determinants: dict = dataclasses.field(default_factory=dict)

    @property
    def basic_correct(self) -> bool:
        return self.basic_ready == self.actual_before_ok

    @property
    def extended_correct(self) -> bool:
        return self.extended_ready == self.actual_after_ok

    @property
    def resolution_helped(self) -> bool:
        return self.actual_after_ok and not self.actual_before_ok


@dataclasses.dataclass
class ExperimentResult:
    """The complete evaluation output."""

    records: list[MigrationRecord]
    corpus: Corpus
    sites: list[Site]
    #: Per build site: merged bundle size in bytes (the paper's ~45 MB
    #: site-wide bundle measurement).
    bundle_bytes_by_site: dict[str, int]
    #: Worst-case FEAM phase durations in seconds.
    max_source_phase_seconds: float
    max_target_phase_seconds: float
    config: ExperimentConfig
    #: Evaluation-engine cache counters for the whole run (description
    #: reuse across basic/extended cells, one discovery per site).
    cache_stats: Optional["CacheStats"] = None
    #: The observability collector that was installed during the run
    #: (``repro.obs.Collector``), or None when tracing was off.
    observability: Optional[object] = None

    def of_suite(self, suite: Suite) -> list[MigrationRecord]:
        return [r for r in self.records if r.suite is suite]


def _safe_tag(binary_id: str, mode: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", binary_id) + "-" + mode


def _naive_stack(target: Site, binary: CompiledBinary):
    """Matching-implementation stack selection without FEAM.

    Same implementation type, preferring the binary's own compiler family,
    then stable slug order -- the choice a careful user makes from the
    site's documentation alone.
    """
    candidates = target.stacks_of_kind(binary.stack_spec.kind)
    if not candidates:
        return None
    family = binary.stack_spec.compiler.family
    candidates = sorted(
        candidates,
        key=lambda s: (0 if s.spec.compiler.family is family else 1,
                       s.spec.slug))
    return candidates[0]


def _run_actual(target: Site, binary: CompiledBinary, stack, env,
                curse: float, attempts: int,
                label: str) -> ExecutionResult:
    return target.run_with_retries(
        f"exec:{label}:{binary.binary_id}", binary.image, stack, env=env,
        provenance=binary.provenance, curse_probability=curse,
        attempts=attempts, queue="normal")


def run_experiment(config: Optional[ExperimentConfig] = None,
                   sites: Optional[list[Site]] = None,
                   corpus: Optional[Corpus] = None,
                   progress: bool = False) -> ExperimentResult:
    """Run the full Section VI evaluation."""
    cfg = config or ExperimentConfig()
    if sites is None:
        sites = build_paper_sites(cfg.seed)
    if corpus is None:
        corpus = build_corpus(sites, cfg.corpus)
    sites_by_name = {s.name: s for s in sites}
    feam = Feam(cfg.feam)

    # Source phases: one per binary, at its build site.
    bundles: dict[str, SourceBundle] = {}
    source_seconds: dict[str, float] = {}
    merged_bundles: dict[str, Optional[SourceBundle]] = {}
    with obs.span("experiment.source_phases",
                  binaries=len(corpus.binaries)):
        for binary in corpus.binaries:
            build_site = sites_by_name[binary.build_site]
            stack = build_site.find_stack(binary.stack_slug)
            env = build_site.env_with_stack(stack)
            bundle = feam.run_source_phase(build_site, binary.path, env=env)
            bundles[binary.binary_id] = bundle
            source_seconds[binary.binary_id] = \
                30.0 + 2.0 * len(bundle.libraries)
            merged = merged_bundles.get(binary.build_site)
            merged_bundles[binary.build_site] = (
                bundle if merged is None else merged.merged_with(bundle))

    bundle_bytes_by_site = {
        site: merged.copy_bytes
        for site, merged in merged_bundles.items() if merged is not None}

    records: list[MigrationRecord] = []
    # The run's "cells": every basic and extended target evaluation.
    reports = []
    max_target_seconds = 0.0
    for index, binary in enumerate(corpus.binaries):
        bundle = bundles[binary.binary_id]
        for target in sites:
            if target.name == binary.build_site:
                continue
            naive = _naive_stack(target, binary)
            if naive is None:
                # No matching MPI implementation: excluded from the
                # reported results, like the paper's methodology.
                continue
            migrated_path = "/home/user/migrated/" + _safe_tag(
                binary.binary_id, "bin")
            target.machine.fs.write(migrated_path, binary.image, mode=0o755)

            with obs.span("experiment.migrate", binary=binary.binary_id,
                          target=target.name) as migrate_span:
                basic = feam.run_target_phase(
                    target, binary_path=migrated_path,
                    staging_tag=_safe_tag(binary.binary_id, "basic"))
                extended = feam.run_target_phase(
                    target, binary_path=migrated_path, bundle=bundle,
                    staging_tag=_safe_tag(binary.binary_id, "ext"))
                max_target_seconds = max(
                    max_target_seconds, basic.feam_seconds,
                    extended.feam_seconds)

                curse = cfg.corpus.curse_for(binary.suite)
                with obs.span("experiment.execute", phase="before"):
                    before = _run_actual(
                        target, binary, naive, target.env_with_stack(naive),
                        curse, cfg.execution_attempts, "before")

                # After resolution: FEAM's stack and environment when it
                # produced one; otherwise the naive run stands.
                after = before
                feam_stack_label = None
                if extended.selected_stack_prefix is not None:
                    feam_stack = target.stack_by_prefix(
                        extended.selected_stack_prefix)
                    feam_stack_label = feam_stack.spec.slug
                    env_after = extended.run_environment
                    if env_after is None:
                        env_after = target.env_with_stack(feam_stack)
                        if extended.resolution is not None:
                            for var, path in \
                                    extended.resolution.env_additions:
                                env_after.prepend_path(var, path)
                    changed = (feam_stack.spec.slug != naive.spec.slug
                               or (extended.resolution is not None
                                   and bool(extended.resolution.staged)))
                    if changed:
                        with obs.span("experiment.execute", phase="after"):
                            after = _run_actual(
                                target, binary, feam_stack, env_after,
                                curse, cfg.execution_attempts, "after")

                reports.extend((basic, extended))
                migrate_span.set_attrs(
                    basic_ready=basic.ready, extended_ready=extended.ready,
                    before_ok=before.ok, after_ok=after.ok)
                migrate_span.add_sim_seconds(
                    basic.feam_seconds + extended.feam_seconds)
                obs.counter("experiment.migrations").inc()

            resolution = extended.resolution
            records.append(MigrationRecord(
                binary_id=binary.binary_id,
                suite=binary.suite,
                benchmark=binary.benchmark.qualified_name,
                build_site=binary.build_site,
                build_stack=binary.stack_slug,
                target_site=target.name,
                naive_stack=naive.spec.slug,
                basic_ready=basic.ready,
                extended_ready=extended.ready,
                actual_before_ok=before.ok,
                actual_before_failure=(
                    before.failure.kind.value if before.failure else None),
                actual_after_ok=after.ok,
                actual_after_failure=(
                    after.failure.kind.value if after.failure else None),
                feam_stack=feam_stack_label,
                resolution_staged=(
                    len(resolution.staged) if resolution else 0),
                resolution_unresolved=(
                    len(resolution.unresolved) if resolution else 0),
                basic_feam_seconds=basic.feam_seconds,
                extended_feam_seconds=extended.feam_seconds,
                basic_determinants={
                    d.key: d.passed
                    for d in basic.prediction.determinants},
                extended_determinants={
                    d.key: d.passed
                    for d in extended.prediction.determinants},
            ))
        if progress and (index + 1) % 25 == 0:
            print(f"  migrated {index + 1}/{len(corpus.binaries)} binaries")

    stats = feam.engine.stats
    publish_matrix_metrics(reports, stats)
    return ExperimentResult(
        records=records,
        corpus=corpus,
        sites=sites,
        bundle_bytes_by_site=bundle_bytes_by_site,
        max_source_phase_seconds=max(source_seconds.values(), default=0.0),
        max_target_phase_seconds=max_target_seconds,
        config=cfg,
        cache_stats=stats,
        observability=obs.current() if obs.is_active() else None,
    )
