"""The batch evaluation engine: content-addressed, cached, serial.

The paper evaluates one (binary, site) pair at a time; a production
deployment evaluates a *matrix* -- many binaries against many sites,
continuously (CODE-RADE-style cross-site validation).  The engine makes
that cheap:

* **Content addressing.**  Binary descriptions are keyed by the SHA-256
  of the ELF image (``repro.util.hashing.content_digest``); site
  environments by a fingerprint digest over the discovered description
  (``stable_digest``).  Identical bytes are never described twice,
  identical environments never re-discovered.
* **Memoisation.**  Three cache layers -- description per binary,
  discovery per site, full evaluation per (site fingerprint, binary,
  bundle, staging tag) cell -- each a plain dict with hit/miss counters
  (:class:`CacheStats`), surfaced per cell via
  :class:`~repro.core.evaluation.CellCacheInfo` in the report.
* **Content-group sharing.**  Generated fleet sites carry a
  ``content_key`` (:func:`repro.sites.generator.content_key`) naming
  their evaluation-equivalence class.  The engine discovers one member
  of each class and adopts the re-hosted description for the rest, and
  evaluation cells are cached per (content key, binary) rather than per
  site -- the literal reading of "identical environments never
  re-discovered" at fleet scale.  Hand-built sites have no content key
  and keep the fully per-site path.
* **Serial by design.**  :meth:`EvaluationEngine.evaluate_matrix`
  groups cells into per-site (per content-group, for fleets) work units
  and runs them one after another on the calling thread.  The
  evaluation is pure Python under the GIL: a thread pool never beat
  the serial loop by a margin worth its locks, and it made the order in
  which cells reach the wide-event stream and the persistent store
  vary from run to run.

Invalidation: :meth:`EvaluationEngine.refresh_site` re-discovers a site
and, when the environment fingerprint changed, drops that site's cached
discovery and evaluation cells (descriptions are content-addressed and
stay valid).

Resilience (:mod:`repro.core.resilience`): discovery, description and
cell evaluation run under a retry policy; a per-site circuit breaker
quarantines sites whose cells keep failing; anything that still escapes
degrades the cell to an UNKNOWN report carrying
:class:`~repro.core.resilience.FailureProvenance` instead of aborting
the matrix.

Resume: the persistent store (:mod:`repro.core.persist`) is the only
per-cell resume state.  A killed run resumes by rerunning it against
the same store; every stored cell is served from disk and only the
rest are evaluated.
"""

from __future__ import annotations

import contextlib
import dataclasses
import posixpath
import time
from typing import Optional, Sequence

from repro import obs
from repro.core.bundle import SourceBundle
from repro.core.config import FeamConfig
from repro.core.description import (
    BinaryDescription,
    BinaryDescriptionComponent,
)
from repro.core.discovery import EnvironmentDescription
from repro.core.evaluation import (
    CellCacheInfo,
    TargetEvaluationComponent,
    TargetReport,
)
from repro.core import persist as persist_mod
from repro.core.prediction import (
    Determinant,
    DeterminantResult,
    Outcome,
    Prediction,
    PredictionMode,
)
from repro.core.resilience import (
    BreakerState,
    CircuitBreaker,
    FailureProvenance,
    RetryPolicy,
    provenance_from,
    with_retries,
)
from repro.obs import ledger as ledger_mod
from repro.obs import wide as wide_mod
from repro.sysmodel import faults
from repro.sysmodel.fs import FsError
from repro.toolchain.compilers import Language
from repro.util.hashing import content_digest, stable_digest

#: Where the engine stages binaries it migrates to a site itself.
_MIGRATION_ROOT = "/home/user/migrated"

#: The engine's three cache layers, in reporting order.
_LAYERS = ("description", "discovery", "evaluation")

#: (layer, hit) -> (:class:`CacheStats` field, live counter name).
_COUNT_NAMES = {
    (layer, hit): (f"{layer}_{word}", f"engine.cache.{layer}.{word}")
    for layer in _LAYERS
    for hit, word in ((True, "hits"), (False, "misses"))}


def _stage(fs, path: str, image: bytes) -> None:
    """Put *image* at *path* on *fs* unless exactly it is there already.

    Compared through the node, so an armed fault hook sees no read it
    would not see without the check."""
    try:
        _real, node = fs.resolve(path)
        if node.content is image or node.read() == image:
            return
    except FsError:
        pass
    fs.write(path, image, mode=0o755)


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for the engine's three cache layers."""

    description_hits: int = 0
    description_misses: int = 0
    discovery_hits: int = 0
    discovery_misses: int = 0
    evaluation_hits: int = 0
    evaluation_misses: int = 0

    def snapshot(self) -> "CacheStats":
        return dataclasses.replace(self)

    @property
    def hit_rate(self) -> Optional[float]:
        """Hits over lookups across all three layers; None before any."""
        hits = (self.description_hits + self.discovery_hits
                + self.evaluation_hits)
        lookups = hits + (self.description_misses + self.discovery_misses
                          + self.evaluation_misses)
        return hits / lookups if lookups else None

    def render(self) -> str:
        return (f"description {self.description_hits}/"
                f"{self.description_hits + self.description_misses} hit, "
                f"discovery {self.discovery_hits}/"
                f"{self.discovery_hits + self.discovery_misses} hit, "
                f"evaluation {self.evaluation_hits}/"
                f"{self.evaluation_hits + self.evaluation_misses} hit")


@dataclasses.dataclass(frozen=True)
class EngineBinary:
    """One binary submitted to the batch engine."""

    binary_id: str
    image: bytes
    bundle: Optional[SourceBundle] = None


def compile_test_binaries(sites: Sequence, count: int,
                          feam=None) -> list[EngineBinary]:
    """The live runs' test binaries: *count* MPI programs, round-robin.

    Binary *i* is a FORTRAN program compiled at site ``i mod k`` of the
    first ``k = min(len(sites), count)`` sites (on a fleet, the first
    few generated sites) with that site's stack ``i mod len(stacks)``,
    and is named ``app-<site>-<stack>-<i>``.  At least one is built.
    With *feam* (a :class:`~repro.core.feam.Feam`), each binary is also
    staged at its build site and run through the source phase, and
    carries that bundle for extended-mode cells.
    """
    count = max(1, count)
    pool = sites[:min(len(sites), count)]
    binaries = []
    for index in range(count):
        site = pool[index % len(pool)]
        stack = site.stacks[index % len(site.stacks)]
        name = f"app-{site.name}-{stack.spec.slug}-{index}"
        linked = site.compile_mpi_program(name, Language.FORTRAN, stack)
        bundle = None
        if feam is not None:
            path = f"/home/user/{name}"
            site.machine.fs.write(path, linked.image, mode=0o755)
            bundle = feam.run_source_phase(
                site, path, env=site.env_with_stack(stack))
        binaries.append(EngineBinary(binary_id=name, image=linked.image,
                                     bundle=bundle))
    return binaries


@contextlib.contextmanager
def injecting_faults(plan: faults.FaultPlan, sites: Sequence):
    """Run the block under *plan*, armed on every site's filesystem.

    Arm only once the test binaries are compiled and their source
    phases have run, so the faults land on the evaluation alone.
    """
    plan.arm(sites)
    try:
        with faults.injecting(plan):
            yield plan
    finally:
        plan.disarm(sites)


def _unknown_environment(hostname: str) -> EnvironmentDescription:
    """Placeholder description for a site whose discovery never finished."""
    return EnvironmentDescription(
        hostname=hostname, isa="unknown", os_type="unknown",
        os_version=None, distro=None, libc_version=None, libc_path=None,
        libc_via=None, stacks=(), env_tool=None)


def wide_record(cell: "MatrixCell", *,
                content_group: Optional[str] = None) -> dict:
    """One cell flattened into a wide event (:mod:`repro.obs.wide`).

    This is the engine half of the wide-event layer: ``repro.obs`` is a
    strictly lower layer and cannot know what a matrix cell is, so the
    flattening lives here.  Wide events carry wall-clock facts -- they
    are telemetry, not resume state, and are never replayed into cells.
    """
    report = cell.report
    failure = report.failure
    record = {
        "schema": wide_mod.SCHEMA_VERSION,
        "site": cell.site_name,
        "binary": cell.binary_id,
        "content_group": content_group,
        "outcome": cell.outcome_word,
        "ready": report.ready,
        "faulted": cell.faulted,
        "sim_seconds": round(report.feam_seconds, 6),
        "wall_seconds": (round(cell.wall_seconds, 6)
                         if cell.wall_seconds is not None else None),
        "description_hit": report.cache.description_hit,
        "discovery_hit": report.cache.discovery_hit,
        "evaluation_hit": report.cache.evaluation_hit,
        "cache_tier": (report.cache.tier
                       if report.cache is not None else None),
        "attempts": failure.attempts if failure is not None else 1,
        "retry_seconds": (round(failure.retry_seconds, 6)
                          if failure is not None else 0.0),
        "fault_kind": failure.kind if failure is not None else None,
        "breaker_state": (failure.breaker_state if failure is not None
                          else BreakerState.CLOSED.value),
    }
    for result in report.prediction.determinants:
        record[f"det_{result.key}"] = result.outcome.value
    return record


def anomaly_features(record: dict) -> dict:
    """One wide event as numeric anomaly-detector features.

    The engine half of the anomaly layer (``repro.obs.anomaly`` takes
    an injected extractor because it cannot know the wide-event
    vocabulary): per-determinant blocked indicators (averaging to the
    group's ``det_*`` verdict rates), the simulated cell latency, the
    cache hit rate across all three layers, and fault/retry pressure.
    Wall-clock fields are deliberately excluded -- anomaly streams
    feed the alert engine, whose timeline must stay byte-identical
    across same-seed runs.
    """
    hits = [record.get(field) for field in
            ("description_hit", "discovery_hit", "evaluation_hit")]
    known = [hit for hit in hits if hit is not None]
    features = {
        "sim_seconds": float(record.get("sim_seconds") or 0.0),
        "retry_seconds": float(record.get("retry_seconds") or 0.0),
        "fault_rate": 1.0 if record.get("fault_kind") else 0.0,
        "unknown_rate": (1.0 if record.get("outcome") == "unknown"
                         else 0.0),
    }
    if known:
        features["cache_hit_rate"] = (
            sum(1.0 for hit in known if hit) / len(known))
    for key, value in record.items():
        if key.startswith("det_"):
            features[f"{key}_block_rate"] = \
                0.0 if value == "pass" else 1.0
    return features


#: Metrics snapshot histograms distilled into the manifest's per-phase
#: latency digests (manifest phase name -> histogram instrument).
_PHASE_HISTOGRAMS = {
    "discover": "engine.discover.seconds",
    "describe": "engine.describe.seconds",
    "cell.wall": "engine.cell.wall_seconds",
    "cell.sim": "engine.cell.sim_seconds",
    "worker": "engine.site.worker_seconds",
}

#: Above this many cells the manifest stops carrying the per-cell
#: outcome map (``feam compare`` then falls back to count deltas) --
#: a 100k-cell fleet run must not write a 100k-entry manifest line.
CELL_OUTCOME_CAP = 1024


def run_rollup(result: "MatrixResult",
               snapshot: Optional[dict] = None) -> dict:
    """Distil one finished matrix into the ledger manifest's results.

    The engine half of the run-ledger layer (``repro.obs`` cannot know
    what a matrix cell is, mirroring :func:`wide_record`): cells,
    outcome/cache/retry counts, per-determinant implicated-cell
    latency digests, and per-phase latency digests pulled from a
    ``MetricsRegistry.to_dict`` *snapshot*.
    Returns ``{"rollup": ..., "phases": ...}`` ready to merge into a
    :class:`repro.obs.ledger.RunLedger` manifest.
    """
    cells = result.cells
    outcomes: dict[str, int] = {}
    for cell in cells:
        word = cell.outcome_word
        outcomes[word] = outcomes.get(word, 0) + 1

    # Per-determinant rollup: outcome counts over every cell the
    # determinant ran in, latency digests over the cells it was
    # *implicated* in (did not pass) -- that is where an injected
    # slowdown shows up as a row, not spread over the whole matrix.
    det_outcomes: dict[str, dict[str, int]] = {}
    det_sim: dict[str, list[float]] = {}
    det_wall: dict[str, list[float]] = {}
    for cell in cells:
        for det in cell.report.prediction.determinants:
            counts = det_outcomes.setdefault(det.key, {})
            word = det.outcome.value
            counts[word] = counts.get(word, 0) + 1
            if word != "pass":
                det_sim.setdefault(det.key, []).append(
                    cell.report.feam_seconds)
                if cell.wall_seconds is not None:
                    det_wall.setdefault(det.key, []).append(
                        cell.wall_seconds)
    determinants = {
        key: {"outcomes": counts,
              "sim": ledger_mod.latency_digest(det_sim.get(key, ())),
              "wall": ledger_mod.latency_digest(det_wall.get(key, ()))}
        for key, counts in sorted(det_outcomes.items())}

    counters = (snapshot or {}).get("counters", {})
    histograms = (snapshot or {}).get("histograms", {})
    cache = dataclasses.asdict(result.stats)
    hit_rate = result.stats.hit_rate
    cache["hit_rate"] = round(hit_rate, 6) if hit_rate is not None else None
    # Persistent-tier provenance: lets `feam compare` / `feam drift`
    # attribute a latency regression to a cold or poisoned disk cache.
    cache["disk_hits"] = counters.get("persist.cache.disk_hits", 0)
    cache["quarantined"] = counters.get("persist.cache.quarantined", 0)
    rollup = {
        "cells": len(cells),
        "outcomes": outcomes,
        "faulted": sum(1 for cell in cells if cell.faulted),
        "quarantined": len(result.quarantined),
        "retries": counters.get("resilience.retries.total", 0),
        "faults_injected": counters.get("resilience.faults.injected", 0),
        "cache": cache,
        "determinants": determinants,
        "sim": ledger_mod.latency_digest(
            [cell.report.feam_seconds for cell in cells]),
        "wall": ledger_mod.latency_digest(
            [cell.wall_seconds for cell in cells
             if cell.wall_seconds is not None]),
    }
    if len(cells) <= CELL_OUTCOME_CAP:
        rollup["cell_outcomes"] = {
            f"{cell.binary_id}@{cell.site_name}": cell.outcome_word
            for cell in cells}
    phases = {name: dict(histograms[instrument])
              for name, instrument in _PHASE_HISTOGRAMS.items()
              if instrument in histograms}
    return {"rollup": rollup, "phases": phases}


def publish_matrix_metrics(reports: Sequence[TargetReport],
                           stats: CacheStats) -> None:
    """Publish a run's matrix-level gauges (SLO rules, ``/metrics``).

    The one publisher for :meth:`EvaluationEngine.evaluate_matrix` (its
    cells' reports) and ``run_experiment`` (its basic and extended
    evaluations): the cell total, the ready/unknown/faulted percentages
    by :attr:`TargetReport.outcome_word`, and the all-layer and
    per-layer hit rates of *stats*.  No-ops with no collector installed.
    """
    total = len(reports)
    obs.gauge("matrix.cells.total").set(total)
    if total:
        words = [report.outcome_word for report in reports]
        faulted = sum(1 for report in reports if report.faulted)
        obs.gauge("matrix.ready_cells.pct").set(
            100.0 * words.count("ready") / total)
        obs.gauge("matrix.unknown_cells.pct").set(
            100.0 * words.count("unknown") / total)
        obs.gauge("matrix.faulted_cells.pct").set(100.0 * faulted / total)
    if stats.hit_rate is not None:
        obs.gauge("engine.cache.hit_rate").set(stats.hit_rate)
    for layer in _LAYERS:
        hits = getattr(stats, f"{layer}_hits")
        lookups = hits + getattr(stats, f"{layer}_misses")
        if lookups:
            obs.gauge(f"engine.cache.{layer}.hit_rate").set(hits / lookups)


@dataclasses.dataclass(frozen=True)
class MatrixCell:
    """One evaluated (binary, site) pair."""

    binary_id: str
    site_name: str
    report: TargetReport
    #: Wall seconds the matrix spent evaluating the cell; None for a
    #: cell filled in after its site's loop died.  Telemetry only.
    wall_seconds: Optional[float] = dataclasses.field(
        default=None, compare=False)

    @property
    def ready(self) -> bool:
        return self.report.ready

    @property
    def faulted(self) -> bool:
        """True when the cell degraded to UNKNOWN instead of evaluating."""
        return self.report.faulted

    @property
    def outcome_word(self) -> str:
        """Grid cell word (:attr:`TargetReport.outcome_word`)."""
        return self.report.outcome_word


@dataclasses.dataclass
class MatrixResult:
    """The full matrix evaluation with the engine's cache statistics."""

    cells: list[MatrixCell]
    stats: CacheStats
    #: Sites whose circuit breaker was not closed when the matrix ended.
    quarantined: tuple[str, ...] = ()

    def cell(self, binary_id: str, site_name: str) -> Optional[MatrixCell]:
        for cell in self.cells:
            if cell.binary_id == binary_id and cell.site_name == site_name:
                return cell
        return None

    def render(self, verbose: bool = False) -> str:
        """A readiness grid (binaries x sites) plus cache statistics.

        With *verbose*, each cell additionally gets one line with its
        engine cache provenance (which layers hit) and, for non-ready
        cells, the failed/unknown determinants.
        """
        binaries = list(dict.fromkeys(c.binary_id for c in self.cells))
        sites = list(dict.fromkeys(c.site_name for c in self.cells))
        by_key = {(c.binary_id, c.site_name): c for c in self.cells}
        id_width = max([len(b) for b in binaries] + [6])
        lines = ["READINESS MATRIX (rows: binaries, columns: sites)", ""]
        header = " " * id_width
        for site in sites:
            header += f"  {site[:12]:>12}"
        lines.append(header)
        for binary_id in binaries:
            row = f"{binary_id:<{id_width}}"
            for site in sites:
                cell = by_key.get((binary_id, site))
                word = "-" if cell is None else cell.outcome_word
                row += f"  {word:>12}"
            lines.append(row)
        lines.append("")
        lines.append("legend: ready = all determinants pass | "
                     "unknown = undetermined (optimistic verdict) | "
                     "no = determined incompatibility")
        faulted = sum(1 for c in self.cells if c.faulted)
        if faulted:
            lines.append(f"faults: {faulted} cell(s) degraded to unknown "
                         "by failures (see verbose provenance)")
        if self.quarantined:
            lines.append("quarantined sites (circuit breaker open): "
                         + ", ".join(self.quarantined))
        lines.append(f"cache: {self.stats.render()}")
        if verbose:
            lines.append("")
            lines.append("cells:")
            for cell in self.cells:
                cache = (cell.report.cache.render()
                         if cell.report.cache is not None else "uncached")
                line = (f"  {cell.binary_id} @ {cell.site_name}: "
                        f"{cell.outcome_word} [{cache}]")
                undecided = [
                    f"{r.key}={r.outcome.value}"
                    for r in cell.report.prediction.determinants
                    if r.outcome is not Outcome.PASS]
                if undecided:
                    line += " determinants: " + ", ".join(undecided)
                lines.append(line)
                if cell.report.failure is not None:
                    lines.append("    fault: "
                                 + cell.report.failure.render())
        return "\n".join(lines) + "\n"


def bundle_digest(bundle: SourceBundle) -> str:
    """A content digest identifying a source-phase bundle.

    Derived from the described binary, the gathered library records and
    the hello probes -- everything that can change a target phase's
    outcome.
    """
    parts: list = [
        bundle.description.path,
        bundle.description.isa_name,
        bundle.description.bits,
        bundle.description.required_glibc,
        bundle.description.mpi_implementation,
        ",".join(bundle.description.needed),
        bundle.created_at,
    ]
    for record in bundle.libraries:
        parts.extend((record.soname, record.located_path,
                      record.copy_size, record.copied))
    if bundle.hello is not None:
        for language in sorted(bundle.hello.images):
            parts.append(language)
            parts.append(content_digest(bundle.hello.images[language]))
    return stable_digest(*parts)


def environment_fingerprint(environment) -> str:
    """The content-address of a discovered site environment.

    Covers every discovery output a determinant reads; when any of it
    changes, cached evaluations against the old fingerprint are invalid.
    """
    parts: list = [
        environment.hostname, environment.isa, environment.os_type,
        environment.os_version, environment.distro,
        environment.libc_version, environment.libc_path,
        environment.env_tool, ",".join(environment.loaded_stacks),
    ]
    for stack in environment.stacks:
        parts.extend((stack.label, stack.kind, stack.version,
                      stack.compiler_family, stack.compiler_version,
                      stack.prefix, stack.via))
    return stable_digest(*parts)


class EvaluationEngine:
    """Cached, batched execution-readiness evaluation across sites.

    One engine owns one TEC per site (discovery runs once per site), a
    content-addressed description cache shared across sites, and a
    per-cell evaluation cache.  The caches are plain dicts: an engine
    is driven from one thread at a time.

    A cache hit is counted at lookup; a miss only once the value has
    been computed and stored, so a cell that degrades never inflates
    the miss counters.  *max_workers* remains for existing callers and
    must be None or 1.
    """

    def __init__(self, config: Optional[FeamConfig] = None,
                 max_workers: Optional[int] = None,
                 persist: Optional[persist_mod.PersistentStore] = None,
                 ) -> None:
        if max_workers not in (None, 1):
            raise ValueError(
                f"max_workers={max_workers!r}: the engine evaluates "
                "serially; pass None or 1")
        self.config = config or FeamConfig()
        #: Binds this engine's persisted evaluations to its config.
        self.config_fingerprint = persist_mod.config_fingerprint(
            self.config)
        self.retry = RetryPolicy()
        #: Optional on-disk tier under the in-memory caches; a disk hit
        #: back-fills the dict and counts as a hit, a clean fresh
        #: computation writes behind.
        self.persist = persist
        self._stats = CacheStats()
        self._tecs: dict[str, TargetEvaluationComponent] = {}
        self._fingerprints: dict[str, str] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        #: (image digest, described path) -> description
        self._descriptions: dict[tuple, BinaryDescription] = {}
        #: id(image) -> (image, content digest).  Holding the image
        #: keeps its id from being reused while the entry lives.
        self._digests: dict[int, tuple[bytes, str]] = {}
        #: cell key -> report
        self._reports: dict[tuple, TargetReport] = {}
        #: content key -> shared environment description (fleet sites)
        self._content_environments: dict[str, EnvironmentDescription] = {}

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the hit/miss counters of all three layers."""
        return self._stats.snapshot()

    def _count(self, layer: str, hit: bool) -> None:
        """Book one *layer* lookup in :class:`CacheStats` and on the live
        ``engine.cache.<layer>.hits``/``misses`` counter."""
        field, name = _COUNT_NAMES[layer, hit]
        setattr(self._stats, field, getattr(self._stats, field) + 1)
        obs.counter(name).inc()

    def close(self) -> None:
        """Flush the persistent tier (compacting if over cap), if any.

        The in-memory caches need no teardown; calling this is only
        required when the engine was built with a store."""
        if self.persist is not None:
            self.persist.close()

    # -- per-site services ---------------------------------------------------------

    def tec_for(self, site) -> TargetEvaluationComponent:
        """The (cached) TEC for a site."""
        tec = self._tecs.get(site.name)
        if tec is None:
            tec = self._tecs[site.name] = TargetEvaluationComponent(
                site, self.config)
        return tec

    def breaker_for(self, site_name: str) -> CircuitBreaker:
        """The (cached) per-site circuit breaker."""
        breaker = self._breakers.get(site_name)
        if breaker is None:
            breaker = self._breakers[site_name] = CircuitBreaker(site_name)
        return breaker

    def site_health(self) -> dict[str, str]:
        """Breaker state per site the engine has touched."""
        return {name: breaker.state.value
                for name, breaker in sorted(self._breakers.items())}

    def _discovery_store_key(self, site, content) -> str:
        """The site's discovery key in the persistent store.

        Content-group sites are content-addressed (any run that builds
        the same equivalence class reuses the record); hand-built
        sites are scoped by the store's scope digest (seed + spec), so
        worlds built from different seeds never share discoveries.
        """
        if content is not None:
            return persist_mod.discovery_key("content", content)
        return persist_mod.discovery_key(self.persist.scope, site.name)

    def _discover(self, site) -> tuple[object, bool, float]:
        """(environment, was it a cache hit, simulated retry seconds)."""
        tec = self.tec_for(site)
        hit = tec._environment is not None
        content = getattr(site, "content_key", None)
        if not hit and content is not None:
            # Content-group sharing: another member of this site's
            # evaluation-equivalence class already discovered; adopt its
            # description, re-homed to this hostname.
            shared = self._content_environments.get(content)
            if shared is not None:
                tec.adopt_environment(dataclasses.replace(
                    shared, hostname=site.name))
                hit = True
        disk_hit = False
        if not hit and self.persist is not None:
            stored = self.persist.load(
                "discovery", self._discovery_store_key(site, content))
            if stored is not None:
                environment = EnvironmentDescription.from_dict(
                    stored["environment"])
                tec.adopt_environment(dataclasses.replace(
                    environment, hostname=site.name))
                if content is not None:
                    self._content_environments[content] = environment
                hit = disk_hit = True
        retry_seconds = 0.0
        with obs.span("engine.discover", site=site.name, hit=hit):
            started = time.perf_counter()
            if hit:
                environment = tec.environment()
            else:
                environment, _attempts, retry_seconds = with_retries(
                    self.retry, f"discover:{site.name}",
                    tec.environment, operation="discover", site=site.name)
                if content is not None:
                    self._content_environments[content] = environment
                if self.persist is not None:
                    # Write-behind: the environment itself is
                    # deterministic even when discovery needed retries.
                    self.persist.store(
                        "discovery",
                        self._discovery_store_key(site, content),
                        {"environment": environment.to_dict()})
            obs.histogram("engine.discover.seconds").observe(
                time.perf_counter() - started)
        self._count("discovery", hit)
        if disk_hit:
            obs.counter("engine.cache.discovery.disk_hits").inc()
        if site.name not in self._fingerprints:
            self._fingerprints[site.name] = environment_fingerprint(
                environment)
        return environment, hit, retry_seconds

    def fingerprint_for(self, site) -> str:
        """The content-address of the site's (cached) environment."""
        self._discover(site)
        return self._fingerprints[site.name]

    def refresh_site(self, site) -> bool:
        """Re-discover a site; drop its caches if the fingerprint changed.

        Returns True when the environment changed.  Descriptions are
        content-addressed and survive; the site's evaluation cells do not.
        A generated site that diverges from its content group loses its
        ``content_key`` and falls back to the fully per-site path.
        """
        old = self._fingerprints.get(site.name)
        tec = self.tec_for(site)
        tec.invalidate_environment()
        self._count("discovery", False)
        environment = tec.environment()
        new = environment_fingerprint(environment)
        self._fingerprints[site.name] = new
        changed = old is not None and old != new
        if changed:
            doomed = [key for key in self._reports if key[0] == site.name]
            for key in doomed:
                del self._reports[key]
            dropped = len(doomed)
            if getattr(site, "content_key", None) is not None:
                site.content_key = None
            obs.event("engine.site_invalidated", site=site.name,
                      dropped_cells=dropped, old=old, new=new)
            obs.counter("engine.invalidations").inc()
        if self.persist is not None:
            # Supersede the stored discovery (newest record wins); stale
            # evaluation records die by fingerprint binding, not here.
            self.persist.store(
                "discovery",
                self._discovery_store_key(
                    site, getattr(site, "content_key", None)),
                {"environment": environment.to_dict()})
        return changed

    # -- description cache -----------------------------------------------------------

    def describe(self, site, binary_path: str,
                 digest: Optional[str] = None,
                 ) -> tuple[BinaryDescription, bool]:
        """Describe the binary at *binary_path*, content-addressed.

        Returns (description, was it a cache hit).  The cache key is the
        image's content digest (*digest*, when the caller has already
        taken it) plus the described path, so a cached description's
        ``path`` field is always accurate; identical bytes at the same
        path -- the batch-matrix case -- are described once, at whichever
        site gets there first.
        """
        if digest is None:
            digest = content_digest(site.machine.fs.read(binary_path))
        key = (digest, binary_path)
        cached = self._descriptions.get(key)
        if cached is not None:
            self._count("description", True)
            return cached, True
        with obs.span("engine.describe", site=site.name, path=binary_path,
                      hit=False):
            started = time.perf_counter()
            bdc = BinaryDescriptionComponent(site.toolbox())
            description, _attempts, _slept = with_retries(
                self.retry, f"describe:{site.name}:{binary_path}",
                lambda: bdc.describe(binary_path),
                operation="describe", site=site.name)
            obs.histogram("engine.describe.seconds").observe(
                time.perf_counter() - started)
        self._descriptions[key] = description
        self._count("description", False)
        return description, False

    # -- cell evaluation ---------------------------------------------------------------

    def evaluate_cell(self, site, binary_path: Optional[str] = None,
                      image: Optional[bytes] = None,
                      binary_id: Optional[str] = None,
                      bundle: Optional[SourceBundle] = None,
                      staging_tag: Optional[str] = None) -> TargetReport:
        """Evaluate one (binary, site) cell through every cache layer.

        The binary may be given as a path already present at the site, as
        raw *image* bytes, or implicitly via the *bundle* (both-phases
        mode, binary not at the target).  Image bytes are staged at
        ``/home/user/migrated/<binary_id>`` (the first 16 hex digits of
        their digest without a *binary_id*); a file already there is
        rewritten unless it holds exactly these bytes, so a binary id
        reused for another image never evaluates the old one.  The
        *staging_tag* defaults to the file name of the binary or of the
        bundle's described binary.

        Each image object is hashed once per engine: the engine keeps
        every image it hashed with its digest, as its description cache
        keeps every binary's description.
        """
        if binary_path is None and image is None and bundle is None:
            raise ValueError(
                "evaluate_cell needs a binary path, image bytes, or a "
                "source bundle")
        label = (binary_id or binary_path
                 or (bundle.description.path if bundle is not None else "?"))
        breaker = self.breaker_for(site.name)
        if not breaker.allow():
            provenance = FailureProvenance(
                kind="breaker-open",
                detail=f"site {site.name} is quarantined by its circuit "
                       "breaker", site=site.name, operation="quarantine",
                attempts=0, breaker_state=breaker.state.value)
            obs.event("resilience.cell_quarantined", site=site.name,
                      binary=label)
            return self.degraded_report(site, provenance)
        with obs.span("engine.cell", binary=label,
                      site=site.name) as cell_span:
            started = time.perf_counter()
            try:
                report = self._evaluate_cell(
                    site, binary_path, image, binary_id, bundle,
                    staging_tag)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                # Degrade, never abort: the cell becomes UNKNOWN with
                # full failure provenance, and the breaker learns.
                breaker.record_failure()
                provenance = provenance_from(
                    exc, site=site.name,
                    breaker_state=breaker.state.value)
                obs.counter("resilience.cells.faulted").inc()
                obs.event("resilience.cell_degraded", site=site.name,
                          binary=label, kind=provenance.kind,
                          attempts=provenance.attempts,
                          breaker=provenance.breaker_state)
                report = self.degraded_report(site, provenance)
            else:
                breaker.record_success()
            cell_span.set_attrs(
                ready=report.ready,
                evaluation_hit=(report.cache.evaluation_hit
                                if report.cache else False),
                faulted=report.failure is not None)
            cell_span.add_sim_seconds(report.feam_seconds)
            obs.histogram("engine.cell.wall_seconds").observe(
                time.perf_counter() - started)
            obs.histogram("engine.cell.sim_seconds").observe(
                report.feam_seconds)
        return report

    def degraded_report(self, site, provenance: FailureProvenance,
                        ) -> TargetReport:
        """An UNKNOWN report for a cell that could not be evaluated.

        Optimistic by the paper's semantics: nothing was *determined*
        incompatible, so ``ready`` stays True while all four
        determinants read UNKNOWN (the grid renders ``unknown``).  The
        provenance rides along in ``report.failure``."""
        tec = self._tecs.get(site.name)
        environment = tec._environment if tec is not None else None
        if environment is None:
            environment = _unknown_environment(site.name)
        determinants = tuple(
            DeterminantResult(d, Outcome.UNKNOWN,
                              f"not evaluated: {provenance.kind}")
            for d in Determinant)
        return TargetReport(
            prediction=Prediction(
                ready=True, mode=PredictionMode.BASIC,
                determinants=determinants,
                reasons=(provenance.render(),)),
            environment=environment,
            feam_seconds=(self.config.feam_base_seconds
                          + provenance.retry_seconds),
            cache=CellCacheInfo(),
            failure=provenance)

    def _digest(self, image: bytes) -> str:
        """The content digest of *image*, hashed once per image object."""
        held = self._digests.get(id(image))
        if held is None:
            held = self._digests[id(image)] = (image, content_digest(image))
        return held[1]

    def _evaluate_cell(self, site, binary_path, image, binary_id,
                       bundle, staging_tag) -> TargetReport:
        if binary_path is not None and image is None:
            image = site.machine.fs.read(binary_path)
        digest = self._digest(image) if image is not None else None
        if binary_path is None and image is not None:
            name = binary_id or digest[:16]
            binary_path = posixpath.join(
                _MIGRATION_ROOT, name.replace("/", "-"))
            _stage(site.machine.fs, binary_path, image)

        environment, discovery_hit, discover_retry_seconds = \
            self._discover(site)
        fingerprint = self._fingerprints[site.name]

        bdg = bundle_digest(bundle) if bundle is not None else None
        description_hit = False
        if binary_path is not None:
            description, description_hit = self.describe(
                site, binary_path, digest=digest)
        else:
            assert bundle is not None
            description = bundle.description
            digest = bdg

        tag = staging_tag or posixpath.basename(
            binary_path or bundle.description.path).replace("/", "-")
        content = getattr(site, "content_key", None)
        # Content-group sites share one cell cache entry per binary; the
        # "content::" prefix keeps the keyspace disjoint from site names.
        if content is not None:
            key = (f"content::{content}", digest, bdg, tag)
        else:
            key = (site.name, fingerprint, digest, bdg, tag)
        # A cached report is served with the environment this site's
        # discovery holds: the one it was computed against (same
        # fingerprint, or same content group re-homed to this host).
        cached = self._reports.get(key)
        if cached is not None:
            self._count("evaluation", True)
            return dataclasses.replace(
                cached, environment=environment,
                cache=CellCacheInfo(
                    description_hit=True, discovery_hit=True,
                    evaluation_hit=True, tier="memory"))

        if self.persist is not None:
            # Read-through: a fresh process warm-starts from disk.  The
            # non-content key already folds in the site fingerprint;
            # the record's binding is the belt-and-braces check.
            stored = self.persist.load(
                "evaluation",
                persist_mod.evaluation_key(key, self.config_fingerprint),
                fingerprint=(None if content is not None
                             else fingerprint))
            if stored is not None:
                report = persist_mod.report_from_payload(stored,
                                                         environment)
                # Descriptions are not stored: the first disk-served
                # cell of each binary in a process described it afresh.
                report.cache = CellCacheInfo(
                    description_hit=description_hit,
                    discovery_hit=discovery_hit,
                    evaluation_hit=True, tier="disk")
                self._reports[key] = report
                self._count("evaluation", True)
                return report

        tec = self.tec_for(site)

        def attempt() -> TargetReport:
            # Explicit checkpoint: reading the staged binary back is the
            # evaluation's first substrate touch (arm-free fault plans
            # inject here; armed plans also perturb the reads below).
            faults.check(site.name, faults.FaultKind.READ_ERROR,
                         key=binary_path or tag)
            return tec.evaluate(description, binary_path=binary_path,
                                bundle=bundle, staging_tag=tag)

        report, _attempts, retry_seconds = with_retries(
            self.retry, f"evaluate:{site.name}:{tag}", attempt,
            operation="evaluate", site=site.name)
        if retry_seconds or discover_retry_seconds:
            report.feam_seconds += retry_seconds + discover_retry_seconds
        report.cache = CellCacheInfo(
            description_hit=description_hit,
            discovery_hit=discovery_hit,
            evaluation_hit=False)
        self._reports[key] = report
        self._count("evaluation", False)
        if (self.persist is not None
                and not retry_seconds and not discover_retry_seconds):
            # Write-behind -- clean evaluations only.  A cell that
            # needed retries carries fault-inflated simulated seconds;
            # persisting it would poison a later clean warm run.
            self.persist.store(
                "evaluation",
                persist_mod.evaluation_key(key, self.config_fingerprint),
                persist_mod.report_to_payload(report),
                fingerprint=(None if content is not None
                             else fingerprint))
        return report

    # -- the matrix ----------------------------------------------------------------------

    def evaluate_matrix(self, binaries: Sequence[EngineBinary],
                        sites: Sequence, wide_sink=None) -> MatrixResult:
        """Evaluate every binary against every site.

        A binary carrying a source-phase ``bundle`` is evaluated in
        extended mode.

        A site whose evaluation loop dies never aborts the matrix: its
        remaining cells degrade to UNKNOWN with provenance.  With a
        persistent store, a rerun of a killed matrix serves every cell
        the store holds from disk and evaluates only the rest.

        Telemetry: with a *wide_sink* (:class:`repro.obs.wide.
        WideEventSink`), every cell -- evaluated or filled in by the
        site-failure path -- emits exactly one wide event, so the
        sink's count always equals the cell count.

        Order: sites are grouped into work units -- one unit per
        hand-built site, one unit per *content group* of generated fleet
        sites -- taken in order of first appearance, each unit's sites
        one after another.  A content group's first site is therefore
        always the one that discovers and evaluates for the rest, and
        every run writes its wide events and persistent-store records
        in the same order.
        """
        # Work units: site positions keyed by content group (hand-built
        # sites by their own position), in order of first appearance.
        units: dict[object, list[int]] = {}
        for position, site in enumerate(sites):
            content = getattr(site, "content_key", None)
            units.setdefault(position if content is None else content,
                             []).append(position)

        def finish_cell(cell: MatrixCell, *, content) -> None:
            """Per-cell telemetry: one wide event per cell, at every
            point a cell enters the matrix."""
            if wide_sink is not None:
                wide_sink.emit(wide_record(cell, content_group=content))
            obs.counter("cells.evaluated").inc()

        def run_site(site) -> list[MatrixCell]:
            site_started = time.perf_counter()
            content = getattr(site, "content_key", None)
            with obs.span("engine.site", site=site.name) as site_span:
                cells: list[MatrixCell] = []
                try:
                    for binary in binaries:
                        # Content-group sites use a site-independent
                        # staging tag so their cells share one cache
                        # entry; hand-built sites keep per-site tags.
                        tag = (binary.binary_id if content is not None
                               else f"{binary.binary_id}-{site.name}")
                        cell_started = time.perf_counter()
                        report = self.evaluate_cell(
                            site, image=binary.image,
                            binary_id=binary.binary_id, bundle=binary.bundle,
                            staging_tag=tag.replace("/", "-"))
                        cell = MatrixCell(
                            binary_id=binary.binary_id, site_name=site.name,
                            report=report,
                            wall_seconds=time.perf_counter() - cell_started)
                        cells.append(cell)
                        finish_cell(cell, content=content)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    # A dying site loop must not lose the other sites'
                    # (or its own completed) cells: fill the rest of
                    # this column with UNKNOWN + provenance.
                    provenance = provenance_from(
                        exc, site=site.name, operation="worker")
                    obs.event("resilience.worker_failed", site=site.name,
                              error=str(exc), completed=len(cells))
                    obs.counter("resilience.workers.failed").inc()
                    for binary in binaries[len(cells):]:
                        cell = MatrixCell(
                            binary_id=binary.binary_id, site_name=site.name,
                            report=self.degraded_report(site, provenance))
                        cells.append(cell)
                        finish_cell(cell, content=content)
                site_span.set_attrs(cells=len(cells),
                                    ready=sum(c.ready for c in cells))
            obs.histogram("engine.site.worker_seconds").observe(
                time.perf_counter() - site_started)
            return cells

        with obs.span("engine.matrix", binaries=len(binaries),
                      sites=len(sites), units=len(units)) as matrix_span:
            per_site: list = [None] * len(sites)
            for positions in units.values():
                for position in positions:
                    per_site[position] = run_site(sites[position])
            matrix_span.set_attrs(cells=len(binaries) * len(sites))
        # Deterministic assembly: binary-major, site order as given.
        cells = [per_site[s][b]
                 for b in range(len(binaries)) for s in range(len(sites))]
        stats = self.stats
        publish_matrix_metrics([cell.report for cell in cells], stats)
        quarantined = tuple(
            name for name, state in self.site_health().items()
            if state != BreakerState.CLOSED.value)
        return MatrixResult(cells=cells, stats=stats,
                            quarantined=quarantined)
