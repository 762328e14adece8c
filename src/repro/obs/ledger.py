"""The run ledger: a durable, queryable warehouse of evaluation runs.

Every other telemetry surface -- spans, metrics, wide events -- dies
with the process; the only question they can answer is "what happened
in *this* run".  Readiness work is longitudinal: the questions that
matter over a campaign are "did yesterday's config change flip any
cells", "is discovery getting slower", "what did the fleet bench look
like twenty runs ago".  The ledger answers those by writing one
schema-versioned *run manifest* per ``feam matrix`` / ``feam chaos`` /
benchmark invocation into an append-only on-disk store
(``.feam/runs/runs.jsonl`` by default), torn-tail-tolerant like every
other JSONL stream in the tree (:mod:`repro.util.jsonl`) and
size-capped with oldest-run eviction so a long campaign cannot grow
without bound.

A manifest is a plain dict (this module never imports ``repro.core``;
the engine-side flattener lives in
:func:`repro.core.engine.run_rollup`):

* identity -- ``run_id`` (UTC timestamp + content digest suffix),
  ``ts`` (ISO-8601 UTC), ``kind`` (``matrix`` / ``chaos`` / ``bench``
  / ``fleet-bench`` / ``telemetry-gate``), ``schema``;
* provenance -- ``seed``, ``sites_spec``, ``config_fingerprint`` and
  ``fault_profile``;
* results -- the ``rollup`` (cell/outcome/cache/retry counts,
  per-determinant outcome counts, sim/wall latency digests), the
  ``phases`` latency digests, and/or raw ``bench`` timings.

Cross-run analysis (`feam runs`, `feam compare`, `feam drift`) lives
in :mod:`repro.obs.compare`; this module is only the warehouse.
"""

from __future__ import annotations

import math
import os
import time
from typing import Optional, Sequence

from repro.util.hashing import stable_digest
from repro.util.jsonl import JsonlAppender, cap_jsonl, read_jsonl

#: Version of the manifest layout.  Bump when a field changes meaning
#: or disappears; adding fields is backwards-compatible.  Schema 2
#: dropped schema 1's constant ``workers``/``cache_shards`` fields and
#: the rollup's ``resumed`` count; schema-1 manifests still read.
SCHEMA_VERSION = 2

#: Default warehouse location, relative to the working directory.
DEFAULT_DIR = os.path.join(".feam", "runs")

#: Default size cap (manifests, not bytes); oldest evicted beyond it.
DEFAULT_MAX_RUNS = 512

#: File holding the manifests inside the ledger directory.
LEDGER_FILE = "runs.jsonl"


def utc_timestamp(epoch: Optional[float] = None) -> str:
    """ISO-8601 UTC second precision, e.g. ``2026-08-08T12:13:14Z``."""
    if epoch is None:
        epoch = time.time()
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


def make_run_id(ts: str, *fingerprint_parts) -> str:
    """A run id: sortable UTC stamp + 8-hex content digest suffix.

    The digest folds in the manifest's identifying content so two runs
    recorded within the same second still get distinct ids.
    """
    compact = ts.replace("-", "").replace(":", "")
    suffix = stable_digest(ts, *fingerprint_parts)[:8]
    return f"{compact}-{suffix}"


def order_statistic(values: Sequence[float], q: float) -> float:
    """The exact *q* quantile of sorted, non-empty *values*: the
    ``ceil(q*n)``-th smallest (the smallest when ``q*n <= 1``).

    The one percentile rule behind the ledger's digests and
    ``feam query``."""
    return values[max(1, math.ceil(q * len(values))) - 1]


def run_cells(run: dict) -> Optional[int]:
    """How many cells a manifest counts: its rollup's, else its bench
    payload's (bench manifests carry no rollup), else None.

    The one rule behind ``feam runs`` and ``feam serve``'s ``/runs``."""
    return (run.get("rollup") or run.get("bench") or {}).get("cells")


def latency_digest(values: Sequence[float]) -> dict:
    """Exact order-statistic digest of a latency population.

    Same shape as a histogram ``summary()`` (count, sum, min, max,
    mean, p50, p95) but computed from the raw values, so percentiles
    are exact rather than bucket midpoints.
    """
    values = sorted(float(v) for v in values)
    if not values:
        return {"count": 0, "sum": 0.0, "min": None, "max": None,
                "mean": None, "p50": None, "p95": None}
    total = float(sum(values))
    return {"count": len(values), "sum": total,
            "min": values[0], "max": values[-1],
            "mean": total / len(values),
            "p50": order_statistic(values, 0.50),
            "p95": order_statistic(values, 0.95)}


class RunLedger:
    """The append-only, size-capped run warehouse.

    One :data:`LEDGER_FILE` JSONL file under *directory*; each
    :meth:`record` appends one flushed manifest line.  Without a
    *directory* the ledger lives in ``$FEAM_LEDGER_DIR``, else in
    :data:`DEFAULT_DIR`: this is the one place that rule is written,
    and ``--ledger DIR`` passes its value as *directory*.  When the store
    exceeds *max_runs* manifests it is compacted in place, dropping the
    oldest runs (``ledger.evicted`` counts them).  Reads tolerate a
    torn final line and skip manifests from a newer schema rather than
    misread them.

    Counters (no-ops when no collector is installed):

    * ``ledger.recorded`` -- manifests written by this process;
    * ``ledger.evicted`` -- manifests dropped by the size cap.
    """

    def __init__(self, directory: Optional[str] = None,
                 max_runs: int = DEFAULT_MAX_RUNS) -> None:
        self.directory = (directory or os.environ.get("FEAM_LEDGER_DIR")
                          or DEFAULT_DIR)
        self.max_runs = max(1, int(max_runs))
        self.path = os.path.join(self.directory, LEDGER_FILE)

    # -- writing -------------------------------------------------------

    def record(self, manifest: dict) -> dict:
        """Append one manifest (stamping schema/ts/run_id if absent).

        Returns the manifest as written.  Appending then compacting
        (rather than compacting in memory first) keeps the common path
        a single flushed append; eviction only rewrites when the cap
        is actually crossed.
        """
        manifest = dict(manifest)
        manifest.setdefault("schema", SCHEMA_VERSION)
        manifest.setdefault("ts", utc_timestamp())
        if "run_id" not in manifest:
            manifest["run_id"] = make_run_id(
                manifest["ts"], manifest.get("kind"),
                manifest.get("seed"), manifest.get("sites_spec"),
                manifest.get("config_fingerprint"), os.getpid(),
                time.time())
        os.makedirs(self.directory, exist_ok=True)
        with JsonlAppender(self.path) as appender:
            appender.append(manifest)
        from repro import obs
        obs.counter("ledger.recorded").inc()
        self._evict()
        return manifest

    def _evict(self) -> int:
        """Drop oldest manifests beyond the cap; returns the count."""
        return cap_jsonl(self.path, self.runs(),
                         max_records=self.max_runs,
                         counter="ledger.evicted")

    # -- reading -------------------------------------------------------

    def runs(self) -> list[dict]:
        """Every readable manifest, oldest first.

        Missing store -> empty list (a fresh checkout has no history).
        Torn lines and newer-schema manifests are skipped: a warehouse
        shared across tool versions must stay listable even when a
        newer writer has contributed lines this reader cannot vet.
        """
        if not os.path.exists(self.path):
            return []

        def known_schema(_lineno: int, record: dict) -> bool:
            schema = record.get("schema", SCHEMA_VERSION)
            return not (isinstance(schema, int) and schema > SCHEMA_VERSION)

        return read_jsonl(self.path, check=known_schema, label="ledger")

    def resolve(self, ref: str) -> dict:
        """One manifest by reference.

        Accepts a full ``run_id``, a unique id prefix, ``latest``, or
        a negative index (``-1`` = newest, ``-2`` = one before).
        Raises ``ValueError`` (with the reason) when nothing matches.
        """
        runs = self.runs()
        if not runs:
            raise ValueError(f"run ledger {self.path} has no runs")
        ref = ref.strip()
        if ref in ("latest", "-1"):
            return runs[-1]
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None and index < 0:
            if -index > len(runs):
                raise ValueError(
                    f"run {ref}: ledger only holds {len(runs)} run(s)")
            return runs[index]
        matches = [run for run in runs
                   if str(run.get("run_id", "")).startswith(ref)]
        if not matches:
            raise ValueError(f"no run matches {ref!r}")
        if len(matches) > 1:
            ids = ", ".join(str(run.get("run_id")) for run in matches[:4])
            raise ValueError(
                f"run reference {ref!r} is ambiguous ({ids}, ...)"
                if len(matches) > 4 else
                f"run reference {ref!r} is ambiguous ({ids})")
        return matches[0]


def flatten(manifest: dict, prefix: str = "",
            max_depth: int = 4) -> dict:
    """A manifest as one flat ``dotted.key -> scalar`` dict.

    Nested dicts flatten with dot-joined keys
    (``rollup.cache.hit_rate``); lists and deeper nesting render as
    their length / string form.  This is what the ``feam runs
    --where`` predicates and the drift baseline operate on, reusing
    the :mod:`repro.obs.store` clause machinery unchanged.
    """
    flat: dict = {}
    for key, value in manifest.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict) and max_depth > 0:
            flat.update(flatten(value, prefix=f"{name}.",
                                max_depth=max_depth - 1))
        elif isinstance(value, list):
            flat[name] = len(value)
        else:
            flat[name] = value
    return flat


def numeric_metrics(manifest: dict) -> dict:
    """The flattened manifest restricted to real numbers.

    The drift baseline and the SLO rule grammar both want numeric
    metric -> value maps; identity strings (run ids, timestamps) would
    only pollute them.
    """
    return {key: float(value)
            for key, value in flatten(manifest).items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)}
