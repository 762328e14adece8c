"""The persistent evaluation cache: crash-safe cross-run warm starts.

The engine's cache layers (see :mod:`repro.core.engine`) are in-memory
dicts and die with the process, so every fresh ``feam matrix`` pays
full cold cost.  :class:`PersistentStore` is the read-through/
write-behind tier under two of them: one append-only JSONL *segment*
per layer inside a cache directory, written through the shared
:mod:`repro.util.jsonl` discipline (one flushed line per record,
torn-tail-tolerant reads, atomic-rename rewrites).

Each fact is stored once.  A site's environment lives in its
``discovery`` record only; an ``evaluation`` record holds the verdict
and is served with the environment the engine holds for that site.
Binary descriptions are not persisted: describing a binary costs about
half a millisecond, once per process.

Robustness is the design center -- a disk cache must degrade to a
cache miss with provenance, never a wrong readiness prediction and
never a crash:

* **Schema versioning.**  Every record carries ``"schema":
  SCHEMA_VERSION``; records from a *newer* schema are quarantined
  (counted, skipped, never served) rather than misread.
* **Per-record checksums.**  Each record's ``sum`` field is a content
  digest over its layer, key, fingerprint binding and canonical
  payload bytes.  A record whose checksum no longer matches (at-rest
  rot, torn rewrite) is quarantined.
* **Torn-write tolerance.**  An undecodable *final* line is the normal
  artifact of a killed process and is skipped silently (counted on
  ``persist.cache.torn_tail``); undecodable lines elsewhere are real
  corruption and quarantine.
* **Fingerprint invalidation.**  A hand-built site's evaluation
  records are bound to the site's ``environment_fingerprint``; a
  record whose binding no longer matches is dropped as stale, never
  served.
* **Config binding.**  Evaluation keys fold in the engine's
  :func:`config_fingerprint`, so a record computed under one
  :class:`~repro.core.config.FeamConfig` is never served to an engine
  built with another.  Discoveries do not read the config and stay
  unbound.
* **LRU/size eviction + compaction.**  Segments are append-only: a
  newer record for a key supersedes older lines, and when the newest
  is quarantined the key is a miss, never the record it superseded.
  :meth:`compact` rewrites each segment keeping the newest valid
  record per key, least-recently-used entries evicted first once the
  per-segment byte cap is exceeded -- the same
  :func:`repro.util.jsonl.cap_jsonl` step the run ledger uses.
  Rewrites go through a temp file and ``os.replace`` so a reader
  never sees a half-written segment.
* **Durability chaos.**  Two seeded fault kinds attack the store
  itself: ``cache-torn-write`` truncates an appended line mid-write,
  ``cache-corruption`` simulates at-rest rot by quarantining a record
  at read time.  Both degrade to recomputation; ``feam chaos`` proves
  the rendered matrix stays byte-identical to a cold run.

Quarantine provenance: every skipped record bumps
``persist.cache.quarantined`` (plus a per-reason counter) and emits a
``persist.quarantine`` event; the default SLO rules treat a non-zero
quarantine count as ``[critical]``.

The store is also the only resume state: a killed ``feam matrix``
resumes by rerunning it against the same cache directory.  Every
record is flushed as it is written, so the rerun serves each stored
cell from disk and computes the rest.  Degraded and retry-inflated
cells are never stored, so a rerun re-evaluates exactly those.

``feam cache`` (stats / verify / compact / clear) is the operator
surface; :meth:`verify` is the fsck pass it exposes.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Optional

from repro import obs
from repro.core.config import FeamConfig
from repro.core.discovery import EnvironmentDescription
from repro.core.evaluation import TargetReport
from repro.core.prediction import (
    DeterminantResult,
    Outcome,
    Prediction,
    PredictionMode,
)
from repro.sysmodel import faults
from repro.util import jsonl as _jsonl
from repro.util.hashing import stable_digest

#: Version of the on-disk record layout.  Bump when a field changes
#: meaning or disappears; adding fields is backwards-compatible.
#: Schema 2 dropped the evaluation payload's ``environment``; schema-1
#: records are still served, that field ignored.
SCHEMA_VERSION = 2

#: The engine cache layers the store backs, one segment each.
LAYERS = ("discovery", "evaluation")

#: Default per-segment byte cap (LRU eviction beyond it).
DEFAULT_MAX_BYTES = FeamConfig.cache_max_bytes

#: The "site" label cache fault kinds are scoped by in fault profiles
#: (``cache-corruption @ cache ...``; ``@ *`` matches too).
CACHE_SITE = "cache"


# -- content-addressed keys ------------------------------------------------------


def discovery_key(scope: str, site_key: str) -> str:
    """The disk key of one site discovery.

    *site_key* is the site's ``content_key`` for generated fleet sites
    (content-addressed, scope-free reuse) or its name for hand-built
    sites, in which case *scope* -- a digest of the run's seed and
    sites spec -- keeps worlds built from different seeds apart.
    """
    return stable_digest("persist", "discovery", scope, site_key)


def config_fingerprint(config) -> str:
    """The 16-hex digest of a :class:`~repro.core.config.FeamConfig`.

    Evaluation keys fold it in (:func:`evaluation_key`); run-ledger
    manifests record it as ``config_fingerprint``.
    """
    return stable_digest(config.render())[:16]


def evaluation_key(cell_key: tuple, config_digest: str) -> str:
    """The disk key of one evaluation cell: the engine's cache tuple,
    bound to the :func:`config_fingerprint` it was computed under."""
    return stable_digest("persist", "evaluation", config_digest,
                         *(str(part) for part in cell_key))


def record_checksum(layer: str, key: str, fingerprint: Optional[str],
                    payload: dict) -> str:
    """The per-record content checksum (over the canonical payload)."""
    return stable_digest("persist-sum", layer, key, fingerprint or "",
                         _jsonl.dump_line(payload))[:16]


# -- value serialisation ---------------------------------------------------------
#
# Payloads are plain JSON dicts.  A discovery payload is the site's
# environment (:meth:`EnvironmentDescription.to_dict`); an evaluation
# payload is *summary-grade* (verdict, ordered determinants, reasons,
# timing), so a disk-served cell renders byte-identically to a cold one
# without persisting staging artefacts (resolution plans, run
# environments) that are cheap to rebuild and expensive to validate.


def report_to_payload(report: TargetReport) -> dict:
    prediction = report.prediction
    return {
        "ready": prediction.ready,
        "mode": prediction.mode.value,
        "determinants": [[result.key, result.outcome.value, result.detail]
                         for result in prediction.determinants],
        "reasons": list(prediction.reasons),
        "missing_libraries": list(prediction.missing_libraries),
        "unsatisfied_versions": [list(pair) for pair
                                 in prediction.unsatisfied_versions],
        "requires_resolution": prediction.requires_resolution,
        "feam_seconds": round(report.feam_seconds, 6),
        "selected_stack_prefix": report.selected_stack_prefix,
        "output_path": report.output_path,
    }


def report_from_payload(payload: dict,
                        environment: EnvironmentDescription) -> TargetReport:
    """A summary-grade :class:`TargetReport` from its disk payload,
    served against *environment* (the site's, as the engine holds it).

    Determinant order is preserved (the verbose grid prints them in
    registry order); resolution plans and run environments are not
    persisted and come back ``None``.
    """
    determinants = tuple(
        DeterminantResult(entry[0], Outcome(entry[1]),
                          entry[2] if len(entry) > 2 else "")
        for entry in payload.get("determinants", ()))
    prediction = Prediction(
        ready=bool(payload.get("ready", True)),
        mode=PredictionMode(payload.get("mode", "basic")),
        determinants=determinants,
        missing_libraries=tuple(payload.get("missing_libraries", ())),
        unsatisfied_versions=tuple(
            (pair[0], pair[1])
            for pair in payload.get("unsatisfied_versions", ())),
        requires_resolution=bool(payload.get("requires_resolution",
                                             False)),
        reasons=tuple(payload.get("reasons", ())))
    return TargetReport(
        prediction=prediction,
        environment=environment,
        feam_seconds=float(payload.get("feam_seconds", 0.0)),
        selected_stack_prefix=payload.get("selected_stack_prefix"),
        output_path=payload.get("output_path"))


# -- the store -------------------------------------------------------------------


class _Segment:
    """One layer's on-disk state: appender, index, accounting."""

    __slots__ = ("path", "appender", "index", "bytes", "loaded")

    def __init__(self, path: str) -> None:
        self.path = path
        self.appender: Optional[_jsonl.JsonlAppender] = None
        #: key -> (payload, fingerprint binding or None); newest wins.
        self.index: dict[str, tuple[dict, Optional[str]]] = {}
        self.bytes = 0
        self.loaded = False


class PersistentStore:
    """The schema-versioned, digest-keyed on-disk cache tier.

    One instance owns one cache *directory* (one JSONL segment per
    layer).  Thread-safe -- one lock guards the segments and the LRU
    ticks -- although the serial engine only ever drives it from one
    thread.  Segments are loaded lazily (first access per layer) and
    indexed in memory; appends are flushed per line so a killed run
    loses at most the in-flight record.
    """

    def __init__(self, directory: str, *,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 scope: str = "default") -> None:
        self.directory = directory
        self.max_bytes = max(0, int(max_bytes))
        self.scope = scope
        self._lock = threading.Lock()
        os.makedirs(directory, exist_ok=True)
        self._segments = {
            layer: _Segment(os.path.join(directory, f"{layer}.jsonl"))
            for layer in LAYERS}
        #: (layer, key) -> monotonic touch tick; orders LRU eviction.
        self._touch: dict[tuple[str, str], int] = {}
        self._tick = 0
        #: reason -> count, quarantines observed by this process.
        self.quarantined: dict[str, int] = {}
        self.torn_tail = 0
        self.disk_hits = 0
        self.stores = 0

    # -- the read-through / write-behind protocol ----------------------

    def load(self, layer: str, key: str,
             fingerprint: Optional[str] = None) -> Optional[dict]:
        """The payload stored for *key*, or None (miss / stale).

        With a *fingerprint*, a record bound to a different fingerprint
        is dropped as stale (counted on ``persist.cache.stale``) --
        the environment it was computed against no longer exists.
        """
        segment = self._segments[layer]
        with self._lock:
            self._ensure_loaded(layer)
            entry = segment.index.get(key)
            if entry is None:
                return None
            payload, bound = entry
            if (fingerprint is not None and bound is not None
                    and bound != fingerprint):
                del segment.index[key]
                obs.counter("persist.cache.stale").inc()
                obs.event("persist.stale", layer=layer, key=key,
                          bound=bound, current=fingerprint)
                return None
            self._tick += 1
            self._touch[(layer, key)] = self._tick
            self.disk_hits += 1
        obs.counter("persist.cache.disk_hits").inc()
        obs.counter(f"persist.cache.{layer}.disk_hits").inc()
        return payload

    def store(self, layer: str, key: str, payload: dict,
              fingerprint: Optional[str] = None) -> None:
        """Append one record (write-behind; flushed immediately)."""
        record = {
            "schema": SCHEMA_VERSION,
            "layer": layer,
            "key": key,
            "fingerprint": fingerprint,
            "payload": payload,
            "sum": record_checksum(layer, key, fingerprint, payload),
        }
        line = _jsonl.dump_line(record)
        # Durability chaos: a seeded cache-torn-write cuts this append
        # short, exactly like power loss mid-write.
        if faults.fires(CACHE_SITE, faults.FaultKind.CACHE_TORN_WRITE,
                        key=key):
            line = line[:max(1, len(line) // 2)]
        over_cap = False
        segment = self._segments[layer]
        with self._lock:
            self._ensure_loaded(layer)
            if segment.appender is None:
                segment.appender = _jsonl.JsonlAppender(segment.path)
            segment.appender.append_line(line)
            segment.bytes += len(line) + 1
            segment.index[key] = (payload, fingerprint)
            self._tick += 1
            self._touch[(layer, key)] = self._tick
            self.stores += 1
            over_cap = self.max_bytes and segment.bytes > self.max_bytes
        obs.counter("persist.cache.stores").inc()
        obs.counter(f"persist.cache.{layer}.stores").inc()
        if over_cap:
            self.compact()

    # -- reading segments ----------------------------------------------

    def _read(self, layer: str):
        """Decode and vet one segment's lines as they are on disk.

        Yields ``(line number, key, record, issue)`` for each non-blank
        line.  *issue* is None for a sound record; ``"torn-tail"`` for
        an undecodable final line, the normal artifact of a killed
        process; ``"torn-write"`` for an undecodable line elsewhere;
        else the :meth:`_vet` reason.  *record* is None when the line
        did not decode, *key* when it names no string key.  Serving
        (:meth:`_ensure_loaded`) and fsck (:meth:`_scan`) share this
        pass and differ only in what they do with an issue.  Bytes
        that are not UTF-8 decode to U+FFFD, so rot there fails the
        decode or the checksum like any other.
        """
        path = self._segments[layer].path
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            lines = handle.read().splitlines()
        last = max((i for i, line in enumerate(lines) if line.strip()),
                   default=-1)
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not isinstance(record, dict):
                yield (index + 1, None, None,
                       "torn-tail" if index == last else "torn-write")
                continue
            key = record.get("key")
            yield (index + 1, key if isinstance(key, str) else None,
                   record, self._vet(layer, record))

    @staticmethod
    def _vet(layer: str, record: dict) -> Optional[str]:
        """The quarantine reason for a decoded record, or None (ok)."""
        schema = record.get("schema")
        if isinstance(schema, int) and schema > SCHEMA_VERSION:
            return "newer-schema"
        key = record.get("key")
        payload = record.get("payload")
        if (not isinstance(key, str) or record.get("layer") != layer
                or not isinstance(payload, dict)):
            return "malformed"
        expected = record_checksum(layer, key, record.get("fingerprint"),
                                   payload)
        if record.get("sum") != expected:
            return "checksum"
        return None

    def _ensure_loaded(self, layer: str) -> None:
        """Index a segment on first access (caller holds the lock)."""
        segment = self._segments[layer]
        if segment.loaded:
            return
        segment.loaded = True
        segment.bytes = self._segment_size(layer)
        for lineno, key, record, issue in self._read(layer):
            # Durability chaos: a seeded cache-corruption marks this
            # record as rotted at rest; quarantine instead of serving.
            if issue is None and faults.fires(
                    CACHE_SITE, faults.FaultKind.CACHE_CORRUPTION,
                    key=key):
                issue = "cache-corruption"
            if issue == "torn-tail":
                self.torn_tail += 1
                obs.counter("persist.cache.torn_tail").inc()
            elif issue is not None:
                self.quarantined[issue] = self.quarantined.get(issue, 0) + 1
                obs.counter("persist.cache.quarantined").inc()
                obs.counter(f"persist.cache.quarantined.{issue}").inc()
                obs.event("persist.quarantine", layer=layer, reason=issue,
                          line=lineno, key=key)
                segment.index.pop(key, None)
            else:
                segment.index[key] = (record["payload"],
                                      record.get("fingerprint"))
                self._tick += 1
                self._touch[(layer, key)] = self._tick

    # -- maintenance (the `feam cache` verbs) --------------------------

    def _scan(self, layer: str) -> tuple[list, dict]:
        """One segment's fsck: (ordered valid records, issue counts).

        Independent of the in-memory index and of any installed fault
        plan, so ``verify`` reports what a fresh process would find.
        """
        issues = {"torn_tail": 0, "torn_write": 0, "checksum": 0,
                  "newer_schema": 0, "malformed": 0}
        by_key: dict[str, dict] = {}
        for _lineno, key, record, issue in self._read(layer):
            if issue is not None:
                issues[issue.replace("-", "_")] += 1
                by_key.pop(key, None)
            else:
                by_key[key] = record
        return list(by_key.values()), issues

    def verify(self) -> dict:
        """Full fsck of every segment; ``ok`` iff nothing is corrupt.

        A torn tail counts as an issue here -- verify is the explicit
        integrity check, and :meth:`compact` repairs it -- even though
        the serving path tolerates it silently.
        """
        layers = {}
        ok = True
        for layer in LAYERS:
            records, issues = self._scan(layer)
            problems = sum(issues.values())
            layers[layer] = dict(issues, entries=len(records),
                                 bytes=self._segment_size(layer))
            ok = ok and problems == 0
        return {"ok": ok, "directory": self.directory,
                "schema": SCHEMA_VERSION, "layers": layers}

    def compact(self) -> dict:
        """Rewrite every segment: newest valid record per key survives,
        corrupt/torn/superseded lines drop, and the
        per-segment byte cap evicts least-recently-used entries first.
        Atomic per segment (temp file + rename)."""
        summary = {}
        with self._lock:
            for layer in LAYERS:
                segment = self._segments[layer]
                records, issues = self._scan(layer)
                # Least-recently-used first, so cap eviction (oldest
                # first by order) drops the coldest entries.
                records.sort(key=lambda record: self._touch.get(
                    (layer, record["key"]), 0))
                evicted = _jsonl.cap_jsonl(
                    segment.path, records,
                    max_bytes=self.max_bytes or None,
                    counter="persist.cache.evicted",
                    always_rewrite=True)
                if segment.appender is not None:
                    segment.appender.close()
                    segment.appender = None
                kept = {record["key"] for record in records[evicted:]}
                if segment.loaded:
                    for key in list(segment.index):
                        if key not in kept:
                            del segment.index[key]
                segment.bytes = self._segment_size(layer)
                summary[layer] = dict(
                    issues, kept=len(kept), evicted=evicted,
                    bytes=segment.bytes)
            obs.counter("persist.cache.compactions").inc()
        return summary

    def clear(self) -> int:
        """Delete every segment; returns how many entries were dropped."""
        dropped = 0
        with self._lock:
            for layer in LAYERS:
                segment = self._segments[layer]
                self._ensure_loaded(layer)
                dropped += len(segment.index)
                if segment.appender is not None:
                    segment.appender.close()
                    segment.appender = None
                if os.path.exists(segment.path):
                    os.remove(segment.path)
                segment.index.clear()
                segment.bytes = 0
                segment.loaded = True
            self._touch.clear()
        return dropped

    def _segment_size(self, layer: str) -> int:
        path = self._segments[layer].path
        return os.path.getsize(path) if os.path.exists(path) else 0

    def stats(self) -> dict:
        """Point-in-time store statistics (the ``feam cache stats`` view)."""
        with self._lock:
            layers = {}
            for layer in LAYERS:
                self._ensure_loaded(layer)
                segment = self._segments[layer]
                layers[layer] = {"entries": len(segment.index),
                                 "bytes": self._segment_size(layer)}
            return {
                "directory": self.directory,
                "schema": SCHEMA_VERSION,
                "scope": self.scope,
                "max_bytes": self.max_bytes,
                "layers": layers,
                "entries": sum(info["entries"]
                               for info in layers.values()),
                "bytes": sum(info["bytes"] for info in layers.values()),
                "disk_hits": self.disk_hits,
                "stores": self.stores,
                "quarantined": dict(sorted(self.quarantined.items())),
                "torn_tail": self.torn_tail,
            }

    def close(self) -> None:
        """Flush and close; compact first when a segment is over cap."""
        over = any(self.max_bytes
                   and self._segment_size(layer) > self.max_bytes
                   for layer in LAYERS)
        if over:
            self.compact()
        with self._lock:
            for segment in self._segments.values():
                if segment.appender is not None:
                    segment.appender.close()
                    segment.appender = None

    def __enter__(self) -> "PersistentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
