"""The persistent evaluation cache: crash-safe cross-run warm starts.

The engine's three cache layers (description / discovery / evaluation,
see :mod:`repro.core.engine`) are in-memory dicts and die with the
process, so every fresh ``feam matrix`` pays full cold cost.
:class:`PersistentStore` is the read-through/write-behind tier under
them: one append-only JSONL *segment* per layer inside a cache
directory, written through the shared :mod:`repro.util.jsonl`
discipline (one flushed line per record, torn-tail-tolerant reads,
atomic-rename rewrites).

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
* **Fingerprint invalidation.**  Discovery and per-site evaluation
  records are bound to the site's ``environment_fingerprint``; a
  record whose binding no longer matches is dropped as stale, never
  served.
* **Config binding.**  Evaluation keys fold in the engine's
  :func:`config_fingerprint`, so a record computed under one
  :class:`~repro.core.config.FeamConfig` is never served to an engine
  built with another.  Descriptions and discoveries do not read the
  config and stay unbound.
* **LRU/size eviction + compaction.**  Segments are append-only (a
  newer record for a key supersedes older lines); :meth:`compact`
  rewrites each segment keeping the newest valid record per key,
  least-recently-used entries evicted first once the per-segment byte
  cap is exceeded -- the same :func:`repro.util.jsonl.cap_jsonl` step
  the run ledger uses.  Rewrites go through a temp file and
  ``os.replace`` so a reader never sees a half-written segment.
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
from repro.core.description import BinaryDescription
from repro.core.discovery import DiscoveredStack, EnvironmentDescription
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
SCHEMA_VERSION = 1

#: The three engine cache layers the store backs, one segment each.
LAYERS = ("description", "discovery", "evaluation")

#: Default per-segment byte cap (LRU eviction beyond it).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: The "site" label cache fault kinds are scoped by in fault profiles
#: (``cache-corruption @ cache ...``; ``@ *`` matches too).
CACHE_SITE = "cache"


# -- content-addressed keys ------------------------------------------------------


def description_key(image_digest: str, path: str) -> str:
    """The disk key of one described binary (image digest + path)."""
    return stable_digest("persist", "description", image_digest, path)


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
# Payloads are plain JSON dicts.  Descriptions and environments
# round-trip completely; evaluation reports round-trip *summary-grade*
# (verdict, ordered determinants, reasons, environment, timing), so a
# disk-served cell renders byte-identically to a cold one without
# persisting staging artefacts (resolution plans, run environments)
# that are cheap to rebuild and expensive to validate.


def description_to_payload(description: BinaryDescription) -> dict:
    return {
        "path": description.path,
        "file_format": description.file_format,
        "isa_name": description.isa_name,
        "bits": description.bits,
        "is_dynamic": description.is_dynamic,
        "is_shared_library": description.is_shared_library,
        "soname": description.soname,
        "library_version": list(description.library_version),
        "needed": list(description.needed),
        "version_references": [list(ref)
                               for ref in description.version_references],
        "version_definitions": list(description.version_definitions),
        "required_glibc": description.required_glibc,
        "comment": list(description.comment),
        "mpi_implementation": description.mpi_implementation,
        "build_compiler_hint": description.build_compiler_hint,
        "build_libc_hint": description.build_libc_hint,
        "gathered_via": description.gathered_via,
    }


def description_from_payload(payload: dict) -> BinaryDescription:
    return BinaryDescription(
        path=payload["path"],
        file_format=payload["file_format"],
        isa_name=payload["isa_name"],
        bits=int(payload["bits"]),
        is_dynamic=bool(payload["is_dynamic"]),
        is_shared_library=bool(payload["is_shared_library"]),
        soname=payload.get("soname"),
        library_version=tuple(int(part) for part
                              in payload.get("library_version", ())),
        needed=tuple(payload.get("needed", ())),
        version_references=tuple(
            (ref[0], ref[1])
            for ref in payload.get("version_references", ())),
        version_definitions=tuple(payload.get("version_definitions", ())),
        required_glibc=payload.get("required_glibc"),
        comment=tuple(payload.get("comment", ())),
        mpi_implementation=payload.get("mpi_implementation"),
        build_compiler_hint=payload.get("build_compiler_hint"),
        build_libc_hint=payload.get("build_libc_hint"),
        gathered_via=payload.get("gathered_via", "objdump"))


def environment_to_payload(environment: EnvironmentDescription) -> dict:
    return {
        "hostname": environment.hostname,
        "isa": environment.isa,
        "os_type": environment.os_type,
        "os_version": environment.os_version,
        "distro": environment.distro,
        "libc_version": environment.libc_version,
        "libc_path": environment.libc_path,
        "libc_via": environment.libc_via,
        "env_tool": environment.env_tool,
        "loaded_stacks": list(environment.loaded_stacks),
        "stacks": [{
            "label": stack.label,
            "kind": stack.kind,
            "version": stack.version,
            "compiler_family": stack.compiler_family,
            "compiler_version": stack.compiler_version,
            "prefix": stack.prefix,
            "via": stack.via,
            "module_name": stack.module_name,
        } for stack in environment.stacks],
    }


def environment_from_payload(payload: dict) -> EnvironmentDescription:
    return EnvironmentDescription(
        hostname=payload["hostname"],
        isa=payload["isa"],
        os_type=payload["os_type"],
        os_version=payload.get("os_version"),
        distro=payload.get("distro"),
        libc_version=payload.get("libc_version"),
        libc_path=payload.get("libc_path"),
        libc_via=payload.get("libc_via"),
        stacks=tuple(DiscoveredStack(
            label=stack["label"],
            kind=stack.get("kind"),
            version=stack.get("version"),
            compiler_family=stack.get("compiler_family"),
            compiler_version=stack.get("compiler_version"),
            prefix=stack.get("prefix"),
            via=stack.get("via", "path-search"),
            module_name=stack.get("module_name"),
        ) for stack in payload.get("stacks", ())),
        env_tool=payload.get("env_tool"),
        loaded_stacks=tuple(payload.get("loaded_stacks", ())))


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
        "environment": environment_to_payload(report.environment),
    }


def report_from_payload(payload: dict) -> TargetReport:
    """A summary-grade :class:`TargetReport` from its disk payload.

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
        environment=environment_from_payload(payload["environment"]),
        feam_seconds=float(payload.get("feam_seconds", 0.0)),
        selected_stack_prefix=payload.get("selected_stack_prefix"),
        output_path=payload.get("output_path"))


# -- the store -------------------------------------------------------------------


class _Segment:
    """One layer's on-disk state: appender, index, accounting."""

    __slots__ = ("path", "appender", "index", "fingerprints", "bytes",
                 "loaded")

    def __init__(self, path: str) -> None:
        self.path = path
        self.appender: Optional[_jsonl.JsonlAppender] = None
        #: key -> payload (newest record wins).
        self.index: dict[str, dict] = {}
        #: key -> fingerprint binding (None = unbound).
        self.fingerprints: dict[str, Optional[str]] = {}
        self.bytes = 0
        self.loaded = False


class PersistentStore:
    """The schema-versioned, digest-keyed on-disk cache tier.

    One instance owns one cache *directory* (three JSONL segments plus
    whatever a future schema adds).  Thread-safe -- one lock guards the
    segments and the LRU ticks -- although the serial engine only ever
    drives it from one thread.  Segments are loaded lazily (first access per layer) and indexed in memory;
    appends are flushed per line so a killed run loses at most the
    in-flight record.
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
            payload = segment.index.get(key)
            if payload is None:
                return None
            bound = segment.fingerprints.get(key)
            if (fingerprint is not None and bound is not None
                    and bound != fingerprint):
                del segment.index[key]
                del segment.fingerprints[key]
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
            appender = self._appender(segment)
            appender.append_line(line)
            segment.bytes += len(line) + 1
            segment.index[key] = payload
            segment.fingerprints[key] = fingerprint
            self._tick += 1
            self._touch[(layer, key)] = self._tick
            self.stores += 1
            over_cap = self.max_bytes and segment.bytes > self.max_bytes
        obs.counter("persist.cache.stores").inc()
        obs.counter(f"persist.cache.{layer}.stores").inc()
        if over_cap:
            self.compact()

    def drop(self, layer: str, key: str) -> bool:
        """Invalidate one key (tombstone append; compaction erases it)."""
        segment = self._segments[layer]
        with self._lock:
            self._ensure_loaded(layer)
            present = key in segment.index
            segment.index.pop(key, None)
            segment.fingerprints.pop(key, None)
            self._touch.pop((layer, key), None)
            record = {"schema": SCHEMA_VERSION, "layer": layer,
                      "key": key, "deleted": True,
                      "sum": record_checksum(layer, key, None,
                                             {"deleted": True})}
            line = _jsonl.dump_line(record)
            appender = self._appender(segment)
            appender.append_line(line)
            segment.bytes += len(line) + 1
        return present

    # -- segment loading ----------------------------------------------

    def _appender(self, segment: _Segment) -> _jsonl.JsonlAppender:
        if segment.appender is None:
            segment.appender = _jsonl.JsonlAppender(segment.path)
        return segment.appender

    def _ensure_loaded(self, layer: str) -> None:
        """Index a segment on first access (caller holds the lock)."""
        segment = self._segments[layer]
        if segment.loaded:
            return
        segment.loaded = True
        if not os.path.exists(segment.path):
            return
        with open(segment.path, "r", encoding="utf-8") as handle:
            text = handle.read()
        segment.bytes = len(text.encode("utf-8"))
        lines = text.splitlines()
        last_content = max(
            (i for i, line in enumerate(lines) if line.strip()),
            default=-1)
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not an object")
            except ValueError:
                if lineno == last_content:
                    # The torn tail of a killed run: expected, skipped.
                    self.torn_tail += 1
                    obs.counter("persist.cache.torn_tail").inc()
                else:
                    self._quarantine(layer, "torn-write", lineno + 1)
                continue
            issue = self._vet(layer, record)
            if issue is not None:
                self._quarantine(layer, issue, lineno + 1,
                                 key=record.get("key"))
                continue
            key = record["key"]
            if record.get("deleted"):
                segment.index.pop(key, None)
                segment.fingerprints.pop(key, None)
                continue
            # Durability chaos: a seeded cache-corruption marks this
            # record as rotted at rest; quarantine instead of serving.
            if faults.fires(CACHE_SITE,
                            faults.FaultKind.CACHE_CORRUPTION, key=key):
                self._quarantine(layer, "cache-corruption", lineno + 1,
                                 key=key)
                segment.index.pop(key, None)
                segment.fingerprints.pop(key, None)
                continue
            segment.index[key] = record["payload"]
            segment.fingerprints[key] = record.get("fingerprint")
            self._tick += 1
            self._touch[(layer, key)] = self._tick

    @staticmethod
    def _vet(layer: str, record: dict) -> Optional[str]:
        """The quarantine reason for a decoded record, or None (ok)."""
        schema = record.get("schema")
        if isinstance(schema, int) and schema > SCHEMA_VERSION:
            return "newer-schema"
        key = record.get("key")
        if not isinstance(key, str) or record.get("layer") != layer:
            return "malformed"
        if record.get("deleted"):
            return None
        payload = record.get("payload")
        if not isinstance(payload, dict):
            return "malformed"
        expected = record_checksum(layer, key, record.get("fingerprint"),
                                   payload)
        if record.get("sum") != expected:
            return "checksum"
        return None

    def _quarantine(self, layer: str, reason: str, lineno: int,
                    key: Optional[str] = None) -> None:
        self.quarantined[reason] = self.quarantined.get(reason, 0) + 1
        obs.counter("persist.cache.quarantined").inc()
        obs.counter(f"persist.cache.quarantined.{reason}").inc()
        obs.event("persist.quarantine", layer=layer, reason=reason,
                  line=lineno, key=key)

    # -- maintenance (the `feam cache` verbs) --------------------------

    def _scan(self, layer: str) -> tuple[list, dict]:
        """One segment's fsck: (ordered valid records, issue counts).

        Reads the real bytes on disk -- independent of the in-memory
        index and of any installed fault plan -- so ``verify`` reports
        what a fresh process would find.
        """
        segment = self._segments[layer]
        issues = {"torn_tail": 0, "torn_write": 0, "checksum": 0,
                  "newer_schema": 0, "malformed": 0}
        by_key: dict[str, dict] = {}
        if not os.path.exists(segment.path):
            return [], issues
        with open(segment.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        last_content = max(
            (i for i, line in enumerate(lines) if line.strip()),
            default=-1)
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not an object")
            except ValueError:
                issues["torn_tail" if lineno == last_content
                       else "torn_write"] += 1
                continue
            issue = self._vet(layer, record)
            if issue is not None:
                issues[issue.replace("-", "_")] += 1
                continue
            if record.get("deleted"):
                by_key.pop(record["key"], None)
            else:
                by_key[record["key"]] = record
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
        corrupt/torn/superseded/tombstoned lines drop, and the
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
                            segment.index.pop(key, None)
                            segment.fingerprints.pop(key, None)
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
                segment.fingerprints.clear()
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
