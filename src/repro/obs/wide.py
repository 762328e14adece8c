"""Wide events: one flat, schema-versioned record per evaluated cell.

At paper scale a span tree per cell is affordable; at fleet scale
(thousands of cells per run) it is not, and most triage questions --
"which cells degraded, on which sites, how slow were they" -- never
need the tree.  A *wide event* collapses everything the engine knows
about one finished cell into a single flat record: identity (site,
binary, content group), verdict (outcome word, per-determinant
verdicts), provenance (cache layers hit, cache tier, retries, fault
kind, breaker state), and both clocks (simulated FEAM seconds and real
wall seconds).  The wide event is the only per-cell telemetry record;
span trees are kept whole for drilling into one run (``--trace-out``,
``feam trace``).

The :class:`WideEventSink` buffers records in a bounded ring (oldest
records drop once the ring is full, counted in ``obs.wide.dropped``)
and optionally streams each record to a JSONL file as it is emitted,
flushed per line (:mod:`repro.util.jsonl`), so a killed run loses at
most the in-flight cell.  :func:`parse_jsonl` / :func:`read_jsonl`
tolerate a torn final line the same way.

The record layout is versioned: every record carries ``"schema":
SCHEMA_VERSION``.  Consumers (``feam query``, the telemetry gate)
should ignore unknown fields and refuse records from a *newer* schema
rather than misread them.  Schema 2 dropped schema 1's constant
scheduling fields and its resume and span-sampling flags; schema-1
records still read.

This module is part of the strictly-lower ``repro.obs`` layer: it
never imports from ``repro.core``.  The engine side that knows how to
flatten a matrix cell into a record lives in
:func:`repro.core.engine.wide_record`.
"""

from __future__ import annotations

import collections
import threading
from typing import Iterable, Optional

from repro.util import jsonl as _jsonl

#: Version of the wide-event record layout.  Bump when a field changes
#: meaning or disappears; adding fields is backwards-compatible.
SCHEMA_VERSION = 2

#: Fields every record carries (pinned by tests so producers and
#: consumers cannot silently drift apart).
CORE_FIELDS = (
    "schema", "site", "binary", "outcome", "ready", "faulted",
    "sim_seconds", "wall_seconds",
)


class WideEventSink:
    """A bounded, thread-safe buffer of wide-event records.

    *ring_size* bounds memory: once full, the oldest record is evicted
    per emit (``dropped`` counts evictions).  With *path*, every record
    is also appended to a JSONL file and flushed immediately, so the
    on-disk stream is complete even when the ring is not.

    Counters/gauges (no-ops when no collector is installed):

    * ``obs.wide.emitted`` -- records emitted;
    * ``obs.wide.dropped`` -- records evicted from the ring;
    * ``obs.wide.lag`` (gauge) -- records currently buffered in the
      ring and not yet drained by :meth:`drain` (how far a consumer
      that reads the ring is behind the producer).
    """

    def __init__(self, ring_size: int = 65536,
                 path: Optional[str] = None) -> None:
        self.ring_size = max(1, int(ring_size))
        self._ring: collections.deque = collections.deque(
            maxlen=self.ring_size)
        self._lock = threading.Lock()
        self.path = path
        self._appender = (_jsonl.JsonlAppender(path)
                          if path is not None else None)
        self.emitted = 0
        self.dropped = 0

    def emit(self, record: dict) -> None:
        """Buffer one record (and stream it to the file, if any)."""
        record.setdefault("schema", SCHEMA_VERSION)
        with self._lock:
            evicted = len(self._ring) == self.ring_size
            self._ring.append(record)
            self.emitted += 1
            if evicted:
                self.dropped += 1
            if self._appender is not None:
                self._appender.append(record)
            buffered = len(self._ring)
        from repro import obs
        obs.counter("obs.wide.emitted").inc()
        if evicted:
            obs.counter("obs.wide.dropped").inc()
        obs.gauge("obs.wide.lag").set(buffered)

    def events(self) -> list[dict]:
        """A snapshot of the buffered records, oldest first."""
        with self._lock:
            return list(self._ring)

    def drain(self) -> list[dict]:
        """Pop and return every buffered record (resets the lag gauge)."""
        with self._lock:
            drained = list(self._ring)
            self._ring.clear()
        from repro import obs
        obs.gauge("obs.wide.lag").set(0)
        return drained

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def close(self) -> None:
        with self._lock:
            if self._appender is not None:
                self._appender.close()
                self._appender = None

    def __enter__(self) -> "WideEventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def export_jsonl(self) -> str:
        """The buffered records as JSONL text (oldest first)."""
        return "".join(_jsonl.dump_line(record) + "\n"
                       for record in self.events())

    def write_jsonl(self, path: str) -> int:
        """Write the buffered records to *path*; returns the count."""
        return _jsonl.write_jsonl(path, self.events())


def _refuse_newer_schema(lineno: int, record: dict) -> None:
    schema = record.get("schema", SCHEMA_VERSION)
    if isinstance(schema, int) and schema > SCHEMA_VERSION:
        raise ValueError(
            f"wide-event line {lineno}: schema {schema} is newer "
            f"than this reader (understands <= {SCHEMA_VERSION})")


def parse_jsonl(text: str, strict: bool = False) -> list[dict]:
    """Decode wide-event JSONL back into records.

    Undecodable lines are skipped (the torn tail of a killed run)
    unless *strict*; records from a newer schema than this module
    understands raise ``ValueError`` either way -- misreading them
    would be worse than failing.
    """
    return _jsonl.parse_jsonl(text, strict=strict,
                              check=_refuse_newer_schema,
                              label="wide-event")


def read_jsonl(path: str, strict: bool = False) -> list[dict]:
    """Load a wide-event JSONL file (torn-tail tolerant)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_jsonl(handle.read(), strict=strict)


def write_jsonl(path: str, records: Iterable[dict]) -> int:
    """Write *records* to *path* as JSONL; returns the count."""
    return _jsonl.write_jsonl(path, records)
