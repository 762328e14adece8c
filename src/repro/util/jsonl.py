"""Shared JSONL plumbing: torn-tail-tolerant reads, flushed appends.

Three subsystems share the same idiom -- the persistent evaluation
cache (:mod:`repro.core.persist`), the wide-event sink
(:class:`repro.obs.wide.WideEventSink`) and the run ledger
(:mod:`repro.obs.ledger`): append one JSON object per line, flush per
line so a killed process loses at most the in-flight record, and on
read tolerate a torn final line (the kill may have landed mid-write).
This module is the single home for that idiom.

* :func:`dump_line` -- the canonical serialisation (sorted keys, one
  line) every producer uses, so byte-identical records stay
  byte-identical on disk.
* :func:`parse_jsonl` / :func:`read_jsonl` -- decode JSONL back into
  records, skipping undecodable or non-object lines unless *strict*.
  An optional *check* callback vets each decoded record (e.g. the wide
  reader's refuse-newer-schema rule) and may raise ``ValueError`` or
  return ``False`` to skip the record.
* :func:`write_jsonl` -- whole-file rewrite (used by readers that
  compact, e.g. the ledger's oldest-run eviction).
* :func:`write_jsonl_atomic` -- the same rewrite via a temporary file
  and ``os.replace``, so a reader (or a kill) mid-rewrite sees either
  the old segment or the new one, never a half-written file.
* :func:`cap_jsonl` -- the shared size-cap/compaction step: rewrite a
  stream in place keeping the newest records under a count and/or byte
  cap, oldest evicted first, with a counter hook for the eviction
  tally.  Both the run ledger's oldest-run eviction and the persistent
  cache's segment compaction are this one helper.
* :class:`JsonlAppender` -- the thread-safe append-mode writer:
  open-append, write + flush per record, count what was written.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Callable, Iterable, Optional

#: Signature of the per-record vet hook: ``check(lineno, record)`` may
#: raise ``ValueError`` (always fatal) or return False to skip.
CheckFn = Callable[[int, dict], Optional[bool]]


def dump_line(record: dict) -> str:
    """One record as its canonical JSONL line (no trailing newline)."""
    return json.dumps(record, sort_keys=True)


def parse_jsonl(text: str, strict: bool = False,
                check: Optional[CheckFn] = None,
                label: str = "JSONL") -> list[dict]:
    """Decode JSONL *text* into records, tolerating a torn tail.

    Undecodable lines and non-object lines are skipped (the torn tail
    of a killed run) unless *strict*, in which case they raise
    ``ValueError`` naming the line.  *check* sees every decoded record
    and may raise ``ValueError`` (fatal regardless of *strict*) or
    return ``False`` to drop the record; *label* names the stream in
    error messages (``"wide-event line 3: invalid JSON"``).
    """
    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if strict:
                raise ValueError(f"{label} line {lineno}: invalid JSON")
            continue  # torn tail of a killed run
        if not isinstance(record, dict):
            if strict:
                raise ValueError(f"{label} line {lineno}: not an object")
            continue
        if check is not None and check(lineno, record) is False:
            continue
        records.append(record)
    return records


def read_jsonl(path: str, strict: bool = False,
               check: Optional[CheckFn] = None,
               label: str = "JSONL") -> list[dict]:
    """Load a JSONL file (torn-tail tolerant; see :func:`parse_jsonl`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_jsonl(handle.read(), strict=strict, check=check,
                           label=label)


def write_jsonl(path: str, records: Iterable[dict]) -> int:
    """Rewrite *path* with *records* as JSONL; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(dump_line(record) + "\n")
            count += 1
    return count


def write_jsonl_atomic(path: str, records: Iterable[dict]) -> int:
    """Rewrite *path* with *records* via temp-file + atomic rename.

    A reader that races the rewrite (or a kill that lands mid-write)
    sees either the complete old file or the complete new one.  The
    temporary file lives next to *path* so ``os.replace`` never
    crosses a filesystem boundary.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    count = 0
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(dump_line(record) + "\n")
                count += 1
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    return count


def cap_jsonl(path: str, records: list, *,
              max_records: Optional[int] = None,
              max_bytes: Optional[int] = None,
              counter: Optional[str] = None,
              always_rewrite: bool = False) -> int:
    """Size-cap a JSONL stream in place, oldest records evicted first.

    *records* is the stream's current content, oldest first (usually
    from :func:`read_jsonl`).  The newest records that fit under
    *max_records* and/or *max_bytes* (serialized line bytes including
    newlines) survive; the rest are evicted and counted on the obs
    counter named by *counter* (a no-op when no collector is
    installed).  The file is only rewritten when something was evicted
    -- the common under-cap append stays a single flushed write --
    unless *always_rewrite* forces the rewrite (compaction passes use
    this to drop superseded or corrupt lines even when the cap holds).
    Rewrites are atomic (:func:`write_jsonl_atomic`).  Returns how
    many records were evicted.
    """
    survivors = list(records)
    evicted = 0
    if max_records is not None and len(survivors) > max_records:
        evicted += len(survivors) - max_records
        survivors = survivors[len(survivors) - max_records:]
    if max_bytes is not None:
        sizes = [len(dump_line(record)) + 1 for record in survivors]
        total = sum(sizes)
        drop = 0
        while drop < len(survivors) and total > max_bytes:
            total -= sizes[drop]
            drop += 1
        if drop:
            evicted += drop
            survivors = survivors[drop:]
    if evicted or always_rewrite:
        write_jsonl_atomic(path, survivors)
    if evicted and counter is not None:
        from repro import obs
        obs.counter(counter).inc(evicted)
    return evicted


class JsonlAppender:
    """Thread-safe append-mode JSONL writer, flushed per record.

    The write discipline every checkpoint/telemetry stream shares: the
    file is opened for append (an existing stream is extended, never
    truncated), each record is written and flushed as one line, and
    ``written`` counts this writer's contributions.  A process killed
    mid-:meth:`append` leaves at most one torn line, which the readers
    above skip.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self.written = 0

    def append(self, record: dict) -> None:
        """Write one record as a flushed JSONL line."""
        self.append_line(dump_line(record))

    def append_line(self, line: str) -> None:
        """Write one pre-serialized line, flushed.

        The persistent cache uses this to write lines it has already
        serialized (its per-record checksum covers the exact bytes),
        including deliberately torn lines under chaos fault injection.
        """
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
