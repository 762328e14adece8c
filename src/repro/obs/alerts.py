"""Multi-window burn-rate alerting with an incident timeline.

The SLO layer (:mod:`repro.obs.slo`) answers "is this snapshot
healthy?"; this module answers the operational question behind it:
"should someone be paged, since when, and has it recovered?".  Three
pieces:

* **Burn-rate evaluation** -- every :class:`AlertRule` wraps one SLO
  rule (same grammar, same severity vocabulary) in a fast/slow window
  pair a la the SRE workbook, discretised over evaluation *ticks*: a
  rule's condition holds when it violated on **every** tick of the
  fast window AND on at least ``slow_fraction`` of the slow window.
  The fast window makes alerts responsive, the slow window stops a
  single bad scrape from paging.
* **A real state machine** -- each alert (dedup key = the rule name,
  or ``anomaly:<feature>:<group>`` for detector conditions) moves
  ``inactive -> pending -> firing -> resolved``.  ``for_ticks``
  damping holds an alert in ``pending`` until the condition has been
  true that many consecutive ticks; a condition that clears while
  pending is cancelled back to ``inactive`` without ever paging.
* **An incident timeline** -- every transition is one schema-versioned
  JSONL record (reusing :mod:`repro.util.jsonl`), one structured
  ``alert.transition`` obs event, and one fan-out to the pluggable
  sinks (:class:`StderrSink` one-liners, :class:`JsonlSink` files,
  :class:`MemorySink` for tests).

Determinism contract: timeline records carry *logical* ticks and
sequence numbers, never wall timestamps, and the default alert rules
read only deterministic (simulated/count-based) metrics -- so two
same-seed chaos runs replay to byte-identical timelines, which the
``alert-gate`` CI job asserts with ``cmp``.

Like the rest of ``repro.obs`` this is a strictly lower layer: wide
events arrive as plain dicts, and engine-aware feature extraction for
the anomaly detector lives in ``repro.core.engine.anomaly_features``.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import deque
from typing import Iterable, Optional, Sequence

from repro import obs
from repro.obs import slo as slo_mod
from repro.obs.ledger import numeric_metrics
from repro.util.jsonl import JsonlAppender, read_jsonl

#: Incident-timeline record schema.  Bump on breaking shape changes;
#: readers refuse newer records (same discipline as the wide-event and
#: ledger schemas).
SCHEMA_VERSION = 1

#: Alert states, in lifecycle order.
STATES = ("inactive", "pending", "firing", "resolved")


@dataclasses.dataclass(frozen=True)
class BurnWindows:
    """One fast/slow evaluation-window pair, in ticks.

    ``fast`` ticks must *all* violate and at least ``slow_fraction``
    of the last ``slow`` ticks must violate for the condition to hold.
    Windows shorter than their nominal size (early in a run) evaluate
    over what exists -- an alert engine that cannot fire until tick 6
    would miss every short replay.
    """

    fast: int = 2
    slow: int = 6
    slow_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.fast < 1 or self.slow < self.fast:
            raise ValueError(
                f"burn windows need 1 <= fast <= slow, got "
                f"fast={self.fast} slow={self.slow}")
        if not 0.0 < self.slow_fraction <= 1.0:
            raise ValueError(f"slow_fraction must be in (0, 1], got "
                             f"{self.slow_fraction}")

    @classmethod
    def parse(cls, text: str) -> "BurnWindows":
        """Parse ``FAST:SLOW`` or ``FAST:SLOW:FRACTION`` (e.g. 2:6:0.5)."""
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"unparsable burn windows {text!r} "
                             f"(expected FAST:SLOW or FAST:SLOW:FRACTION)")
        try:
            fast, slow = int(parts[0]), int(parts[1])
            fraction = float(parts[2]) if len(parts) == 3 else 0.5
        except ValueError:
            raise ValueError(f"unparsable burn windows {text!r} "
                             f"(numbers expected)") from None
        return cls(fast=fast, slow=slow, slow_fraction=fraction)


@dataclasses.dataclass(frozen=True)
class AlertRule:
    """One SLO rule armed with burn windows and for-duration damping."""

    slo: slo_mod.SloRule
    windows: BurnWindows = BurnWindows()
    for_ticks: int = 2

    @property
    def key(self) -> str:
        """The dedup key: one live alert per rule, however often it
        re-evaluates."""
        return f"slo:{self.slo.name}"

    @property
    def severity(self) -> str:
        return self.slo.severity


def alert_rules(slo_rules: Sequence[slo_mod.SloRule],
                windows: Optional[BurnWindows] = None,
                for_ticks: int = 2) -> tuple[AlertRule, ...]:
    """Arm every SLO rule with the same windows and damping."""
    windows = windows or BurnWindows()
    return tuple(AlertRule(slo=rule, windows=windows,
                           for_ticks=max(1, int(for_ticks)))
                 for rule in slo_rules)


#: The default alert set for live metrics snapshots and wide-event
#: replays.  Deliberately narrower than ``slo.DEFAULT_RULES``: wall
#: clocks are host-dependent (they would break the
#: byte-identical-timeline guarantee), and the cache hit rate is a
#: warm-run objective that a legitimate cold run undercuts.  What
#: remains is deterministic per seed.
DEFAULT_ALERT_SLOS: tuple[slo_mod.SloRule, ...] = tuple(
    slo_mod.parse_rules("""
        matrix.unknown_cells.pct    <= 10      [critical]
        matrix.cells.total          >  0       [critical]
        resilience.faults.injected  <= 0   ?   [critical]
        resilience.retries.total    <= 0   ?   [warn]
    """))

#: The default alert set for run-ledger replays: manifests flatten to
#: ``rollup.*`` keys (:func:`repro.obs.ledger.numeric_metrics`), not
#: live instrument names.
DEFAULT_LEDGER_SLOS: tuple[slo_mod.SloRule, ...] = tuple(
    slo_mod.parse_rules("""
        rollup.cells                >  0       [critical]
        rollup.faults_injected      <= 0   ?   [critical]
        rollup.retries              <= 0   ?   [warn]
    """))


def default_alert_rules(windows: Optional[BurnWindows] = None,
                        for_ticks: int = 2) -> tuple[AlertRule, ...]:
    return alert_rules(DEFAULT_ALERT_SLOS, windows=windows,
                       for_ticks=for_ticks)


# ---------------------------------------------------------------------------
# Sinks

class MemorySink:
    """Collects transition records in a list (tests, ``/alerts``)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class StderrSink:
    """One human-readable line per transition (default: stderr)."""

    def __init__(self, stream=None) -> None:
        self._stream = stream

    def emit(self, record: dict) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        detail = ""
        if record.get("observed") is not None:
            detail = f"  observed={record['observed']:g}"
            if record.get("threshold") is not None:
                detail += f" threshold={record['threshold']:g}"
        stream.write(
            f"alert {record['to'].upper():<8} [{record['severity']}] "
            f"{record['alert']}  (tick {record['tick']}){detail}\n")

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends each transition to an incident-timeline JSONL file."""

    def __init__(self, path: str) -> None:
        self._appender = JsonlAppender(path)
        self.path = path

    @property
    def written(self) -> int:
        return self._appender.written

    def emit(self, record: dict) -> None:
        self._appender.append(record)

    def close(self) -> None:
        self._appender.close()


def read_timeline(path: str) -> list[dict]:
    """Load an incident timeline, refusing newer-schema records."""
    def check(lineno: int, record: dict) -> bool:
        schema = record.get("schema", SCHEMA_VERSION)
        if isinstance(schema, int) and schema > SCHEMA_VERSION:
            raise ValueError(
                f"timeline line {lineno}: schema {schema} is newer "
                f"than this reader (understands <= {SCHEMA_VERSION})")
        return True

    return read_jsonl(path, check=check, label="timeline")


# ---------------------------------------------------------------------------
# The engine

@dataclasses.dataclass
class _AlertState:
    """Mutable per-key lifecycle state inside the engine."""

    key: str
    severity: str
    rule: Optional[AlertRule] = None
    state: str = "inactive"
    since_tick: Optional[int] = None      # when the current state began
    consecutive: int = 0                  # condition-true ticks in a row
    burn_fast: Optional[float] = None
    burn_slow: Optional[float] = None
    observed: Optional[float] = None
    context: dict = dataclasses.field(default_factory=dict)
    history: deque = dataclasses.field(default_factory=deque)

    def status(self) -> dict:
        """The JSON-ready status row (``/alerts``, ``--json``)."""
        return {
            "alert": self.key,
            "severity": self.severity,
            "state": self.state,
            "since_tick": self.since_tick,
            "rule": self.rule.slo.name if self.rule is not None else None,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "observed": self.observed,
            "context": dict(self.context),
        }


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(float(value), 6)


class AlertEngine:
    """Evaluates alert rules tick by tick and runs the state machine.

    One :meth:`observe` call is one evaluation tick: every rule is
    checked against the metrics *snapshot* (a
    ``MetricsRegistry.to_dict`` dict), burn rates update, and state
    transitions fan out to the sinks, the obs facade (one
    ``alert.transition`` event + ``alerts.transitions`` counter per
    transition, ``alerts.firing``/``alerts.pending``/
    ``alerts.firing.critical`` gauges per tick) and the in-memory
    transition log.  External conditions (the anomaly detector) enter
    through :meth:`observe_anomalies` / :meth:`set_condition` and share
    the same machine and dedup space.
    """

    def __init__(self, rules: Optional[Sequence[AlertRule]] = None,
                 sinks: Sequence = (), emit_obs: bool = True) -> None:
        self.rules: tuple[AlertRule, ...] = (
            tuple(rules) if rules is not None else default_alert_rules())
        self.sinks = list(sinks)
        self.emit_obs = emit_obs
        self.tick = 0
        self.transitions: list[dict] = []
        self._states: dict[str, _AlertState] = {}
        for rule in self.rules:
            self._states[rule.key] = _AlertState(
                key=rule.key, severity=rule.severity, rule=rule,
                history=deque(maxlen=rule.windows.slow))

    # -- evaluation ------------------------------------------------------

    def observe(self, snapshot: dict,
                context: Optional[dict] = None) -> list[dict]:
        """One evaluation tick; returns this tick's transitions."""
        self.tick += 1
        emitted: list[dict] = []
        for rule in self.rules:
            state = self._states[rule.key]
            observed, violated = rule.slo.judge(snapshot)
            state.history.append(1 if violated else 0)
            windows = rule.windows
            fast = list(state.history)[-windows.fast:]
            state.burn_fast = _round(sum(fast) / len(fast))
            state.burn_slow = _round(
                sum(state.history) / len(state.history))
            state.observed = _round(observed) \
                if observed is not None else None
            condition = (state.burn_fast >= 1.0 - 1e-9
                         and state.burn_slow
                         >= windows.slow_fraction - 1e-9)
            if context:
                state.context = dict(context)
            emitted.extend(self._step(state, condition,
                                      for_ticks=rule.for_ticks))
        self._publish_gauges()
        return emitted

    def set_condition(self, key: str, active: bool,
                      severity: str = "warn",
                      context: Optional[dict] = None,
                      for_ticks: int = 1) -> list[dict]:
        """Drive one externally-evaluated condition (dedup by *key*)."""
        state = self._states.get(key)
        if state is None:
            state = _AlertState(key=key, severity=severity)
            self._states[key] = state
        if context:
            state.context = dict(context)
        emitted = self._step(state, active, for_ticks=max(1, for_ticks))
        self._publish_gauges()
        return emitted

    def observe_anomalies(self, anomalies: Iterable) -> list[dict]:
        """Fold a detector pass in: new anomalies raise conditions,
        vanished ones clear them (their alerts resolve)."""
        emitted: list[dict] = []
        seen: set[str] = set()
        for anomaly in anomalies:
            seen.add(anomaly.key)
            emitted.extend(self.set_condition(
                anomaly.key, True, severity=anomaly.severity,
                context=anomaly.to_dict()))
        for key, state in sorted(self._states.items()):
            if key.startswith("anomaly:") and key not in seen:
                emitted.extend(self.set_condition(
                    key, False, severity=state.severity))
        return emitted

    # -- the state machine ----------------------------------------------

    def _step(self, state: _AlertState, condition: bool,
              for_ticks: int) -> list[dict]:
        emitted: list[dict] = []
        if condition:
            state.consecutive += 1
            if state.state in ("inactive", "resolved"):
                emitted.append(self._transition(state, "pending"))
                state.consecutive = 1
            if state.state == "pending" \
                    and state.consecutive >= for_ticks:
                emitted.append(self._transition(state, "firing"))
        else:
            state.consecutive = 0
            if state.state == "pending":
                # Damped: the condition cleared before for_ticks --
                # nobody is paged, but the timeline shows the wobble.
                emitted.append(self._transition(state, "inactive"))
            elif state.state == "firing":
                emitted.append(self._transition(state, "resolved"))
        return emitted

    def _transition(self, state: _AlertState, to_state: str) -> dict:
        record = {
            "schema": SCHEMA_VERSION,
            "seq": len(self.transitions) + 1,
            "tick": self.tick,
            "alert": state.key,
            "severity": state.severity,
            "from": state.state,
            "to": to_state,
            "rule": (state.rule.slo.name if state.rule is not None
                     else None),
            "observed": state.observed,
            "threshold": (state.rule.slo.threshold
                          if state.rule is not None else None),
            "burn_fast": state.burn_fast,
            "burn_slow": state.burn_slow,
            "context": dict(state.context),
        }
        state.state = to_state
        state.since_tick = self.tick
        self.transitions.append(record)
        for sink in self.sinks:
            sink.emit(record)
        if self.emit_obs:
            obs.event("alert.transition", alert=state.key,
                      severity=state.severity,
                      from_state=record["from"], to_state=to_state,
                      tick=self.tick, rule=record["rule"],
                      observed=record["observed"])
            obs.counter("alerts.transitions").inc()
        return record

    def _publish_gauges(self) -> None:
        if not self.emit_obs:
            return
        obs.gauge("alerts.firing").set(len(self.firing))
        obs.gauge("alerts.pending").set(len(self.pending))
        obs.gauge("alerts.firing.critical").set(
            sum(1 for status in self.firing
                if status["severity"] == "critical"))

    # -- state views -----------------------------------------------------

    def _by_state(self, word: str) -> list[dict]:
        return [state.status()
                for key, state in sorted(self._states.items())
                if state.state == word]

    @property
    def firing(self) -> list[dict]:
        return self._by_state("firing")

    @property
    def pending(self) -> list[dict]:
        return self._by_state("pending")

    @property
    def has_critical_firing(self) -> bool:
        return any(status["severity"] == "critical"
                   for status in self.firing)

    def to_dict(self) -> dict:
        """The ``/alerts`` endpoint / ``feam alerts --json`` payload."""
        return {
            "schema": SCHEMA_VERSION,
            "tick": self.tick,
            "transitions": len(self.transitions),
            "firing": self.firing,
            "pending": self.pending,
            "alerts": [state.status() for _key, state
                       in sorted(self._states.items())
                       if state.state != "inactive"
                       or state.since_tick is not None],
        }

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# ---------------------------------------------------------------------------
# Replay: wide-event and ledger streams as evaluation ticks

def wide_snapshots(records: Sequence[dict], batch: int = 10):
    """Wide events folded into cumulative metric snapshots, one per
    *batch* records (plus a final partial batch).

    Yields ``(snapshot, context)`` pairs: the snapshot carries the
    same gauge names the live engine publishes
    (``matrix.unknown_cells.pct``, ``resilience.faults.injected``,
    ...) so one rules vocabulary covers live and replayed streams; the
    context carries fault provenance (cumulative per-kind counts) for
    the incident timeline.  Wall-clock fields are deliberately never
    aggregated -- replaying two same-seed runs must produce identical
    snapshots.
    """
    batch = max(1, int(batch))
    cells = unknown = faults = retries = hits = lookups = 0
    fault_kinds: dict[str, int] = {}
    pending = 0
    for record in records:
        cells += 1
        pending += 1
        if record.get("outcome") == "unknown":
            unknown += 1
        kind = record.get("fault_kind")
        if kind:
            faults += 1
            fault_kinds[kind] = fault_kinds.get(kind, 0) + 1
        attempts = record.get("attempts")
        if isinstance(attempts, (int, float)) and attempts > 1:
            retries += int(attempts) - 1
        for field in ("description_hit", "discovery_hit",
                      "evaluation_hit"):
            value = record.get(field)
            if value is not None:
                lookups += 1
                hits += 1 if value else 0
        if pending >= batch:
            yield _wide_snapshot(cells, unknown, faults, retries,
                                 hits, lookups), \
                {"cells": cells,
                 "fault_kinds": dict(sorted(fault_kinds.items()))}
            pending = 0
    if pending:
        yield _wide_snapshot(cells, unknown, faults, retries,
                             hits, lookups), \
            {"cells": cells,
             "fault_kinds": dict(sorted(fault_kinds.items()))}


def _wide_snapshot(cells, unknown, faults, retries, hits, lookups):
    gauges = {
        "matrix.cells.total": float(cells),
        "matrix.unknown_cells.pct": round(100.0 * unknown / cells, 6)
        if cells else 0.0,
        "resilience.faults.injected": float(faults),
        "resilience.retries.total": float(retries),
    }
    if lookups:
        gauges["engine.cache.hit_rate"] = round(hits / lookups, 6)
    return {"counters": {}, "gauges": gauges, "histograms": {}}


def replay_wide(records: Sequence[dict], engine: AlertEngine,
                batch: int = 10) -> int:
    """Replay wide events through *engine*; returns the tick count."""
    ticks = 0
    for snapshot, context in wide_snapshots(records, batch=batch):
        engine.observe(snapshot, context=context)
        ticks += 1
    return ticks


def replay_ledger(runs: Sequence[dict], engine: AlertEngine) -> int:
    """Replay ledger manifests (one run = one tick) through *engine*.

    Each manifest flattens to numeric gauges via
    :func:`repro.obs.ledger.numeric_metrics`, so rules use the
    ``rollup.*`` vocabulary (see :data:`DEFAULT_LEDGER_SLOS`).
    """
    ticks = 0
    for run in runs:
        snapshot = {"counters": {}, "gauges": numeric_metrics(run),
                    "histograms": {}}
        context = {key: run.get(key)
                   for key in ("run_id", "kind", "fault_profile")
                   if run.get(key) is not None}
        engine.observe(snapshot, context=context)
        ticks += 1
    return ticks


def render_alerts(engine: AlertEngine) -> str:
    """The ``feam alerts`` report: live states, then the tally."""
    lines = []
    active = [state for _key, state in sorted(engine._states.items())
              if state.state != "inactive"]
    for state in active:
        status = state.status()
        burn = ""
        if status["burn_fast"] is not None:
            burn = (f"  burn fast={status['burn_fast']:.2f}"
                    f"/slow={status['burn_slow']:.2f}")
        context = status["context"]
        provenance = ""
        if context.get("fault_kinds"):
            kinds = context["fault_kinds"]
            provenance = "  faults: " + ", ".join(
                f"{kind}={count}" for kind, count
                in sorted(kinds.items()))
        elif context.get("zscore") is not None:
            provenance = (f"  z={context['zscore']:.2f} "
                          f"value={context.get('value')}")
        lines.append(
            f"{status['state'].upper():<8} [{status['severity']}] "
            f"{status['alert']}  since tick "
            f"{status['since_tick']}{burn}{provenance}")
    firing = engine.firing
    critical = sum(1 for status in firing
                   if status["severity"] == "critical")
    lines.append(
        f"{len(firing)} firing ({critical} critical), "
        f"{len(engine.pending)} pending, "
        f"{len(engine.transitions)} transition(s) over "
        f"{engine.tick} tick(s)")
    return "\n".join(lines)


__all__ = [
    "SCHEMA_VERSION", "STATES", "BurnWindows", "AlertRule",
    "AlertEngine", "MemorySink", "StderrSink", "JsonlSink",
    "alert_rules", "default_alert_rules", "DEFAULT_ALERT_SLOS",
    "DEFAULT_LEDGER_SLOS", "read_timeline", "wide_snapshots",
    "replay_wide", "replay_ledger", "render_alerts",
]
