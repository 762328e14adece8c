"""The burn-rate alert engine: windows, state machine, replay, sinks.

The state-machine tests drive synthetic conditions tick by tick and
assert the full lifecycle (pending damping, firing, resolution, the
damped cancel that never pages); the replay tests fold real-shaped
wide events and ledger manifests into evaluation ticks; the
determinism tests replay the same stream twice and require identical
transition records -- the property the alert-gate CI job then holds
at the byte level.
"""

import json

import pytest

from repro import obs
from repro.obs import alerts as alerts_mod
from repro.obs import slo as slo_mod
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    BurnWindows,
    JsonlSink,
    MemorySink,
    StderrSink,
    alert_rules,
    read_timeline,
    render_alerts,
    replay_ledger,
    replay_wide,
    wide_snapshots,
)


def _snapshot(**gauges):
    return {"counters": {}, "gauges": dict(gauges), "histograms": {}}


def _rule(line, fast=1, slow=1, for_ticks=1):
    return AlertRule(slo=slo_mod.parse_rule(line),
                     windows=BurnWindows(fast=fast, slow=slow),
                     for_ticks=for_ticks)


class TestBurnWindows:
    def test_parse_two_and_three_part_forms(self):
        assert BurnWindows.parse("2:6") \
            == BurnWindows(fast=2, slow=6, slow_fraction=0.5)
        assert BurnWindows.parse("3:12:0.25") \
            == BurnWindows(fast=3, slow=12, slow_fraction=0.25)

    @pytest.mark.parametrize("text", ["", "2", "2:6:0.5:9", "a:b",
                                      "2:1", "0:6"])
    def test_bad_windows_raise(self, text):
        with pytest.raises(ValueError):
            BurnWindows.parse(text)

    def test_fraction_out_of_range_raises(self):
        with pytest.raises(ValueError):
            BurnWindows(fast=1, slow=2, slow_fraction=0.0)
        with pytest.raises(ValueError):
            BurnWindows(fast=1, slow=2, slow_fraction=1.5)


class TestAlertRule:
    def test_key_and_severity_come_from_the_slo_rule(self):
        rule = _rule("matrix.cells.total > 0 [critical]")
        assert rule.key == "slo:matrix.cells.total > 0"
        assert rule.severity == "critical"

    def test_alert_rules_arms_every_slo_rule(self):
        rules = alert_rules(slo_mod.parse_rules(
            "a >= 1\nb <= 2 [critical]"), for_ticks=3)
        assert [r.for_ticks for r in rules] == [3, 3]
        assert [r.severity for r in rules] == ["warn", "critical"]

    def test_default_alert_slos_are_deterministic_metrics_only(self):
        # Wall clocks, utilization and sampling counters are host
        # noise: a rule over them would break the byte-identical
        # timeline guarantee the alert gate enforces.
        for rule in alerts_mod.DEFAULT_ALERT_SLOS:
            assert "wall" not in rule.metric
            assert "utilization" not in rule.metric
            assert "sampling" not in rule.metric


class TestStateMachine:
    def test_lifecycle_pending_firing_resolved(self):
        engine = AlertEngine(
            rules=[_rule("x >= 1", for_ticks=2)], emit_obs=False)
        engine.observe(_snapshot(x=0))        # violated: pending
        assert [s["state"] for s in engine.pending] == ["pending"]
        engine.observe(_snapshot(x=0))        # 2nd tick: firing
        assert engine.firing and not engine.pending
        engine.observe(_snapshot(x=5))        # healthy: resolved
        assert not engine.firing
        states = [(r["from"], r["to"]) for r in engine.transitions]
        assert states == [("inactive", "pending"),
                          ("pending", "firing"),
                          ("firing", "resolved")]

    def test_damped_cancel_never_fires(self):
        engine = AlertEngine(
            rules=[_rule("x >= 1", for_ticks=3)], emit_obs=False)
        engine.observe(_snapshot(x=0))        # pending
        engine.observe(_snapshot(x=9))        # cleared before 3 ticks
        states = [(r["from"], r["to"]) for r in engine.transitions]
        assert states == [("inactive", "pending"),
                          ("pending", "inactive")]
        assert not engine.firing

    def test_for_ticks_one_fires_same_tick_as_pending(self):
        engine = AlertEngine(
            rules=[_rule("x >= 1", for_ticks=1)], emit_obs=False)
        emitted = engine.observe(_snapshot(x=0))
        assert [r["to"] for r in emitted] == ["pending", "firing"]

    def test_burn_windows_damp_a_single_bad_tick(self):
        # fast=2: one violating tick leaves burn_fast at 0.5 < 1.0,
        # so nothing even goes pending.
        engine = AlertEngine(
            rules=[_rule("x >= 1", fast=2, slow=4)], emit_obs=False)
        engine.observe(_snapshot(x=5))
        engine.observe(_snapshot(x=0))
        assert not engine.pending and not engine.firing
        engine.observe(_snapshot(x=0))        # two in a row: fires
        assert engine.firing

    def test_slow_window_fraction_gates_the_condition(self):
        # fast=1 but slow=4 @ 0.75: three healthy ticks of history
        # keep burn_slow at 0.25 after one violation.
        engine = AlertEngine(
            rules=[AlertRule(slo=slo_mod.parse_rule("x >= 1"),
                             windows=BurnWindows(fast=1, slow=4,
                                                 slow_fraction=0.75),
                             for_ticks=1)],
            emit_obs=False)
        for _ in range(3):
            engine.observe(_snapshot(x=5))
        engine.observe(_snapshot(x=0))
        assert not engine.pending and not engine.firing

    def test_absent_metric_violates_unless_optional(self):
        engine = AlertEngine(
            rules=[_rule("missing.metric > 0"),
                   _rule("optional.metric > 0 ?")],
            emit_obs=False)
        engine.observe(_snapshot())
        assert [s["alert"] for s in engine.firing] \
            == ["slo:missing.metric > 0"]

    def test_refiring_after_resolution(self):
        engine = AlertEngine(
            rules=[_rule("x >= 1", for_ticks=1)], emit_obs=False)
        engine.observe(_snapshot(x=0))
        engine.observe(_snapshot(x=5))
        engine.observe(_snapshot(x=0))
        assert [r["to"] for r in engine.transitions] \
            == ["pending", "firing", "resolved", "pending", "firing"]

    def test_set_condition_external_keys_share_the_machine(self):
        engine = AlertEngine(rules=[], emit_obs=False)
        engine.set_condition("anomaly:f:g", True, severity="critical")
        assert engine.has_critical_firing
        engine.set_condition("anomaly:f:g", False)
        assert not engine.firing
        assert [r["to"] for r in engine.transitions] \
            == ["pending", "firing", "resolved"]

    def test_observe_anomalies_resolves_vanished_keys(self):
        from repro.obs.anomaly import Anomaly

        engine = AlertEngine(rules=[], emit_obs=False)
        spike = Anomaly(feature="sim_seconds", group="g1", value=9.0,
                        median=1.0, mad=0.1, zscore=50.0,
                        severity="critical")
        engine.observe_anomalies([spike])
        assert engine.firing[0]["context"]["zscore"] == 50.0
        engine.observe_anomalies([])           # detector went quiet
        assert not engine.firing

    def test_observe_publishes_gauges(self):
        with obs.capture() as collector:
            engine = AlertEngine(
                rules=[_rule("x >= 1 [critical]", for_ticks=1)])
            engine.observe(_snapshot(x=0))
        gauges = collector.metrics.to_dict()["gauges"]
        assert gauges["alerts.firing"] == 1
        assert gauges["alerts.firing.critical"] == 1
        counters = collector.metrics.to_dict()["counters"]
        assert counters["alerts.transitions"] == 2

    def test_to_dict_shape(self):
        engine = AlertEngine(
            rules=[_rule("x >= 1", for_ticks=1)], emit_obs=False)
        engine.observe(_snapshot(x=0))
        payload = engine.to_dict()
        assert payload["schema"] == alerts_mod.SCHEMA_VERSION
        assert payload["tick"] == 1
        assert payload["transitions"] == 2
        assert payload["firing"][0]["rule"] == "x >= 1"


class TestSinks:
    def test_memory_and_jsonl_sinks_receive_every_transition(
            self, tmp_path):
        path = str(tmp_path / "timeline.jsonl")
        memory = MemorySink()
        engine = AlertEngine(
            rules=[_rule("x >= 1", for_ticks=1)],
            sinks=[memory, JsonlSink(path)], emit_obs=False)
        engine.observe(_snapshot(x=0))
        engine.observe(_snapshot(x=5))
        engine.close()
        assert [r["to"] for r in memory.records] \
            == ["pending", "firing", "resolved"]
        loaded = read_timeline(path)
        assert loaded == memory.records
        assert [r["seq"] for r in loaded] == [1, 2, 3]

    def test_read_timeline_refuses_newer_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"schema": alerts_mod.SCHEMA_VERSION + 1, "to": "firing"})
            + "\n")
        with pytest.raises(ValueError, match="newer"):
            read_timeline(str(path))

    def test_stderr_sink_one_line_per_transition(self):
        import io

        stream = io.StringIO()
        engine = AlertEngine(
            rules=[_rule("x >= 1 [critical]", for_ticks=1)],
            sinks=[StderrSink(stream)], emit_obs=False)
        engine.observe(_snapshot(x=0))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "FIRING" in lines[1] and "[critical]" in lines[1]
        assert "observed=0" in lines[1]


def _wide(outcome="no", fault_kind=None, attempts=1, hits=True):
    return {"site": "fir", "binary": "app", "outcome": outcome,
            "fault_kind": fault_kind, "attempts": attempts,
            "description_hit": hits, "discovery_hit": hits,
            "evaluation_hit": False, "wall_seconds": 0.123}


class TestWideReplay:
    def test_snapshots_fold_cumulative_counts(self):
        records = ([_wide()] * 8
                   + [_wide(outcome="unknown", fault_kind="read-error",
                            attempts=3)] * 2
                   + [_wide()] * 5)
        pairs = list(wide_snapshots(records, batch=10))
        assert len(pairs) == 2                 # 10 + partial 5
        first, second = pairs[0][0], pairs[1][0]
        assert first["gauges"]["matrix.cells.total"] == 10
        assert first["gauges"]["matrix.unknown_cells.pct"] == 20.0
        assert first["gauges"]["resilience.faults.injected"] == 2
        assert first["gauges"]["resilience.retries.total"] == 4
        assert second["gauges"]["matrix.cells.total"] == 15
        assert pairs[1][1]["fault_kinds"] == {"read-error": 2}

    def test_wall_seconds_never_enter_snapshots(self):
        (snapshot, _context), = wide_snapshots([_wide()], batch=1)
        assert not any("wall" in name for name in snapshot["gauges"])

    def test_faulty_stream_fires_with_provenance(self):
        records = [_wide(outcome="unknown", fault_kind="read-error",
                         attempts=2)] * 20
        engine = AlertEngine(emit_obs=False)
        ticks = replay_wide(records, engine, batch=10)
        assert ticks == 2
        assert engine.has_critical_firing
        firing = {s["alert"]: s for s in engine.firing}
        faults = firing["slo:resilience.faults.injected <= 0"]
        assert faults["context"]["fault_kinds"] == {"read-error": 20}

    def test_clean_stream_fires_nothing(self):
        engine = AlertEngine(emit_obs=False)
        replay_wide([_wide()] * 30, engine, batch=10)
        assert not engine.firing and not engine.pending
        assert engine.transitions == []

    def test_same_stream_replays_identically(self):
        records = [_wide(outcome="unknown", fault_kind="read-error",
                         attempts=2)] * 25
        runs = []
        for _ in range(2):
            engine = AlertEngine(emit_obs=False)
            replay_wide(records, engine, batch=10)
            runs.append(engine.transitions)
        assert runs[0] == runs[1]
        assert json.dumps(runs[0], sort_keys=True) \
            == json.dumps(runs[1], sort_keys=True)


class TestLedgerReplay:
    def test_manifests_tick_with_rollup_vocabulary(self):
        runs = [{"run_id": f"r-{i}", "kind": "chaos",
                 "fault_profile": "flaky",
                 "rollup": {"cells": 20, "faults_injected": 9,
                            "retries": 14}}
                for i in range(2)]
        engine = AlertEngine(
            rules=alert_rules(alerts_mod.DEFAULT_LEDGER_SLOS),
            emit_obs=False)
        assert replay_ledger(runs, engine) == 2
        assert engine.has_critical_firing
        assert engine.firing[0]["context"]["run_id"] == "r-1"


class TestRendering:
    def test_render_alerts_tally_and_provenance(self):
        records = [_wide(outcome="unknown", fault_kind="read-error",
                         attempts=2)] * 20
        engine = AlertEngine(emit_obs=False)
        replay_wide(records, engine, batch=10)
        text = render_alerts(engine)
        assert "FIRING" in text
        assert "faults: read-error=20" in text
        assert "2 tick(s)" in text

    def test_render_alerts_quiet_engine(self):
        engine = AlertEngine(emit_obs=False)
        assert render_alerts(engine) \
            == "0 firing (0 critical), 0 pending, 0 transition(s) " \
               "over 0 tick(s)"
