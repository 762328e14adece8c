"""``feam`` subcommand exit codes and the bench regression gate.

The contract (pinned here, relied on by CI): 0 = success, 1 =
operational error (missing/unreadable input), 2 = SLO violation, 3 =
performance regression.  The trace-driven subcommands (``top``,
``diff-trace``, ``slo --trace``) run on synthetic JSONL traces, so
these tests never build sites.
"""

import argparse
import importlib.util
import json
import pathlib
import sys

import pytest

from repro import obs
from repro.__main__ import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_SLO_VIOLATION,
    feam_main,
)
from repro.obs.ledger import RunLedger

_REPO = pathlib.Path(__file__).resolve().parents[1]
_FLAGS_GOLDEN = _REPO / "tests" / "golden" / "feam_flags.json"


def _load_check_regression():
    spec = importlib.util.spec_from_file_location(
        "check_regression",
        _REPO / "benchmarks" / "check_regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_trace(path, slow=1.0, hit_rate=0.7):
    """A small matrix-shaped trace with a metrics snapshot line."""
    with obs.capture() as collector:
        collector.metrics.gauge("engine.cache.hit_rate").set(hit_rate)
        collector.metrics.gauge("matrix.unknown_cells.pct").set(0.0)
        collector.metrics.gauge("matrix.cells.total").set(4)
        tracer = collector.tracer
        with tracer.span("engine.matrix") as matrix:
            with tracer.span("engine.site", site="fir") as site:
                with tracer.span("engine.cell") as cell:
                    pass
                cell.wall_seconds = 0.010 * slow
            site.wall_seconds = 0.012 * slow
        matrix.wall_seconds = 0.015 * slow
        obs.export.write_jsonl(str(path), collector)
    return path


class TestTop:
    def test_flame_table_and_critical_path(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl")
        assert feam_main(["top", str(trace), "--critical-path"]) \
            == EXIT_OK
        out = capsys.readouterr().out
        assert "engine.cell" in out
        assert "critical path (wall clock):" in out

    def test_missing_file_is_failure(self, tmp_path, capsys):
        assert feam_main(["top", str(tmp_path / "nope.jsonl")]) \
            == EXIT_FAILURE
        assert "cannot read trace" in capsys.readouterr().err

    def test_malformed_trace_is_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert feam_main(["top", str(bad)]) == EXIT_FAILURE
        assert "malformed trace" in capsys.readouterr().err


class TestDiffTrace:
    def test_no_gate_always_ok(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl")
        b = write_trace(tmp_path / "b.jsonl", slow=4.0)
        assert feam_main(["diff-trace", str(a), str(b)]) == EXIT_OK

    def test_gate_passes_identical_traces(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl")
        assert feam_main(["diff-trace", str(a), str(a),
                          "--fail-above", "1.25"]) == EXIT_OK

    def test_gate_trips_on_slowdown(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl")
        b = write_trace(tmp_path / "b.jsonl", slow=2.0)
        assert feam_main(["diff-trace", str(a), str(b),
                          "--fail-above", "1.25"]) == EXIT_REGRESSION
        assert "REGRESSION" in capsys.readouterr().err

    def test_min_wall_ignores_noise_frames(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl")
        b = write_trace(tmp_path / "b.jsonl", slow=2.0)
        # Every frame is under 0.1s baseline, and the overall gate is
        # 100x, so a huge --min-wall silences the per-frame checks.
        assert feam_main(["diff-trace", str(a), str(b),
                          "--fail-above", "100", "--min-wall", "1.0"]) \
            == EXIT_OK

    def test_missing_either_side_is_failure(self, tmp_path):
        a = write_trace(tmp_path / "a.jsonl")
        assert feam_main(["diff-trace", str(a),
                          str(tmp_path / "gone.jsonl")]) == EXIT_FAILURE


class TestSlo:
    def test_recorded_trace_pass(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl", hit_rate=0.9)
        assert feam_main(["slo", "--trace", str(trace)]) == EXIT_OK
        assert "all SLOs met" in capsys.readouterr().out

    def test_violation_exits_2(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl", hit_rate=0.1)
        assert feam_main(["slo", "--trace", str(trace)]) \
            == EXIT_SLO_VIOLATION
        assert "FAIL" in capsys.readouterr().out

    def test_custom_rules_file_and_json_output(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl", hit_rate=0.7)
        rules = tmp_path / "rules.txt"
        rules.write_text("engine.cache.hit_rate >= 0.99\n")
        assert feam_main(["slo", "--trace", str(trace),
                          "--rules", str(rules), "--json"]) \
            == EXIT_SLO_VIOLATION
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["results"][0]["observed"] == 0.7

    def test_bad_rules_file_is_failure(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl")
        rules = tmp_path / "rules.txt"
        rules.write_text("not a rule at all !!\n")
        assert feam_main(["slo", "--trace", str(trace),
                          "--rules", str(rules)]) == EXIT_FAILURE
        assert "bad rules file" in capsys.readouterr().err

    def test_missing_rules_file_is_failure(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl")
        assert feam_main(["slo", "--trace", str(trace),
                          "--rules", str(tmp_path / "none.txt")]) \
            == EXIT_FAILURE

    def test_missing_trace_is_failure(self, tmp_path):
        assert feam_main(["slo", "--trace",
                          str(tmp_path / "none.jsonl")]) == EXIT_FAILURE


class TestExitCodesAreDistinct:
    def test_the_contract(self):
        codes = {EXIT_OK, EXIT_FAILURE, EXIT_SLO_VIOLATION,
                 EXIT_REGRESSION}
        assert codes == {0, 1, 2, 3}


class TestCheckRegression:
    BASE = {
        "seed": 20130101, "binaries": 4, "sites": 5, "cells": 20,
        "cold_seconds": 0.6, "warm_seconds": 0.003,
        "reference_seconds": 0.12,
        "traced_seconds": 0.13, "warm_speedup": 186.8,
        "traced_overhead": 0.08, "trace_spans": 195,
        "cache": {"evaluation_hits": 60, "evaluation_misses": 20},
    }

    @pytest.fixture(scope="class")
    def gate(self):
        return _load_check_regression()

    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_identical_passes(self, gate, tmp_path):
        base = self._write(tmp_path, "base.json", self.BASE)
        assert gate.main(["--baseline", base, "--current", base]) == 0

    def test_injected_2x_warm_slowdown_fails(self, gate, tmp_path,
                                             capsys):
        base = self._write(tmp_path, "base.json", self.BASE)
        slowed = dict(self.BASE, warm_seconds=self.BASE["warm_seconds"]
                      * 2)
        curr = self._write(tmp_path, "curr.json", slowed)
        assert gate.main(["--baseline", base, "--current", curr]) \
            == EXIT_REGRESSION
        assert "warm_seconds" in capsys.readouterr().err

    def test_within_tolerance_passes(self, gate, tmp_path):
        base = self._write(tmp_path, "base.json", self.BASE)
        near = dict(self.BASE,
                    warm_seconds=self.BASE["warm_seconds"] * 1.2,
                    cold_seconds=self.BASE["cold_seconds"] * 0.9)
        curr = self._write(tmp_path, "curr.json", near)
        assert gate.main(["--baseline", base, "--current", curr]) == 0

    def test_shape_drift_fails_even_when_faster(self, gate, tmp_path,
                                                capsys):
        base = self._write(tmp_path, "base.json", self.BASE)
        drifted = dict(self.BASE, cells=10, warm_seconds=0.001)
        curr = self._write(tmp_path, "curr.json", drifted)
        assert gate.main(["--baseline", base, "--current", curr]) \
            == EXIT_REGRESSION
        assert "cells" in capsys.readouterr().err

    def test_cache_counter_drift_fails(self, gate, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", self.BASE)
        drifted = dict(self.BASE,
                       cache={"evaluation_hits": 0,
                              "evaluation_misses": 80})
        curr = self._write(tmp_path, "curr.json", drifted)
        assert gate.main(["--baseline", base, "--current", curr]) \
            == EXIT_REGRESSION
        assert "cache" in capsys.readouterr().err

    def test_missing_current_is_operational_failure(self, gate,
                                                    tmp_path, capsys):
        base = self._write(tmp_path, "base.json", self.BASE)
        assert gate.main(["--baseline", base,
                          "--current", str(tmp_path / "no.json")]) == 1
        assert "bench-matrix" in capsys.readouterr().err

    def test_speedup_collapse_fails(self, gate, tmp_path):
        base = self._write(tmp_path, "base.json", self.BASE)
        # Same timings but the warm cache stopped helping.
        collapsed = dict(self.BASE, warm_speedup=2.0)
        curr = self._write(tmp_path, "curr.json", collapsed)
        assert gate.main(["--baseline", base, "--current", curr]) \
            == EXIT_REGRESSION

    def test_faulted_benchmark_run_fails(self, gate, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", self.BASE)
        # Faults in a no-fault benchmark poison the timings -- gated
        # independently of the baseline (which predates the keys).
        poisoned = dict(self.BASE, faults_injected=3)
        curr = self._write(tmp_path, "curr.json", poisoned)
        assert gate.main(["--baseline", base, "--current", curr]) \
            == EXIT_REGRESSION
        assert "faults_injected" in capsys.readouterr().err

    def test_retry_poisoned_run_fails(self, gate, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", self.BASE)
        poisoned = dict(self.BASE, retries=2)
        curr = self._write(tmp_path, "curr.json", poisoned)
        assert gate.main(["--baseline", base, "--current", curr]) \
            == EXIT_REGRESSION
        assert "retries" in capsys.readouterr().err

    def test_explicit_zero_clean_counters_pass(self, gate, tmp_path):
        base = self._write(tmp_path, "base.json", self.BASE)
        clean = dict(self.BASE, faults_injected=0, retries=0)
        curr = self._write(tmp_path, "curr.json", clean)
        assert gate.main(["--baseline", base, "--current", curr]) == 0

    def test_profile_artifact_from_trace(self, gate, tmp_path):
        base = self._write(tmp_path, "base.json", self.BASE)
        trace = write_trace(tmp_path / "t.jsonl")
        out = tmp_path / "flame.json"
        assert gate.main(["--baseline", base, "--current", base,
                          "--trace", str(trace),
                          "--profile-out", str(out)]) == 0
        profile = json.loads(out.read_text())
        assert profile["span_count"] == 3
        assert "engine.cell" in profile["frames"]

    def test_committed_baseline_has_the_gated_shape(self, gate):
        payload = json.loads(
            (_REPO / "benchmarks" / "BENCH_baseline.json").read_text())
        for key in gate.SHAPE_KEYS + gate.TIMING_KEYS:
            assert key in payload, f"baseline misses {key}"
        assert payload["warm_speedup"] > 1


class TestBenchLedger:
    def test_fleet_run_records_one_manifest(self, tmp_path, monkeypatch):
        """A bench run's one record across runs is its ledger manifest:
        the run writes its out file and one ``fleet-bench`` manifest,
        and nothing else."""
        spec = importlib.util.spec_from_file_location(
            "emit_bench", _REPO / "benchmarks" / "emit_bench.py")
        emit_bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(emit_bench)
        monkeypatch.chdir(tmp_path)
        payload = emit_bench.run_fleet("fleet:n=3,seed=7",
                                       "BENCH_fleet.json", count=1,
                                       ledger_dir=str(tmp_path))
        written = sorted(str(path.relative_to(tmp_path))
                         for path in tmp_path.rglob("*"))
        assert written == ["BENCH_fleet.json", "runs.jsonl"]
        assert json.loads((tmp_path / "BENCH_fleet.json").read_text()) \
            == payload
        (run,) = RunLedger(str(tmp_path)).runs()
        assert run["kind"] == "fleet-bench"
        assert run["sites_spec"] == "fleet:n=3,seed=7"
        assert run["bench"]["cells"] == payload["cells"] == 3


class _Parsed(Exception):
    """Carries the parser out of a patched ``parse_args`` call."""


def feam_parser(monkeypatch) -> argparse.ArgumentParser:
    """The ``feam`` parser, captured as ``feam_main`` hands it argv."""
    def capture(parser, *args, **kwargs):
        raise _Parsed(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Parsed) as info:
        feam_main([])
    return info.value.args[0]


def _surface(action) -> dict:
    return {
        "action": type(action).__name__,
        "dest": action.dest,
        "type": getattr(action.type, "__name__", action.type),
        "default": action.default,
        "choices": (None if action.choices is None
                    else sorted(action.choices)),
        "nargs": action.nargs,
        "metavar": action.metavar,
        "required": action.required,
    }


def flag_surface(parser) -> dict:
    """Per verb: positionals in order, options by option string.

    Help strings are left out; so is option order, which only moves
    lines in ``--help``.
    """
    (verbs,) = [action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)]
    surface = {"": _surface(verbs)}
    for name, verb in sorted(verbs.choices.items()):
        surface[name] = {
            "positionals": [_surface(a) for a in verb._actions
                            if not a.option_strings],
            "options": {", ".join(a.option_strings): _surface(a)
                        for a in verb._actions if a.option_strings},
        }
    return surface


class TestFlagSurface:
    def test_every_verb_keeps_its_flags(self, monkeypatch):
        golden = json.loads(_FLAGS_GOLDEN.read_text())
        assert flag_surface(feam_parser(monkeypatch)) == golden
