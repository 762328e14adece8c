"""The run ledger warehouse and the cross-run compare/drift analysis.

Everything here is synthetic-manifest unit testing (no sites, no
engine): the warehouse contract (append, evict, torn tail, schema
skew, reference resolution) and the pure compare/gate/drift functions
CI's history-gate job leans on.  The end-to-end CLI path lives in
``tests/test_history_cli.py``.
"""

import json

import pytest

from repro.obs import compare as compare_mod
from repro.obs import ledger as ledger_mod
from repro.obs import slo as slo_mod
from repro.obs.ledger import RunLedger


def manifest(kind="matrix", seed=7, sim_mean=10.0, ts=None,
             run_id=None, blocked=0, **extra):
    """A minimal but representative run manifest."""
    built = {
        "kind": kind,
        "seed": seed,
        "sites_spec": "paper",
        "rollup": {
            "cells": 10,
            "outcomes": ({"ready": 10 - blocked, "unknown": blocked}
                         if blocked else {"ready": 10}),
            "cell_outcomes": {
                f"bin@site{i}": ("unknown" if i < blocked else "ready")
                for i in range(10)},
            "determinants": {
                "glibc": {
                    "outcomes": ({"fail": blocked} if blocked
                                 else {"pass": 10}),
                    "sim": ledger_mod.latency_digest(
                        [sim_mean] * blocked),
                },
            },
            "sim": ledger_mod.latency_digest([sim_mean] * 10),
            "cache": {"hit_rate": 0.5},
            "retries": 0,
            "faulted": blocked,
        },
        "phases": {
            "cell.sim": ledger_mod.latency_digest([sim_mean] * 10),
            "discover": ledger_mod.latency_digest([0.001] * 10),
        },
    }
    if ts is not None:
        built["ts"] = ts
    if run_id is not None:
        built["run_id"] = run_id
    built.update(extra)
    return built


class TestLatencyDigest:
    def test_empty_population(self):
        digest = ledger_mod.latency_digest([])
        assert digest["count"] == 0
        assert digest["mean"] is None
        assert digest["p95"] is None

    def test_single_value_percentiles_collapse(self):
        digest = ledger_mod.latency_digest([3.5])
        assert digest == {"count": 1, "sum": 3.5, "min": 3.5,
                          "max": 3.5, "mean": 3.5, "p50": 3.5,
                          "p95": 3.5}

    def test_exact_percentiles(self):
        digest = ledger_mod.latency_digest(range(1, 101))
        assert digest["p50"] == 50
        assert digest["p95"] == 95


class TestRunLedger:
    def test_record_mints_identity(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        written = ledger.record(manifest())
        assert written["schema"] == ledger_mod.SCHEMA_VERSION
        assert written["ts"].endswith("Z")
        # Sortable stamp + 8-hex digest suffix.
        stamp, _, suffix = written["run_id"].rpartition("-")
        assert len(suffix) == 8
        assert stamp == written["ts"].replace("-", "").replace(":", "")

    def test_two_records_two_distinct_lines(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        a = ledger.record(manifest())
        b = ledger.record(manifest())
        runs = ledger.runs()
        assert [run["run_id"] for run in runs] \
            == [a["run_id"], b["run_id"]]
        assert a["run_id"] != b["run_id"]

    def test_missing_store_reads_empty(self, tmp_path):
        assert RunLedger(str(tmp_path / "nope")).runs() == []

    def test_default_directory_is_env_then_dot_feam(self, tmp_path,
                                                    monkeypatch):
        # The directory rule lives here alone: an explicit directory
        # (--ledger), else $FEAM_LEDGER_DIR, else .feam/runs.
        monkeypatch.setenv("FEAM_LEDGER_DIR", str(tmp_path / "env"))
        assert RunLedger().directory == str(tmp_path / "env")
        assert RunLedger(str(tmp_path / "flag")).directory \
            == str(tmp_path / "flag")
        monkeypatch.delenv("FEAM_LEDGER_DIR")
        assert RunLedger().directory == ledger_mod.DEFAULT_DIR

    def test_eviction_drops_oldest(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"), max_runs=2)
        ids = [ledger.record(manifest(run_id=f"run-{i}"))["run_id"]
               for i in range(4)]
        assert [run["run_id"] for run in ledger.runs()] == ids[-2:]

    def test_torn_final_line_is_skipped(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        ledger.record(manifest(run_id="whole"))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "torn", "ki')
        assert [run["run_id"] for run in ledger.runs()] == ["whole"]

    def test_newer_schema_manifests_are_skipped(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        ledger.record(manifest(run_id="mine"))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"run_id": "future",
                 "schema": ledger_mod.SCHEMA_VERSION + 1}) + "\n")
        assert [run["run_id"] for run in ledger.runs()] == ["mine"]

    def test_resolve_references(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        for name in ("alpha-1", "alpha-2", "beta-1"):
            ledger.record(manifest(run_id=name))
        assert ledger.resolve("latest")["run_id"] == "beta-1"
        assert ledger.resolve("-1")["run_id"] == "beta-1"
        assert ledger.resolve("-3")["run_id"] == "alpha-1"
        assert ledger.resolve("beta")["run_id"] == "beta-1"
        assert ledger.resolve("alpha-2")["run_id"] == "alpha-2"
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.resolve("alpha")
        with pytest.raises(ValueError, match="no run matches"):
            ledger.resolve("gamma")
        with pytest.raises(ValueError, match="only holds 3"):
            ledger.resolve("-4")

    def test_resolve_on_empty_ledger(self, tmp_path):
        with pytest.raises(ValueError, match="has no runs"):
            RunLedger(str(tmp_path / "runs")).resolve("latest")


class TestFlatten:
    def test_nested_dotted_keys_and_list_lengths(self):
        flat = ledger_mod.flatten(
            {"a": {"b": {"c": 1}}, "items": [1, 2, 3], "name": "x"})
        assert flat == {"a.b.c": 1, "items": 3, "name": "x"}

    def test_numeric_metrics_exclude_bools_and_strings(self):
        nums = ledger_mod.numeric_metrics(
            {"n": 2, "f": 0.5, "flag": True, "name": "x",
             "none": None})
        assert nums == {"n": 2.0, "f": 0.5}


class TestCompareRuns:
    def test_outcome_flips_and_determinant_attribution(self):
        comparison = compare_mod.compare_runs(
            manifest(sim_mean=10.0),
            manifest(kind="chaos", sim_mean=11.0, blocked=4))
        flipped = {row["cell"] for row in comparison["flips"]}
        assert flipped == {f"bin@site{i}" for i in range(4)}
        det = {row["determinant"]: row
               for row in comparison["determinants"]}["glibc"]
        assert det["base_blocked"] == 0
        assert det["current_blocked"] == 4
        assert comparison["sim"]["ratio"] == pytest.approx(1.1)

    def test_added_and_removed_phases(self):
        base = manifest()
        curr = manifest()
        curr["phases"]["worker"] = ledger_mod.latency_digest([0.2])
        del curr["phases"]["discover"]
        status = {row["phase"]: row["status"]
                  for row in compare_mod.compare_runs(base,
                                                      curr)["phases"]}
        assert status["worker"] == "added"
        assert status["discover"] == "removed"
        assert status["cell.sim"] == "common"

    def test_bench_manifests_diff_numerically(self):
        base = {"kind": "bench", "bench": {"cold_seconds": 1.0}}
        curr = {"kind": "bench", "bench": {"cold_seconds": 2.0}}
        rows = compare_mod.compare_runs(base, curr)["bench"]
        assert rows == [{"metric": "bench.cold_seconds", "base": 1.0,
                         "current": 2.0, "ratio": 2.0}]

    def test_gate_trips_only_on_sim_rows(self):
        comparison = compare_mod.compare_runs(
            manifest(sim_mean=10.0), manifest(sim_mean=20.0))
        # Inflate a wall-clock phase far beyond the threshold: it must
        # not gate (host noise would make CI flaky), but the sim rows
        # must.
        for row in comparison["phases"]:
            if row["phase"] == "discover":
                row["ratio"] = 50.0
        rows = {entry["row"]
                for entry in compare_mod.gate(comparison, 1.5)}
        assert rows == {"sim (overall)", "phase cell.sim"}

    def test_gate_clean_on_identical_runs(self):
        comparison = compare_mod.compare_runs(manifest(), manifest())
        assert compare_mod.gate(comparison, 1.001) == []

    def test_render_mentions_the_regression(self):
        comparison = compare_mod.compare_runs(
            manifest(sim_mean=10.0), manifest(sim_mean=20.0))
        text = compare_mod.render_comparison(comparison,
                                             fail_above=1.5)
        assert "REGRESSION" in text
        assert "sim (overall): x2" in text


class TestDrift:
    def test_empty_ledger_raises(self):
        with pytest.raises(ValueError, match="at least one run"):
            compare_mod.drift([])

    def test_baseline_filters_by_kind(self):
        runs = [manifest(kind="chaos", sim_mean=50.0),
                manifest(sim_mean=10.0),
                manifest(sim_mean=10.0)]
        report = compare_mod.drift(runs, tolerance=0.25)
        assert report["kind"] == "matrix"
        assert report["baseline_runs"] == 1
        assert report["excursions"] == []

    def test_excursion_flags_the_moved_metric(self):
        runs = [manifest(sim_mean=10.0), manifest(sim_mean=20.0)]
        report = compare_mod.drift(runs, tolerance=0.25)
        moved = {entry["metric"] for entry in report["excursions"]}
        assert "rollup.sim.mean" in moved

    def test_identical_runs_under_host_noise_have_no_excursions(self):
        # Three identical runs whose only differences are host noise:
        # every wall-clock phase, the wall rollup and a determinant's
        # wall digest move by x0.4-x2.5.  None of that is drift.
        runs = []
        for scale in (1.0, 0.4, 2.5):
            run = manifest(blocked=2)
            noisy = [0.02 * scale] * 10
            run["phases"]["discover"] = ledger_mod.latency_digest(noisy)
            run["phases"]["cell.wall"] = ledger_mod.latency_digest(noisy)
            run["rollup"]["wall"] = ledger_mod.latency_digest(noisy)
            run["rollup"]["determinants"]["glibc"]["wall"] = \
                ledger_mod.latency_digest(noisy[:2])
            runs.append(run)
        report = compare_mod.drift(runs, window=1, tolerance=0.25)
        assert report["excursions"] == []
        assert report["metrics_checked"] > 0

    def test_wall_digest_counts_still_drift(self):
        runs = [manifest(), manifest()]
        runs[0]["rollup"]["wall"] = ledger_mod.latency_digest([0.1] * 10)
        runs[1]["rollup"]["wall"] = ledger_mod.latency_digest([0.1] * 20)
        report = compare_mod.drift(runs, tolerance=0.25)
        assert [e["metric"] for e in report["excursions"]] == \
            ["rollup.wall.count"]

    @pytest.mark.parametrize("metric, wall", [
        ("phases.discover.mean", True),
        ("phases.cell.wall.p95", True),
        ("phases.cell.wall.count", False),
        ("phases.cell.sim.mean", False),
        ("rollup.wall.max", True),
        ("rollup.wall.count", False),
        ("rollup.determinants.mpi-stack.wall.sum", True),
        ("rollup.determinants.mpi-stack.sim.sum", False),
        ("rollup.sim.mean", False),
        ("rollup.cells", False),
    ])
    def test_wall_clock_metric(self, metric, wall):
        assert compare_mod.wall_clock_metric(metric) is wall

    def test_sign_flip_ratio_does_not_crash(self):
        # A metric that crosses zero (traced_overhead does) must sort
        # as a maximal excursion, not raise a math domain error.
        runs = [{"kind": "bench", "bench": {"overhead": 0.5}},
                {"kind": "bench", "bench": {"overhead": -0.5}}]
        report = compare_mod.drift(runs, tolerance=0.1)
        assert report["excursions"][0]["metric"] == "bench.overhead"

    def test_zero_baseline_excursion(self):
        runs = [manifest(), manifest()]
        runs[0]["rollup"]["retries"] = 0
        runs[1]["rollup"]["retries"] = 7
        report = compare_mod.drift(runs, tolerance=0.25)
        entry = {e["metric"]: e for e in report["excursions"]}[
            "rollup.retries"]
        assert entry["ratio"] is None

    def test_slo_rules_evaluate_against_flat_metrics(self):
        runs = [manifest(), manifest()]
        rules = slo_mod.parse_rules("rollup.cells >= 100")
        report = compare_mod.drift(runs, rules=rules)
        assert report["slo_ok"] is False
        report = compare_mod.drift(
            runs, rules=slo_mod.parse_rules("rollup.cells >= 10"))
        assert report["slo_ok"] is True
