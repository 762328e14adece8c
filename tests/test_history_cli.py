"""``feam runs`` / ``feam compare`` / ``feam drift`` end to end.

The ledger-backed CLI surface CI's history-gate job drives: matrix and
chaos invocations record manifests (two runs -> two entries), the
listing/show/import verbs round-trip them, and the compare gate exits
3 on an attributed slowdown while staying 0 on identical runs.  Also
pins the fail-fast paths: ``feam watch --attach`` against a dead
server and ``feam query`` on a missing file exit 1 with one clean
line, not a traceback or a poll loop.
"""

import json
import os

import pytest

from repro.__main__ import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_SLO_VIOLATION,
    feam_main,
)
from repro.obs.ledger import SCHEMA_VERSION, RunLedger, latency_digest


def ledger_dir():
    """The per-test warehouse the autouse conftest fixture points at."""
    return os.environ["FEAM_LEDGER_DIR"]


def seeded_ledger():
    """Two matrix manifests and one slower chaos manifest."""
    ledger = RunLedger(ledger_dir())
    for run_id, kind, mean in (("run-a", "matrix", 10.0),
                               ("run-b", "matrix", 10.0),
                               ("run-c", "chaos", 15.0)):
        ledger.record({
            "run_id": run_id, "kind": kind, "seed": 7,
            "rollup": {
                "cells": 10,
                "outcomes": {"ready": 10},
                "sim": latency_digest([mean] * 10),
                "cache": {"hit_rate": 0.5},
                "retries": 0, "faulted": 0,
            },
            "phases": {"cell.sim": latency_digest([mean] * 10)},
        })
    return ledger


class TestMatrixRecordsLedger:
    def test_two_invocations_two_entries(self, capsys):
        for _ in range(2):
            assert feam_main(["matrix", "--binaries", "1",
                              "--seed", "7"]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.count("ledger: run ") == 2
        runs = RunLedger(ledger_dir()).runs()
        assert len(runs) == 2
        assert {run["kind"] for run in runs} == {"matrix"}
        assert len({run["run_id"] for run in runs}) == 2
        rollup = runs[0]["rollup"]
        assert rollup["cells"] == 5            # 1 binary x 5 sites
        assert runs[0]["phases"]["cell.sim"]["count"] == 5
        assert runs[0]["config_fingerprint"]

    def test_no_ledger_records_nothing(self, capsys):
        assert feam_main(["matrix", "--binaries", "1", "--seed", "7",
                          "--no-ledger"]) == EXIT_OK
        assert RunLedger(ledger_dir()).runs() == []

    def test_ledger_output_stays_off_stdout(self, capsys):
        # The chaos-gate CI job compares stdout byte for byte; all
        # ledger chatter must live on stderr.
        assert feam_main(["matrix", "--binaries", "1",
                          "--seed", "7"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "ledger" not in out
        assert "ledger: run " in err

    def test_chaos_records_fault_profile(self, capsys):
        assert feam_main(["chaos", "--binaries", "1", "--seed", "7",
                          "--profile", "flaky"]) == EXIT_OK
        (run,) = RunLedger(ledger_dir()).runs()
        assert run["kind"] == "chaos"
        assert run["fault_profile"] == "flaky"


class TestRunsVerb:
    def test_list_table_and_where(self, capsys):
        seeded_ledger()
        assert feam_main(["runs"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3/3 run(s) match" in out
        assert "run-c" in out
        assert feam_main(["runs", "--where", "kind=chaos"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1/3 run(s) match" in out
        assert "run-a" not in out

    def test_json_listing(self, capsys):
        seeded_ledger()
        assert feam_main(["runs", "--json", "--where",
                          "kind=matrix"]) == EXIT_OK
        runs = json.loads(capsys.readouterr().out)
        assert [run["run_id"] for run in runs] == ["run-a", "run-b"]

    def test_show_resolves_prefix(self, capsys):
        seeded_ledger()
        assert feam_main(["runs", "show", "run-c"]) == EXIT_OK
        shown = json.loads(capsys.readouterr().out)
        assert shown["kind"] == "chaos"

    def test_show_unknown_ref_fails_cleanly(self, capsys):
        seeded_ledger()
        assert feam_main(["runs", "show", "nope"]) == EXIT_FAILURE
        assert "no run matches" in capsys.readouterr().err

    def test_empty_ledger_lists_nothing(self, capsys):
        assert feam_main(["runs"]) == EXIT_OK
        assert "(no runs)" in capsys.readouterr().out

    def test_unknown_action_fails(self, capsys):
        assert feam_main(["runs", "frobnicate"]) == EXIT_FAILURE
        assert "unknown feam runs action" in capsys.readouterr().err


class TestRunsImport:
    def legacy_history(self, tmp_path):
        path = tmp_path / "history.jsonl"
        lines = [
            {"ts": "2026-01-01T00:00:00Z", "seed": 1,
             "cells": 20, "cold_seconds": 1.0, "warm_seconds": 0.1},
            {"ts": "2026-01-02T00:00:00Z", "kind": "fleet",
             "spec": "fleet:n=10", "cells": 40, "eval_seconds": 2.0},
        ]
        path.write_text("".join(json.dumps(line) + "\n"
                                for line in lines))
        return path

    def test_import_tags_kinds_and_is_idempotent(self, tmp_path,
                                                 capsys):
        history = self.legacy_history(tmp_path)
        assert feam_main(["runs", "import", str(history)]) == EXIT_OK
        assert "imported 2 run(s)" in capsys.readouterr().out
        runs = RunLedger(ledger_dir()).runs()
        assert [run["kind"] for run in runs] \
            == ["legacy-bench", "legacy-fleet-bench"]
        assert all(run["schema"] == SCHEMA_VERSION for run in runs)
        assert runs[1]["sites_spec"] == "fleet:n=10"
        # Re-import: every line already present, nothing doubled.
        assert feam_main(["runs", "import", str(history)]) == EXIT_OK
        assert "imported 0 run(s)" in capsys.readouterr().out
        assert len(RunLedger(ledger_dir()).runs()) == 2

    def test_imported_runs_feed_drift(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        history.write_text("".join(
            json.dumps({"ts": f"2026-01-0{i}T00:00:00Z", "seed": 1,
                        "cold_seconds": cold}) + "\n"
            for i, cold in ((1, 1.0), (2, 2.0))))
        assert feam_main(["runs", "import", str(history)]) == EXIT_OK
        capsys.readouterr()
        assert feam_main(["drift", "--tolerance", "0.25"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "legacy-bench" in out
        assert "bench.cold_seconds" in out

    def test_missing_history_fails_cleanly(self, tmp_path, capsys):
        assert feam_main(["runs", "import",
                          str(tmp_path / "nope.jsonl")]) == EXIT_FAILURE
        assert "cannot read history" in capsys.readouterr().err


class TestCompareVerb:
    def test_clean_pair_exits_ok(self, capsys):
        seeded_ledger()
        assert feam_main(["compare", "run-a", "run-b",
                          "--fail-above", "1.03"]) == EXIT_OK
        assert "no latency row above" in capsys.readouterr().out

    def test_slowdown_trips_the_gate(self, capsys):
        seeded_ledger()
        assert feam_main(["compare", "run-b", "run-c",
                          "--fail-above", "1.2"]) == EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "phase cell.sim" in out

    def test_json_payload_carries_the_verdict(self, capsys):
        seeded_ledger()
        assert feam_main(["compare", "-2", "-1", "--fail-above", "1.2",
                          "--json"]) == EXIT_REGRESSION
        payload = json.loads(capsys.readouterr().out)
        assert payload["fail_above"] == 1.2
        assert payload["regressions"]
        assert payload["sim"]["ratio"] == pytest.approx(1.5)

    def test_schema_1_and_schema_2_manifests_compare(self, capsys):
        # A campaign's ledger spans the schema bump: a schema-1
        # manifest (with its constant workers/cache_shards fields and
        # rollup.resumed) must still compare against a schema-2 one.
        ledger = RunLedger(ledger_dir())
        for run_id, schema, mean in (("old", 1, 10.0), ("new", 2, 15.0)):
            manifest = {
                "run_id": run_id, "schema": schema, "kind": "matrix",
                "seed": 7,
                "rollup": {
                    "cells": 10, "outcomes": {"ready": 10},
                    "sim": latency_digest([mean] * 10),
                    "cache": {"hit_rate": 0.5},
                    "retries": 0, "faulted": 0,
                },
                "phases": {"cell.sim": latency_digest([mean] * 10)},
            }
            if schema == 1:
                manifest.update(workers=1, cache_shards=1)
                manifest["rollup"]["resumed"] = 0
            ledger.record(manifest)
        assert feam_main(["compare", "old", "new"]) == EXIT_OK
        assert "sim overall  10s -> 15s (x1.5)" in capsys.readouterr().out
        assert feam_main(["compare", "old", "new",
                          "--fail-above", "1.2"]) == EXIT_REGRESSION
        assert "REGRESSION" in capsys.readouterr().out

    def test_without_gate_always_ok(self, capsys):
        seeded_ledger()
        assert feam_main(["compare", "run-b", "run-c"]) == EXIT_OK

    def test_bad_reference_is_operational_failure(self, capsys):
        seeded_ledger()
        assert feam_main(["compare", "run-a", "zzz"]) == EXIT_FAILURE
        assert "no run matches" in capsys.readouterr().err

    def test_empty_ledger_is_operational_failure(self, capsys):
        assert feam_main(["compare", "-2", "-1"]) == EXIT_FAILURE
        assert "has no runs" in capsys.readouterr().err


class TestDriftVerb:
    def test_stable_history_exits_ok(self, capsys):
        seeded_ledger()
        # Latest run is chaos with no chaos predecessors: degrade to
        # "nothing to drift against", not an error.
        assert feam_main(["drift"]) == EXIT_OK
        assert "nothing to drift against" in capsys.readouterr().out

    def test_violated_rules_exit_2(self, tmp_path, capsys):
        seeded_ledger()
        rules = tmp_path / "rules.txt"
        rules.write_text("rollup.cells >= 100\n")
        assert feam_main(["drift", "--rules", str(rules)]) \
            == EXIT_SLO_VIOLATION
        assert "FAIL rollup.cells" in capsys.readouterr().out

    def test_empty_ledger_is_operational_failure(self, capsys):
        assert feam_main(["drift"]) == EXIT_FAILURE
        assert "at least one run" in capsys.readouterr().err

    def test_insufficient_history_notice_exits_ok(self, capsys):
        # Three matrix runs, latest against a --window of 10: only 2
        # same-kind predecessors exist.  That is a notice, not a page.
        ledger = RunLedger(ledger_dir())
        for run_id in ("run-a", "run-b", "run-c"):
            ledger.record({
                "run_id": run_id, "kind": "matrix", "seed": 7,
                "rollup": {"cells": 10, "outcomes": {"ready": 10},
                           "sim": latency_digest([10.0] * 10),
                           "cache": {"hit_rate": 0.5},
                           "retries": 0, "faulted": 0},
            })
        assert feam_main(["drift", "--window", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "insufficient history (have 2, need 10)" in out

    def test_insufficient_history_flag_in_json(self, capsys):
        seeded_ledger()
        assert feam_main(["drift", "--window", "10", "--json"]) \
            == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["insufficient_history"] is True

    def test_full_window_has_no_notice(self, capsys):
        # Two matrix runs and window 1: the single predecessor fills
        # the window, so the notice must not appear.
        ledger = RunLedger(ledger_dir())
        for run_id in ("run-a", "run-b"):
            ledger.record({
                "run_id": run_id, "kind": "matrix", "seed": 7,
                "rollup": {"cells": 10, "outcomes": {"ready": 10},
                           "sim": latency_digest([10.0] * 10),
                           "cache": {"hit_rate": 0.5},
                           "retries": 0, "faulted": 0},
            })
        assert feam_main(["drift", "--window", "1"]) == EXIT_OK
        assert "insufficient history" \
            not in capsys.readouterr().out


class TestFailFast:
    def test_watch_attach_unreachable_exits_once(self, capsys):
        # Nothing listens on this port: one clean line, exit 1, no
        # three-strikes poll loop against a server that never existed.
        assert feam_main(["watch", "--attach",
                          "http://127.0.0.1:9",
                          "--interval", "0.1"]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "cannot reach http://127.0.0.1:9" in err
        assert "lost" not in err

    def test_query_missing_file_exits_once(self, tmp_path, capsys):
        assert feam_main(["query", str(tmp_path / "gone.jsonl")]) \
            == EXIT_FAILURE
        assert "cannot read wide events" in capsys.readouterr().err
