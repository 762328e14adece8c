"""Fleet telemetry end to end: engine, exposition, endpoints, CLI.

The contract under test is the one the ``telemetry-gate`` CI job
enforces at scale: every cell -- evaluated, served from the
persistent store, or filled in by the site-failure path -- emits
exactly one wide event; cache hit rates export as plain per-layer
gauges; and ``feam query`` reproduces the matrix's own outcome counts.
"""

import json
import re
import urllib.request

import pytest

from repro import obs
from repro.__main__ import EXIT_FAILURE, EXIT_OK, feam_main
from repro.core.engine import EngineBinary, EvaluationEngine
from repro.core.persist import PersistentStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import TelemetryServer, render_prometheus
from repro.obs.store import parse_agg, run_query
from repro.obs.wide import CORE_FIELDS, WideEventSink, read_jsonl, \
    write_jsonl
from repro.toolchain.compilers import Language


def _binaries(make_site, count=2):
    donor = make_site("wide-donor")
    stack = donor.stacks[0]
    linked = donor.compile_mpi_program("w-app", Language.FORTRAN, stack)
    return [EngineBinary(binary_id=f"w-app-{i}", image=linked.image)
            for i in range(count)]


@pytest.fixture
def telemetry_run(make_site, tmp_path):
    """A 3-site x 2-binary matrix under the full telemetry overlay."""
    sites = [make_site(f"ti-{tag}") for tag in ("a", "b", "c")]
    binaries = _binaries(make_site)
    path = str(tmp_path / "wide.jsonl")
    sink = WideEventSink(path=path)
    with obs.capture() as collector:
        result = EvaluationEngine().evaluate_matrix(
            binaries, sites, wide_sink=sink)
    sink.close()
    return sites, binaries, path, sink, collector, result


class TestEngineWideEvents:
    def test_one_wide_event_per_cell(self, telemetry_run):
        sites, binaries, path, sink, collector, result = telemetry_run
        cells = len(sites) * len(binaries)
        assert len(result.cells) == cells
        assert sink.emitted == cells
        events = read_jsonl(path)
        assert len(events) == cells
        counters = collector.metrics.to_dict()["counters"]
        assert counters["obs.wide.emitted"] == cells
        assert {(e["binary"], e["site"]) for e in events} == \
            {(c.binary_id, c.site_name) for c in result.cells}

    def test_records_are_wide(self, telemetry_run):
        _, _, path, _, _, result = telemetry_run
        for event in read_jsonl(path):
            # Every core field present, flat, in one record.
            assert set(CORE_FIELDS) <= set(event)
            assert event["schema"] == 2
            # Cache provenance, retry and breaker context ride along.
            for field in ("description_hit", "discovery_hit",
                          "evaluation_hit", "cache_tier", "attempts",
                          "retry_seconds", "fault_kind",
                          "breaker_state"):
                assert field in event, f"missing {field}"
            # Schema 2 dropped the scheduling, resume and sampling
            # fields.
            for field in ("worker", "steals", "resumed", "spans_kept",
                          "sample_reason"):
                assert field not in event, f"stale {field}"
            # Per-determinant verdicts are flattened, not nested.
            det_fields = [key for key in event if key.startswith("det_")]
            assert det_fields
            assert all(isinstance(event[key], str) for key in det_fields)

    def test_outcomes_match_the_matrix(self, telemetry_run):
        _, _, path, _, _, result = telemetry_run
        events = read_jsonl(path)
        queried = {group: size for group, _values, size
                   in run_query(events, by="outcome", top=10).rows}
        for word in ("ready", "unknown", "no"):
            expected = sum(1 for cell in result.cells
                           if cell.outcome_word == word)
            assert queried.get(word, 0) == expected


class TestResumedCells:
    def test_restored_cells_still_emit_wide_events(self, make_site,
                                                   tmp_path):
        binaries = _binaries(make_site)
        cold = EvaluationEngine(persist=PersistentStore(str(tmp_path)))
        cold.evaluate_matrix(binaries,
                             [make_site("tij-a"), make_site("tij-b")])
        cold.close()

        sink = WideEventSink()
        warm = EvaluationEngine(persist=PersistentStore(str(tmp_path)))
        resumed = warm.evaluate_matrix(
            binaries, [make_site("tij-a"), make_site("tij-b")],
            wide_sink=sink)
        warm.close()
        events = sink.events()
        # Completeness includes disk-served cells.
        assert len(events) == len(resumed.cells) == 4
        for event in events:
            assert event["cache_tier"] == "disk"
            assert event["evaluation_hit"] is True


class TestShardExpositionFamily:
    """Cache hit rates export as plain per-layer gauges: the engine's
    caches are unsharded, so there is no per-shard family."""

    def test_per_layer_aggregates_stay_plain_gauges(self):
        registry = MetricsRegistry()
        for layer in ("description", "evaluation"):
            registry.gauge(f"engine.cache.{layer}.hit_rate").set(0.9)
        text = render_prometheus(registry)
        assert "feam_engine_cache_description_hit_rate 0.9" in text
        assert "feam_engine_cache_evaluation_hit_rate 0.9" in text

    def test_engine_publishes_the_aggregates(self, make_site):
        sites = [make_site("agg-a")]
        binaries = _binaries(make_site)
        with obs.capture() as collector:
            EvaluationEngine().evaluate_matrix(binaries, sites)
        gauges = collector.metrics.to_dict()["gauges"]
        for layer in ("description", "discovery", "evaluation"):
            assert f"engine.cache.{layer}.hit_rate" in gauges
        # One hit-rate gauge per layer; the caches are not sharded.
        assert sorted(name for name in gauges
                      if name.startswith("engine.cache.")) == [
            "engine.cache.description.hit_rate",
            "engine.cache.discovery.hit_rate",
            "engine.cache.evaluation.hit_rate",
            "engine.cache.hit_rate"]


class TestSnapshotEndpoint:
    def test_snapshot_serves_the_sample_shape(self):
        with obs.capture() as collector:
            collector.metrics.counter("cells.evaluated").inc(9)
            collector.metrics.histogram(
                "engine.cell.wall_seconds").observe(0.01)
            with TelemetryServer(collector, port=0) as server:
                with urllib.request.urlopen(
                        server.url + "/snapshot", timeout=5) as response:
                    assert response.status == 200
                    payload = json.loads(response.read())
        assert sorted(payload) == ["buckets", "events", "metrics",
                                   "spans"]
        assert payload["metrics"]["counters"]["cells.evaluated"] == 9
        assert "engine.cell.wall_seconds" in payload["buckets"]


class TestCli:
    def test_matrix_wide_out_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "wide.jsonl")
        code = feam_main([
            "matrix", "--sites", "fleet:n=4,seed=7", "--binaries", "2",
            "--wide-out", path])
        assert code == EXIT_OK
        events = read_jsonl(path)
        assert len(events) == 8  # 4 sites x 2 binaries
        _out, err = capsys.readouterr()
        assert f"wide events: 8 written to {path}" in err

    def test_query_table_and_json(self, tmp_path, capsys):
        path = str(tmp_path / "events.jsonl")
        write_jsonl(path, [
            {"site": f"gen-{i:04d}", "outcome": "unknown" if i < 2
             else "ready", "wall_seconds": i / 100.0}
            for i in range(6)])
        assert feam_main(["query", path, "--where", "outcome=unknown",
                          "--by", "site"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "wide events: 2/6 match [outcome=unknown]" in out
        assert feam_main(["query", path, "--by", "outcome", "--agg",
                          "count", "--agg", "p95:wall_seconds",
                          "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 6
        assert payload["aggregations"] == ["count", "p95:wall_seconds"]

    def test_query_top_footer(self, tmp_path, capsys):
        path = str(tmp_path / "events.jsonl")
        write_jsonl(path, [{"site": f"gen-{i:04d}", "outcome": "ready"}
                           for i in range(10)])
        assert feam_main(["query", path, "--by", "site",
                          "--top", "3"]) == EXIT_OK
        assert "... and 7 more row(s)" in capsys.readouterr().out

    def test_query_errors_are_operational_failures(self, tmp_path,
                                                   capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert feam_main(["query", missing]) == EXIT_FAILURE
        path = str(tmp_path / "events.jsonl")
        write_jsonl(path, [{"site": "gen-0000"}])
        assert feam_main(["query", path, "--where",
                          "notaclause"]) == EXIT_FAILURE
        assert feam_main(["query", path, "--agg",
                          "count:site"]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "unparsable" in err and "count takes no field" in err

    def test_stats_top_caps_the_tables(self, capsys):
        assert feam_main(["stats", "--binaries", "2",
                          "--top", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "more row(s) (raise --top to see them)" in out

    def test_watch_drives_a_run_in_plain_mode(self, capsys):
        # capsys stdout is not a TTY, so watch must degrade to plain
        # periodic lines with no ANSI control codes.
        code = feam_main(["watch", "--sites", "fleet:n=4,seed=7",
                          "--binaries", "2", "--interval", "0.1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "\x1b" not in out
        assert re.search(r"done: 8 cells, \d+ ready", out)
