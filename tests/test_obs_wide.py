"""Wide events: the bounded ring, JSONL streaming and torn-tail reads.

The sink's contract is the shared ``repro.util.jsonl`` one: every
emitted record is flushed to disk as one JSONL line (a killed run loses at most the
in-flight cell), the in-memory ring is strictly bounded (evictions are
counted, never silent), and the reader skips a torn final line instead
of refusing the whole file.
"""

import json
import threading

import pytest

from repro import obs
from repro.obs.wide import (
    CORE_FIELDS,
    SCHEMA_VERSION,
    WideEventSink,
    parse_jsonl,
    read_jsonl,
    write_jsonl,
)


def _record(index=0, **extra):
    record = {
        "site": f"gen-{index:04d}", "binary": "app-0",
        "outcome": "ready", "ready": True, "faulted": False,
        "sim_seconds": 35.2, "wall_seconds": 0.004,
    }
    record.update(extra)
    return record


class TestRing:
    def test_ring_is_bounded_and_evictions_counted(self):
        sink = WideEventSink(ring_size=4)
        for index in range(10):
            sink.emit(_record(index))
        assert len(sink) == 4
        assert sink.emitted == 10
        assert sink.dropped == 6
        # Oldest-first snapshot holds the *last* four records.
        assert [r["site"] for r in sink.events()] == \
            [f"gen-{i:04d}" for i in range(6, 10)]

    def test_emit_sets_schema_version(self):
        sink = WideEventSink()
        sink.emit(_record())
        assert sink.events()[0]["schema"] == SCHEMA_VERSION

    def test_emit_respects_explicit_schema(self):
        sink = WideEventSink()
        sink.emit(_record(schema=0))
        assert sink.events()[0]["schema"] == 0

    def test_drain_empties_the_ring(self):
        sink = WideEventSink()
        for index in range(3):
            sink.emit(_record(index))
        assert len(sink.drain()) == 3
        assert len(sink) == 0
        assert sink.emitted == 3  # drain never rewrites history

    def test_counters_and_lag_gauge_under_a_collector(self):
        with obs.capture() as collector:
            sink = WideEventSink(ring_size=2)
            for index in range(5):
                sink.emit(_record(index))
            counters = collector.metrics.to_dict()["counters"]
            gauges = collector.metrics.to_dict()["gauges"]
            assert counters["obs.wide.emitted"] == 5
            assert counters["obs.wide.dropped"] == 3
            assert gauges["obs.wide.lag"] == 2
            sink.drain()
            gauges = collector.metrics.to_dict()["gauges"]
            assert gauges["obs.wide.lag"] == 0

    def test_concurrent_emit_loses_nothing(self):
        sink = WideEventSink(ring_size=10_000)
        threads = [
            threading.Thread(
                target=lambda base=base: [
                    sink.emit(_record(base * 100 + i)) for i in range(100)])
            for base in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sink.emitted == 800
        assert len(sink) == 800
        assert sink.dropped == 0


class TestStreaming:
    def test_every_emit_is_flushed_to_disk(self, tmp_path):
        path = tmp_path / "wide.jsonl"
        sink = WideEventSink(ring_size=2, path=str(path))
        for index in range(5):
            sink.emit(_record(index))
        # Without close(): flush-per-line means the file is already
        # complete, even though the ring only holds the last two.
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert len(sink) == 2
        sink.close()

    def test_file_stream_appends(self, tmp_path):
        path = tmp_path / "wide.jsonl"
        with WideEventSink(path=str(path)) as sink:
            sink.emit(_record(0))
        with WideEventSink(path=str(path)) as sink:
            sink.emit(_record(1))
        assert len(read_jsonl(str(path))) == 2

    def test_export_and_write_jsonl_round_trip(self, tmp_path):
        sink = WideEventSink()
        tricky = _record(0, detail='quote " backslash \\ newline \n end',
                         unicode="site-ü☃")
        sink.emit(tricky)
        parsed = parse_jsonl(sink.export_jsonl())
        assert parsed == sink.events()
        out = tmp_path / "out.jsonl"
        assert sink.write_jsonl(str(out)) == 1
        assert read_jsonl(str(out)) == sink.events()
        assert read_jsonl(str(out))[0]["detail"] \
            == 'quote " backslash \\ newline \n end'


class TestParsing:
    def test_torn_tail_is_skipped(self):
        text = (json.dumps(_record(0)) + "\n"
                + json.dumps(_record(1)) + "\n"
                + '{"site": "gen-0002", "trunc')  # killed mid-write
        records = parse_jsonl(text)
        assert [r["site"] for r in records] == ["gen-0000", "gen-0001"]

    def test_strict_mode_raises_on_torn_tail(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            parse_jsonl('{"torn', strict=True)

    def test_non_object_lines_skipped_or_strict(self):
        assert parse_jsonl('[1, 2]\n42\n') == []
        with pytest.raises(ValueError, match="not an object"):
            parse_jsonl('[1, 2]', strict=True)

    def test_newer_schema_is_refused_even_lenient(self):
        line = json.dumps(_record(0, schema=SCHEMA_VERSION + 1))
        with pytest.raises(ValueError, match="newer"):
            parse_jsonl(line)

    def test_blank_lines_ignored(self):
        text = "\n" + json.dumps(_record(0)) + "\n\n"
        assert len(parse_jsonl(text)) == 1

    def test_write_jsonl_module_function(self, tmp_path):
        path = tmp_path / "w.jsonl"
        records = [_record(i) for i in range(3)]
        assert write_jsonl(str(path), records) == 3
        assert read_jsonl(str(path)) == records


class TestSchemaContract:
    def test_core_fields_are_stable(self):
        # Renaming a core field is a schema break: bump SCHEMA_VERSION
        # and update every consumer before touching this tuple.
        assert CORE_FIELDS == (
            "schema", "site", "binary", "outcome", "ready", "faulted",
            "sim_seconds", "wall_seconds")
        assert SCHEMA_VERSION == 2

    def test_schema_1_records_still_read(self):
        # Schema 2 only dropped fields, so a schema-1 stream (with its
        # constant worker/steals and resume/sampling flags) still reads.
        old = _record(0, schema=1, worker="worker-0", steals=0,
                      resumed=False, spans_kept=True,
                      sample_reason="head-sample")
        assert parse_jsonl(json.dumps(old) + "\n", strict=True) == [old]
