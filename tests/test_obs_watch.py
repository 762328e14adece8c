"""The ``feam watch`` renderer: snapshots, deltas, frames, in-place draw.

Everything here runs on synthetic snapshots -- the renderer's contract
is that it only ever sees the :func:`repro.obs.watch.sample` shape, so
attach mode (HTTP ``/snapshot``), drive mode (local collector) and
these tests share one code path.
"""

import io

from repro import obs
from repro.obs.watch import (
    InPlaceRenderer,
    WatchState,
    _breaker_words,
    _rolling_buckets,
    render_frame,
    render_line,
    sample,
)


def _snap(cells=100, buckets=None, gauges=None, counters=None,
          histograms=None):
    metrics = {
        "counters": {"cells.evaluated": cells, "obs.wide.emitted": cells,
                     **(counters or {})},
        "gauges": dict(gauges or {}),
        "histograms": histograms or {},
    }
    return {"metrics": metrics, "buckets": buckets or {},
            "spans": 0, "events": 0}


class TestSample:
    def test_shape_matches_the_snapshot_contract(self):
        with obs.capture() as collector:
            obs.counter("cells.evaluated").inc(5)
            obs.histogram("engine.cell.wall_seconds").observe(0.01)
            with obs.span("engine.cell"):
                pass
        snap = sample(collector)
        assert sorted(snap) == ["buckets", "events", "metrics", "spans"]
        assert snap["metrics"]["counters"]["cells.evaluated"] == 5
        assert snap["spans"] == 1
        pairs = snap["buckets"]["engine.cell.wall_seconds"]
        # Cumulative (bound, count) pairs ending at the +Inf bucket.
        assert pairs[-1][0] is None
        assert pairs[-1][1] == 1

    def test_sample_is_json_ready(self):
        import json
        with obs.capture() as collector:
            obs.histogram("engine.cell.wall_seconds").observe(0.01)
        json.dumps(sample(collector))  # must not raise


class TestWatchState:
    def test_advance_returns_the_previous_sample(self):
        state = WatchState()
        first = _snap(cells=10)
        second = _snap(cells=30)
        assert state.advance(first, 1.0) == {}
        assert state.advance(second, 1.0) is first
        assert state.previous is second
        assert state.elapsed == 2.0
        assert state.frames == 2


class TestHelpers:
    def test_breaker_words_folds_state_gauges(self):
        snap = _snap(gauges={
            "resilience.breaker.site-a.state": 0,
            "resilience.breaker.site-b.state": 2,
            "resilience.breaker.site-c.state": 1,
            "resilience.breaker.site-d.state": 2,
        })
        assert _breaker_words(snap) == \
            {"closed": 1, "half-open": 1, "open": 2}

    def test_rolling_buckets_de_cumulates_against_before(self):
        before = _snap(buckets={"engine.cell.wall_seconds": [
            [0.001, 5], [0.01, 10], [None, 10]]})
        snap = _snap(buckets={"engine.cell.wall_seconds": [
            [0.001, 5], [0.01, 18], [None, 20]]})
        rolling = _rolling_buckets(snap, before)
        # This interval: 8 new cells in (0.001, 0.01], 2 above 0.01.
        assert dict(rolling) == {"<=10ms": 8, "<=+Inf": 2}

    def test_rolling_buckets_first_frame_uses_raw_counts(self):
        snap = _snap(buckets={"engine.cell.wall_seconds": [
            [0.001, 3], [None, 3]]})
        assert dict(_rolling_buckets(snap, {})) == {"<=1ms": 3}

    def test_rolling_buckets_keeps_only_densest_rows(self):
        pairs, cumulative = [], 0
        for index in range(10):
            cumulative += index + 1
            pairs.append([float(index + 1), cumulative])
        snap = _snap(buckets={"engine.cell.wall_seconds": pairs})
        assert len(_rolling_buckets(snap, {}, rows=5)) == 5

    def test_rolling_buckets_absent_histogram(self):
        assert _rolling_buckets(_snap(), {}) == []


class TestRenderFrame:
    def test_frame_contents(self):
        before = _snap(cells=40)
        snap = _snap(
            cells=100,
            gauges={"engine.cache.description.hit_rate": 0.91,
                    "resilience.breaker.site-a.state": 2},
            histograms={"engine.cell.wall_seconds": {
                "count": 100, "p50": 0.002, "p95": 0.009, "max": 1.2}})
        frame = render_frame(snap, before, interval=2.0, elapsed=10.0,
                             total_cells=400)
        assert frame.startswith("feam watch  t+  10.0s   cells 100/400")
        assert "30.0 cells/s" in frame       # (100-40)/2.0
        assert "description=0.91" in frame
        assert "open=1" in frame
        assert "telemetry wide=100" in frame
        assert "p50=2.0ms" in frame and "max=1.20s" in frame
        assert "\x1b" not in frame           # no control codes in frames

    def test_frame_without_optional_sections_stays_small(self):
        frame = render_frame(_snap(), {}, interval=1.0, elapsed=0.0)
        assert "breakers" not in frame
        assert "latency" not in frame
        assert "alerts" not in frame         # no alert gauges yet

    def test_alerts_panel_shows_firing_and_pending(self):
        snap = _snap(gauges={"alerts.firing": 2,
                             "alerts.firing.critical": 1,
                             "alerts.pending": 3})
        frame = render_frame(snap, {}, interval=1.0, elapsed=0.0)
        assert "alerts   firing=2 (1 critical)  pending=3" in frame

    def test_alerts_panel_appears_once_gauges_exist(self):
        # A quiet engine still publishes zeros: the panel renders so
        # the operator sees alerting is armed, not absent.
        snap = _snap(gauges={"alerts.firing": 0, "alerts.pending": 0})
        frame = render_frame(snap, {}, interval=1.0, elapsed=0.0)
        assert "alerts   firing=0 (0 critical)  pending=0" in frame


class TestRenderLine:
    def test_plain_line_for_non_tty(self):
        before = _snap(cells=0)
        snap = _snap(cells=50, gauges={
            "resilience.breaker.site-a.state": 2,
            "resilience.breaker.site-b.state": 1})
        line = render_line(snap, before, interval=1.0, elapsed=3.0,
                           total_cells=200)
        assert line == ("t+3.0s cells=50/200 rate=50.0/s "
                        "breakers_open=2 wide=50")
        assert "\x1b" not in line
        assert "\n" not in line


class TestInPlaceRenderer:
    def test_first_frame_prints_without_cursor_movement(self):
        stream = io.StringIO()
        InPlaceRenderer(stream).draw("one\ntwo")
        text = stream.getvalue()
        import re
        assert "\x1b[2Kone\n" in text and "\x1b[2Ktwo\n" in text
        assert not re.search(r"\x1b\[\d+A", text)  # no cursor-up yet

    def test_second_frame_moves_up_over_the_first(self):
        stream = io.StringIO()
        renderer = InPlaceRenderer(stream)
        renderer.draw("one\ntwo\nthree")
        renderer.draw("uno\ndos\ntres")
        assert "\x1b[3A" in stream.getvalue()

    def test_shrinking_frame_erases_stale_lines(self):
        stream = io.StringIO()
        renderer = InPlaceRenderer(stream)
        renderer.draw("one\ntwo\nthree")
        renderer.draw("short")
        text = stream.getvalue()
        # Two leftover lines get erased, then the cursor backs up.
        assert text.count("\x1b[2K\n") == 2
        assert "\x1b[2A" in text
        renderer.draw("grows\nagain\nnow")
        assert "\x1b[1A" in stream.getvalue()  # tracked the shrunk height
