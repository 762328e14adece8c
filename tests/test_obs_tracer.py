"""The observability core: tracer, metrics, events, null fast path."""

import threading
import time

import pytest

from repro import obs
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.tracer import NULL_SPAN, Tracer


class TestTracer:
    def test_spans_nest_through_thread_local_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None
        inner, outer = tracer.spans  # finish order: children first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_span_records_attrs_and_durations(self):
        tracer = Tracer()
        with tracer.span("op", site="fir") as sp:
            sp.set_attrs(ready=True)
            sp.add_sim_seconds(12.5)
            sp.add_sim_seconds(0.5)
        (span,) = tracer.spans
        assert span.attrs == {"site": "fir", "ready": True}
        assert span.sim_seconds == 13.0
        assert span.wall_seconds is not None and span.wall_seconds >= 0
        assert span.status == "ok"

    def test_exception_marks_span_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.status == "error"
        assert "boom" in span.attrs["error"]
        assert tracer.current_span() is None  # stack unwound

    def test_span_ids_are_unique_under_concurrency(self):
        # The engine is serial, but feam serve and feam watch share
        # the tracer across threads, so span ids must stay atomic.
        tracer = Tracer()

        def burst():
            for _ in range(50):
                with tracer.span("burst"):
                    pass

        threads = [threading.Thread(target=burst) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == 200
        assert len(set(ids)) == 200


class TestMetrics:
    def test_counter_gauge(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        registry.gauge("util").set(0.75)
        assert registry.counter("hits").value == 3
        assert registry.gauge("util").value == 0.75

    def test_histogram_summary_quantiles(self):
        hist = Histogram("lat", DEFAULT_BUCKETS)
        for value in [0.001] * 90 + [0.4] * 10:
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.4)
        # Bucket estimates: p50 in the lowest bucket, p95 near the top.
        assert summary["p50"] <= 0.002
        assert 0.1 <= summary["p95"] <= 0.5

    def test_render_lists_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc()
        registry.gauge("b.level").set(2.0)
        registry.histogram("c.seconds").observe(0.01)
        rendered = registry.render()
        for name in ("a.count", "b.level", "c.seconds"):
            assert name in rendered


class TestEvents:
    def test_events_keep_emit_order(self):
        with obs.capture() as collector:
            obs.event("first", k=1)
            obs.event("second", k=2)
        first, second = collector.events.events
        assert (first.name, second.name) == ("first", "second")
        assert first.seq < second.seq
        assert first.attrs == {"k": 1}


class TestFacadeAndCapture:
    def test_default_is_null_collector(self):
        assert not obs.is_active()
        span = obs.span("anything", site="x")
        assert span is NULL_SPAN
        with span as sp:
            sp.set_attrs(more=1)  # absorbed, never raises
        obs.counter("nope").inc()
        obs.event("nope")
        assert obs.current().spans == ()

    def test_capture_installs_and_restores(self):
        assert not obs.is_active()
        with obs.capture() as collector:
            assert obs.is_active()
            assert obs.current() is collector
            with obs.span("traced"):
                pass
        assert not obs.is_active()
        assert [s.name for s in collector.spans] == ["traced"]

    def test_capture_nests(self):
        with obs.capture() as outer:
            with obs.capture() as inner:
                obs.counter("k").inc()
            assert obs.current() is outer
        assert inner.metrics.counter("k").value == 1
        assert outer.metrics.counter("k").value == 0

    def test_capture_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("bail")
        assert not obs.is_active()


class TestNoOpOverhead:
    """The acceptance gate: uninstrumented-feeling when no collector is on.

    The facade with no collector installed must cost well under a
    handful of microseconds per span -- generous enough for CI noise,
    tight enough that an accidental allocation-per-span or lock on the
    null path fails loudly.
    """

    BUDGET_SECONDS_PER_SPAN = 20e-6

    def test_null_span_cost_is_bounded(self):
        assert not obs.is_active()
        iterations = 20_000
        # Warm up (imports, attribute caches).
        for _ in range(1000):
            with obs.span("warm", site="s"):
                pass
        best = float("inf")
        for _ in range(3):  # best-of-3 shields against scheduler blips
            start = time.perf_counter()
            for _ in range(iterations):
                with obs.span("noop", site="s", binary="b"):
                    pass
            best = min(best, time.perf_counter() - start)
        per_span = best / iterations
        assert per_span < self.BUDGET_SECONDS_PER_SPAN, (
            f"null span costs {per_span * 1e6:.2f}us, budget "
            f"{self.BUDGET_SECONDS_PER_SPAN * 1e6:.0f}us")

    def test_null_metrics_and_events_cost_is_bounded(self):
        assert not obs.is_active()
        iterations = 20_000
        start = time.perf_counter()
        for _ in range(iterations):
            obs.counter("noop").inc()
            obs.event("noop", k=1)
        per_call = (time.perf_counter() - start) / (2 * iterations)
        assert per_call < self.BUDGET_SECONDS_PER_SPAN
