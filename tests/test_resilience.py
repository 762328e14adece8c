"""Retry policies, circuit breakers and failure provenance.

These are the unit-level contracts the engine's resilient paths rest
on (tests/test_engine_resilience.py covers the integration): seeded
backoff is deterministic and bounded, ``with_retries`` converts
eventual success and exhaustion faithfully, and the breaker walks its
state machine.
"""

import pytest

from repro import obs
from repro.core.resilience import (
    BREAKER_STATE_CODES,
    BreakerState,
    CircuitBreaker,
    FailureProvenance,
    RetriesExhausted,
    RetryPolicy,
    provenance_from,
    with_retries,
)
from repro.sysmodel.faults import FaultKind, InjectedFault


class TestRetryPolicy:
    def test_delays_are_deterministic(self):
        policy = RetryPolicy()
        first = [policy.delay_seconds("k", n) for n in range(1, 5)]
        second = [policy.delay_seconds("k", n) for n in range(1, 5)]
        assert first == second

    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(base_seconds=2.0, multiplier=2.0,
                             max_delay_seconds=10.0, jitter=0.0)
        delays = [policy.delay_seconds("k", n) for n in range(1, 6)]
        assert delays == [2.0, 4.0, 8.0, 10.0, 10.0]

    def test_jitter_stays_within_the_swing(self):
        policy = RetryPolicy(base_seconds=4.0, multiplier=1.0,
                             jitter=0.25)
        for attempt in range(1, 20):
            delay = policy.delay_seconds(f"key{attempt}", attempt)
            assert 3.0 <= delay <= 5.0


class TestWithRetries:
    def test_success_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        value, attempts, slept = with_retries(
            RetryPolicy(max_attempts=3), "k", flaky)
        assert value == "ok"
        assert attempts == 3
        assert slept > 0.0  # simulated backoff accumulated, not slept

    def test_exhaustion_carries_the_last_error(self):
        def dead():
            raise RuntimeError("persistent")

        with pytest.raises(RetriesExhausted) as info:
            with_retries(RetryPolicy(max_attempts=3), "k", dead,
                         operation="discover", site="fir")
        assert info.value.attempts == 3
        assert info.value.operation == "discover"
        assert isinstance(info.value.last, RuntimeError)

    def test_retries_are_counted_and_evented(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise RuntimeError("once")
            return "ok"

        with obs.capture() as collector:
            with_retries(RetryPolicy(), "k", flaky, site="fir")
        counters = collector.metrics.to_dict()["counters"]
        assert counters["resilience.retries.total"] == 1
        retry_events = [e for e in collector.events.events
                        if e.name == "resilience.retry"]
        assert len(retry_events) == 1
        assert retry_events[0].attrs["site"] == "fir"


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("fir", failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker("fir", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_open_quarantines_then_probes(self):
        breaker = CircuitBreaker("fir", failure_threshold=1,
                                 probe_after=2)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()          # quarantined skip 1
        assert breaker.allow()              # skip 2 -> probe window
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker("fir", failure_threshold=1,
                                 probe_after=1)
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker("fir", failure_threshold=1,
                                 probe_after=1)
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_transitions_publish_gauge_and_event(self):
        with obs.capture() as collector:
            breaker = CircuitBreaker("fir", failure_threshold=1)
            breaker.record_failure()
        gauges = collector.metrics.to_dict()["gauges"]
        assert gauges["resilience.breaker.fir.state"] == \
            BREAKER_STATE_CODES[BreakerState.OPEN]
        transitions = [e for e in collector.events.events
                       if e.name == "resilience.breaker"]
        assert transitions[-1].attrs["to_state"] == "open"


class TestStateCodesStayInSync:
    def test_serve_word_map_mirrors_the_codes(self):
        # repro.obs must not import repro.core, so serve keeps its own
        # code->word map; this is the cross-layer consistency pin.
        from repro.obs.serve import _BREAKER_WORDS
        assert _BREAKER_WORDS == {
            code: state.value
            for state, code in BREAKER_STATE_CODES.items()}

    def test_breaker_states_reads_the_gauges(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.serve import breaker_states
        registry = MetricsRegistry()
        registry.gauge("resilience.breaker.fir.state").set(2)
        registry.gauge("resilience.breaker.ranger.state").set(0)
        registry.gauge("matrix.cells.total").set(20)  # not a breaker
        assert breaker_states(registry) == {"fir": "open",
                                            "ranger": "closed"}


class TestProvenance:
    def test_render_mentions_the_essentials(self):
        provenance = FailureProvenance(
            kind="read-error", detail="x", site="fir",
            operation="evaluate", attempts=3, retry_seconds=9.8)
        text = provenance.render()
        assert "evaluate failed: read-error" in text
        assert "attempts=3" in text
        assert "retried 9.8s" in text

    def test_unwraps_exhausted_injected_faults(self):
        fault = InjectedFault(FaultKind.READ_ERROR, "fir", "/a",
                              transient=False, occurrence=1)
        exhausted = RetriesExhausted("evaluate", "k", fault,
                                     attempts=3, slept_seconds=6.0)
        provenance = provenance_from(exhausted, site="fir")
        assert provenance.kind == "read-error"
        assert provenance.attempts == 3
        assert provenance.retry_seconds == 6.0
        assert provenance.transient is False

    def test_plain_exception_uses_the_class_name(self):
        provenance = provenance_from(ValueError("bad"), site="fir")
        assert provenance.kind == "ValueError"
