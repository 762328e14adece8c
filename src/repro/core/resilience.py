"""Resilience: retries and circuit breakers.

The engine's answer to unreliable sites (see
:mod:`repro.sysmodel.faults` for how unreliability is injected):

* :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  *seeded* jitter.  Delays are simulated seconds (they are added to the
  report's ``feam_seconds``, never slept on the wall clock) and the
  jitter is a hash-keyed draw, so retry schedules are reproducible.
* :class:`CircuitBreaker` -- per-site closed/open/half-open state.
  Consecutive cell failures open the breaker; while open, the site's
  cells short-circuit to UNKNOWN (*quarantine*) without touching the
  substrate; after a few skips one probe cell is allowed through
  (half-open) and its outcome closes or re-opens the breaker.
* :class:`FailureProvenance` -- what a degraded (UNKNOWN) cell carries:
  the fault kind, attempts, simulated retry delay, breaker state.

The constructor defaults are the engine's settings: it builds
``RetryPolicy()`` and ``CircuitBreaker(site)``.

Checkpointing is not this module's job: a killed matrix run resumes by
rerunning it against the same persistent cache directory
(:mod:`repro.core.persist`).

Breaker state is published as the gauge
``resilience.breaker.<site>.state`` using :data:`BREAKER_STATE_CODES`
(0 = closed, 1 = half-open, 2 = open); the serving layer maps the codes
back to words for ``/healthz``.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
from typing import Callable, Optional

from repro import obs
from repro.util.hashing import stable_uniform


class BreakerState(enum.Enum):
    CLOSED = "closed"
    HALF_OPEN = "half-open"
    OPEN = "open"


#: Gauge encoding of breaker states (mirrored by ``repro.obs.serve``,
#: which must not import this layer).
BREAKER_STATE_CODES = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff in simulated seconds, with seeded jitter."""

    max_attempts: int = 3
    base_seconds: float = 2.0
    multiplier: float = 2.0
    max_delay_seconds: float = 30.0
    #: Fractional jitter: a delay is scaled by ``1 +- jitter * u`` where
    #: ``u`` is a deterministic draw from the (key, attempt) pair.
    jitter: float = 0.25

    def delay_seconds(self, key: str, attempt: int) -> float:
        """Backoff before retry number *attempt* (1-based)."""
        raw = min(self.base_seconds * self.multiplier ** (attempt - 1),
                  self.max_delay_seconds)
        swing = 2.0 * stable_uniform("retry-jitter", key, attempt) - 1.0
        return max(0.0, raw * (1.0 + self.jitter * swing))


@dataclasses.dataclass
class FailureProvenance:
    """Why a cell degraded to UNKNOWN instead of evaluating."""

    kind: str          # fault kind value, or the exception class name
    detail: str
    site: str
    operation: str     # discover | describe | evaluate | worker | quarantine
    attempts: int = 1
    retry_seconds: float = 0.0
    breaker_state: str = BreakerState.CLOSED.value
    transient: Optional[bool] = None

    def render(self) -> str:
        parts = [f"{self.operation} failed: {self.kind}",
                 f"attempts={self.attempts}",
                 f"breaker={self.breaker_state}"]
        if self.retry_seconds:
            parts.append(f"retried {self.retry_seconds:.1f}s")
        return " | ".join(parts)


class RetriesExhausted(RuntimeError):
    """All attempts spent; wraps the last error."""

    def __init__(self, operation: str, key: str, last: BaseException,
                 attempts: int, slept_seconds: float) -> None:
        super().__init__(
            f"{operation} ({key}) failed after {attempts} attempt(s): {last}")
        self.operation = operation
        self.key = key
        self.last = last
        self.attempts = attempts
        self.slept_seconds = slept_seconds


def with_retries(policy: RetryPolicy, key: str, fn: Callable,
                 operation: str = "call", site: str = ""):
    """Run *fn* under *policy*; returns ``(value, attempts, slept)``.

    Backoff is simulated time only -- accumulated and returned so the
    caller can add it to the cell's ``feam_seconds``.  When attempts
    run out, raises :class:`RetriesExhausted` carrying the last
    underlying error.
    """
    slept = 0.0
    attempts = max(1, policy.max_attempts)
    for attempt in range(1, attempts + 1):
        try:
            return fn(), attempt, slept
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if attempt >= attempts:
                raise RetriesExhausted(operation, key, exc, attempt, slept)
            delay = policy.delay_seconds(key, attempt)
            slept += delay
            obs.counter("resilience.retries.total").inc()
            obs.event("resilience.retry", site=site, operation=operation,
                      key=key, attempt=attempt,
                      delay_seconds=round(delay, 3), error=str(exc))


class CircuitBreaker:
    """Per-site closed/open/half-open breaker with quarantine.

    Thread-safe, though the serial engine drives every breaker from one
    thread.  State transitions are published as obs events and as the gauge
    ``resilience.breaker.<site>.state``.
    """

    def __init__(self, site: str, failure_threshold: int = 3,
                 probe_after: int = 2) -> None:
        self.site = site
        self.failure_threshold = max(1, failure_threshold)
        self.probe_after = max(1, probe_after)
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._skips_while_open = 0
        self._lock = threading.Lock()

    def _publish(self) -> None:
        obs.gauge(f"resilience.breaker.{self.site}.state").set(
            BREAKER_STATE_CODES[self.state])

    def _transition(self, state: BreakerState, reason: str) -> None:
        previous, self.state = self.state, state
        obs.event("resilience.breaker", site=self.site,
                  from_state=previous.value, to_state=state.value,
                  reason=reason)
        self._publish()

    def allow(self) -> bool:
        """May the next cell touch the substrate?  False = quarantined."""
        with self._lock:
            if self.state is not BreakerState.OPEN:
                return True
            self._skips_while_open += 1
            if self._skips_while_open >= self.probe_after:
                self._transition(BreakerState.HALF_OPEN, "probe window")
                return True
            obs.counter("resilience.cells.quarantined").inc()
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._skips_while_open = 0
            if self.state is not BreakerState.CLOSED:
                self._transition(BreakerState.CLOSED, "probe succeeded")

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._skips_while_open = 0
            if self.state is BreakerState.HALF_OPEN:
                self._transition(BreakerState.OPEN, "probe failed")
            elif self.state is BreakerState.CLOSED and \
                    self._consecutive_failures >= self.failure_threshold:
                self._transition(
                    BreakerState.OPEN,
                    f"{self._consecutive_failures} consecutive failures")


def provenance_from(exc: BaseException, site: str,
                    breaker_state: str = BreakerState.CLOSED.value,
                    operation: str = "evaluate") -> FailureProvenance:
    """Build provenance from whatever escaped the resilient paths."""
    from repro.sysmodel.faults import InjectedFault
    attempts, slept = 1, 0.0
    if isinstance(exc, RetriesExhausted):
        operation = exc.operation
        attempts = exc.attempts
        slept = exc.slept_seconds
        exc = exc.last
    if isinstance(exc, InjectedFault):
        return FailureProvenance(
            kind=exc.kind.value, detail=str(exc), site=site,
            operation=operation, attempts=attempts, retry_seconds=slept,
            breaker_state=breaker_state, transient=exc.transient)
    return FailureProvenance(
        kind=type(exc).__name__, detail=str(exc), site=site,
        operation=operation, attempts=attempts, retry_seconds=slept,
        breaker_state=breaker_state)

