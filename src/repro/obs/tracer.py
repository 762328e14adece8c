"""Hierarchical span tracing.

A :class:`Span` records one timed operation: a name, free-form
attributes, a parent link, the *real* wall-clock duration
(``time.perf_counter``) and the *simulated* duration (seconds of
FEAM's scheduler-visible work, accrued from the
:class:`~repro.core.config.FeamConfig` timing model by the
instrumentation that owns the span).  Spans nest through a per-thread
stack, so instrumented code never passes span objects around.  The
tracer stays thread-safe: ``feam serve`` and ``feam watch`` snapshot
it from other threads while a run is still appending spans.

Two tracer implementations share the interface:

* :class:`Tracer` -- the in-memory collector: finished spans accumulate
  on ``tracer.spans`` (lock-protected, finish order) for the exporters
  in :mod:`repro.obs.export`;
* :class:`NullTracer` -- the default when no collector is installed.
  ``span()`` hands back one shared, stateless context manager; the
  whole instrumentation layer costs a dict build and two method calls
  per span (bounded by the micro-benchmark in
  ``tests/test_obs_tracer.py``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Optional


@dataclasses.dataclass
class Span:
    """One finished (or in-flight) traced operation."""

    name: str
    span_id: int
    parent_id: Optional[int]
    attrs: dict
    start_wall: float
    #: Real elapsed seconds (perf_counter), set when the span exits.
    wall_seconds: Optional[float] = None
    #: Simulated seconds of FEAM work attributed to this span.
    sim_seconds: float = 0.0
    thread: str = ""
    status: str = "ok"

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)

    def add_sim_seconds(self, seconds: float) -> None:
        self.sim_seconds += seconds


class _NullSpan:
    """The shared do-nothing span/context-manager."""

    __slots__ = ()

    def set_attrs(self, **attrs) -> None:
        pass

    def add_sim_seconds(self, seconds: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The no-collector default: every span is the shared null span."""

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def current_span(self) -> None:
        return None

    def snapshot(self) -> list:
        return []


class _ActiveSpan:
    """Context manager that opens/closes one real span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._span = Span(
            name=name, span_id=0, parent_id=None, attrs=attrs,
            start_wall=0.0, thread=threading.current_thread().name)

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        stack = tracer._stack()
        if stack:
            span.parent_id = stack[-1].span_id
        with tracer._lock:
            tracer._next_id += 1
            span.span_id = tracer._next_id
        span.start_wall = tracer._clock()
        stack.append(span)
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        span = self._span
        span.wall_seconds = tracer._clock() - span.start_wall
        if exc_type is not None:
            span.status = "error"
            span.attrs.setdefault("error", repr(exc))
        stack = tracer._stack()
        while stack:
            if stack.pop() is span:
                break
        with tracer._lock:
            tracer.spans.append(span)
        return False


class Tracer:
    """The collecting tracer: spans nest per thread, finish into a list."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        #: Finished spans, in finish order (children before parents).
        self.spans: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("name", k=v) as sp:``."""
        return _ActiveSpan(self, name, attrs)

    def spans_named(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def snapshot(self) -> list[Span]:
        """A consistent copy of the finished spans (safe while
        instrumented code is still appending from other threads)."""
        with self._lock:
            return list(self.spans)
