"""``repro.obs`` -- structured tracing, metrics and events for FEAM.

The observability layer makes every evaluation explainable after the
fact: which determinant fired, what it cost (simulated *and* wall
time), where cache time went, which library copies were staged and why
a cell rendered UNKNOWN.  It is a strict lower layer -- nothing here
imports from the rest of ``repro`` -- and it is *off by default*: the
module-level facade delegates to a process-wide :class:`Collector`
that, until one is installed, is a set of shared null objects whose
per-call cost is a few hundred nanoseconds (pinned by the
micro-benchmark in ``tests/test_obs_tracer.py``).

Usage::

    from repro import obs

    with obs.capture() as collector:
        engine.evaluate_matrix(binaries, sites)
    print(obs.export.render_span_tree(collector.spans))
    print(collector.metrics.render())

Instrumented code calls the facade directly::

    with obs.span("engine.cell", site=site.name) as sp:
        ...
        sp.set_attrs(ready=report.ready)
    obs.counter("engine.cache.evaluation.misses").inc()
    obs.event("resolution.staged", soname=soname, bytes=size)
"""

from __future__ import annotations

import contextlib
import time
from typing import Optional

from repro.obs import export  # noqa: F401  (re-exported submodule)
from repro.obs.events import EventLog, NullEventLog
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.tracer import NullTracer, Span, Tracer

__all__ = [
    "Collector",
    "alerts",
    "analyze",
    "anomaly",
    "capture",
    "counter",
    "current",
    "event",
    "export",
    "gauge",
    "histogram",
    "install",
    "is_active",
    "metrics",
    "serve",
    "slo",
    "span",
    "store",
    "uninstall",
    "watch",
    "wide",
]


class Collector:
    """One in-memory observability session: tracer + metrics + events."""

    active = True

    def __init__(self, clock=time.perf_counter) -> None:
        self.tracer = Tracer(clock)
        self.metrics = MetricsRegistry()
        self.events = EventLog(clock)

    @property
    def spans(self) -> list[Span]:
        return self.tracer.spans

    def export_jsonl(self) -> str:
        return export.export_jsonl(self)

    def render_tree(self) -> str:
        return export.render_span_tree(self.tracer.spans)


class _NullCollector:
    """The default: absorbs everything, allocates nothing per call."""

    active = False

    def __init__(self) -> None:
        self.tracer = NullTracer()
        self.metrics = NullMetrics()
        self.events = NullEventLog()

    @property
    def spans(self) -> tuple:
        return ()


_NULL = _NullCollector()
_current = _NULL


def current():
    """The installed collector (the shared null collector by default)."""
    return _current


def is_active() -> bool:
    return _current.active


def install(collector: Collector) -> None:
    """Make *collector* the process-wide observability sink."""
    global _current
    _current = collector


def uninstall() -> None:
    global _current
    _current = _NULL


@contextlib.contextmanager
def capture(collector: Optional[Collector] = None):
    """Install a collector for the duration of a ``with`` block.

    Nests: the previously installed collector (or the null default) is
    restored on exit.
    """
    installed = collector if collector is not None else Collector()
    previous = _current
    install(installed)
    try:
        yield installed
    finally:
        install(previous)


# -- the hot-path facade -----------------------------------------------------------


def span(name: str, **attrs):
    """Open a span on the installed tracer (no-op span by default)."""
    return _current.tracer.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Record a discrete event on the installed event log."""
    _current.events.emit(name, **attrs)


def metrics():
    """The installed metrics registry (null registry by default)."""
    return _current.metrics


def counter(name: str):
    return _current.metrics.counter(name)


def gauge(name: str):
    return _current.metrics.gauge(name)


def histogram(name: str):
    return _current.metrics.histogram(name)


# Analysis layers over the collector, importable as ``obs.analyze`` etc.
# (at the bottom: ``slo``, ``serve`` and ``wide`` call back into this
# facade).
from repro.obs import alerts  # noqa: E402,F401
from repro.obs import analyze  # noqa: E402,F401
from repro.obs import anomaly  # noqa: E402,F401
from repro.obs import compare  # noqa: E402,F401
from repro.obs import ledger  # noqa: E402,F401
from repro.obs import slo  # noqa: E402,F401
from repro.obs import serve  # noqa: E402,F401
from repro.obs import store  # noqa: E402,F401
from repro.obs import watch  # noqa: E402,F401
from repro.obs import wide  # noqa: E402,F401
