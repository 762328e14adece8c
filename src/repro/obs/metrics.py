"""Counters, gauges and fixed-bucket histograms.

The :class:`MetricsRegistry` is the numerical side of the observability
layer: it absorbs the evaluation engine's cache hit/miss tallies
(mirrored as ``engine.cache.*`` counters next to the legacy
:class:`~repro.core.engine.CacheStats`) and extends them with
histograms over per-cell costs, per-site worker busy time, resolution
staging volumes and anything else the instrumentation observes.

Histograms are cheap by construction: a fixed bucket ladder (powers-of-
ten decades split at 1/2/5), a running count/sum/min/max, and quantile
*estimates* read off the cumulative bucket counts -- p50/p95 are bucket
upper bounds, not exact order statistics, which keeps ``observe`` O(len
(buckets)) with no sample retention.

All instruments are thread-safe; the null registry used when no
collector is installed absorbs every call through shared no-op
instances.
"""

from __future__ import annotations

import threading
from typing import Optional

#: Default histogram ladder: 1/2/5 per decade from 1 ms to 1000 s.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    base * scale
    for scale in (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
    for base in (1.0, 2.0, 5.0)
) + (1000.0,)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0.0

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution with p50/p95/max summaries."""

    __slots__ = ("name", "buckets", "_lock", "_counts",
                 "count", "total", "min", "max")

    def __init__(self, name: str,
                 buckets: Optional[tuple[float, ...]] = None) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets or DEFAULT_BUCKETS))
        self._lock = threading.Lock()
        # One count per bucket upper bound, plus the overflow bucket.
        self._counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate.

        Returns the upper bound of the bucket holding the q-th
        observation, clamped into ``[min, max]`` so a single sample
        (or any bucket coarser than the data) reports an observed
        value, never an edge the data never reached; observations
        beyond the last bucket edge land in the overflow bucket and
        report the true ``max``.  ``q`` is clamped to ``[0, 1]``;
        an empty histogram returns ``None``.
        """
        q = min(1.0, max(0.0, q))
        with self._lock:
            if self.count == 0:
                return None
            # rank >= 1: q=0 still selects the first observation.
            rank = max(1.0, q * self.count)
            cumulative = 0
            for i, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count:
                    if i < len(self.buckets):
                        estimate = self.buckets[i]
                        if self.max is not None:
                            estimate = min(estimate, self.max)
                        if self.min is not None:
                            estimate = max(estimate, self.min)
                        return estimate
                    return self.max
            return self.max

    def bucket_counts(self) -> list[tuple[Optional[float], int]]:
        """Cumulative (upper_bound, count) pairs, Prometheus-style.

        One entry per bucket edge plus a trailing ``(None, count)``
        overflow entry (the ``+Inf`` bucket); counts are cumulative,
        so the last entry always equals ``count``.
        """
        with self._lock:
            pairs: list[tuple[Optional[float], int]] = []
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, self._counts):
                cumulative += bucket_count
                pairs.append((bound, cumulative))
            pairs.append((None, self.count))
            return pairs

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
        }


class MetricsRegistry:
    """Named instruments, created on first use, rendered sorted."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str,
                  buckets: Optional[tuple[float, ...]] = None) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, buckets)
            return instrument

    # -- views ---------------------------------------------------------------------

    def instruments(self) -> tuple[dict, dict, dict]:
        """Shallow copies of the (counters, gauges, histograms) maps.

        The instrument objects themselves are shared (and individually
        thread-safe); the copies mean iteration never races instrument
        creation.  The Prometheus exposition reads raw bucket counts
        through this, which ``to_dict`` summaries do not carry.
        """
        with self._lock:
            return (dict(self._counters), dict(self._gauges),
                    dict(self._histograms))

    def to_dict(self) -> dict:
        """A JSON-ready snapshot of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value
                         for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(histograms.items())},
        }

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable dump (the ``feam stats`` output).

        With *limit*, each section shows at most that many rows (name
        order) and closes with an explicit "... and K more" footer --
        a fleet run mints hundreds of instruments, and an uncapped
        dump buries the interesting ones.
        """
        snapshot = self.to_dict()
        lines: list[str] = []

        def footer(total: int) -> None:
            if limit is not None and total > limit:
                lines.append(f"  ... and {total - limit} more row(s) "
                             f"(raise --top to see them)")

        def capped(section: dict) -> list:
            items = list(section.items())
            return items[:limit] if limit is not None else items

        if snapshot["counters"]:
            lines.append("counters:")
            width = max(len(n) for n in snapshot["counters"])
            for name, value in capped(snapshot["counters"]):
                lines.append(f"  {name:<{width}}  {value}")
            footer(len(snapshot["counters"]))
        if snapshot["gauges"]:
            lines.append("gauges:")
            width = max(len(n) for n in snapshot["gauges"])
            for name, value in capped(snapshot["gauges"]):
                lines.append(f"  {name:<{width}}  {value:.3f}")
            footer(len(snapshot["gauges"]))
        if snapshot["histograms"]:
            lines.append("histograms:")
            for name, summary in capped(snapshot["histograms"]):
                lines.append(
                    f"  {name}  count={summary['count']} "
                    f"mean={_fmt(summary['mean'])} p50={_fmt(summary['p50'])} "
                    f"p95={_fmt(summary['p95'])} max={_fmt(summary['max'])}")
            footer(len(snapshot["histograms"]))
        return "\n".join(lines) if lines else "(no metrics collected)"


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.4g}"


class _NullInstrument:
    """Absorbs counter/gauge/histogram calls when nothing is installed."""

    __slots__ = ()
    name = ""
    value = 0
    count = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The no-collector registry: every instrument is the shared no-op."""

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str, buckets=None) -> _NullInstrument:
        return NULL_INSTRUMENT

    def instruments(self) -> tuple[dict, dict, dict]:
        return {}, {}, {}

    def to_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def render(self, limit=None) -> str:
        return "(no metrics collected)"
