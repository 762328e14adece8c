"""The live fleet dashboard behind ``feam watch``.

A 1,000-site matrix takes tens of seconds; ``feam watch`` shows it
moving: cells per second, per-layer cache hit rates, breaker states
and a rolling latency histogram, re-rendered in place every
interval.  The data path is *snapshots*, not callbacks: each
frame folds one :func:`sample` of a metrics registry (taken locally
from the installed collector, or fetched from a running ``feam
serve``'s ``/snapshot`` endpoint) against the previous one, so the
renderer works identically attached to a live process, driving its
own run, or replaying recorded samples in tests.

Terminal behaviour degrades honestly: on a TTY the dashboard redraws
in place (cursor-up + erase-line ANSI codes); when stdout is a pipe or
a CI log it prints one plain summary line per interval instead --
``watch`` output must never corrupt a log file with control codes.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

#: Bar character for the latency histogram (ASCII-safe).
_BAR = "#"


def sample(collector) -> dict:
    """One JSON-ready snapshot of a collector's registry.

    The ``metrics`` half is ``MetricsRegistry.to_dict``; ``buckets``
    additionally carries each histogram's cumulative
    ``(upper_bound, count)`` pairs, which the summary dict does not
    (the rolling histogram needs real buckets, not just p50/p95).
    The serving layer's ``/snapshot`` endpoint emits exactly this
    shape, so attach mode and local mode share one renderer.
    """
    metrics = collector.metrics.to_dict()
    buckets: dict[str, list] = {}
    _counters, _gauges, histograms = collector.metrics.instruments()
    for name, histogram in histograms.items():
        buckets[name] = [[bound, count]
                         for bound, count in histogram.bucket_counts()]
    return {"metrics": metrics, "buckets": buckets,
            "spans": len(collector.tracer.snapshot()),
            "events": len(getattr(collector.events, "events", ()))}


@dataclasses.dataclass
class WatchState:
    """Frame-to-frame deltas: the previous sample and elapsed time."""

    previous: Optional[dict] = None
    elapsed: float = 0.0
    frames: int = 0

    def advance(self, snap: dict, interval: float) -> dict:
        """Fold one new sample; returns the previous one (or {})."""
        before = self.previous or {}
        self.previous = snap
        self.elapsed += interval
        self.frames += 1
        return before


def _counter(snap: dict, name: str) -> float:
    return snap.get("metrics", {}).get("counters", {}).get(name, 0)


def _gauge(snap: dict, name: str) -> Optional[float]:
    return snap.get("metrics", {}).get("gauges", {}).get(name)


def _hit_rate(snap: dict, layer: str) -> Optional[float]:
    """A cache layer's hit rate from its live counters (the gauge is
    published only when a matrix ends, so it answers only without them)."""
    hits = _counter(snap, f"engine.cache.{layer}.hits")
    lookups = hits + _counter(snap, f"engine.cache.{layer}.misses")
    return (hits / lookups if lookups
            else _gauge(snap, f"engine.cache.{layer}.hit_rate"))


def _breaker_words(snap: dict) -> dict[str, int]:
    """Breaker-state word -> site count, folded from the state gauges."""
    words = {"closed": 0, "half-open": 0, "open": 0}
    codes = {0: "closed", 1: "half-open", 2: "open"}
    for name, value in snap.get("metrics", {}).get("gauges", {}).items():
        if name.startswith("resilience.breaker.") \
                and name.endswith(".state"):
            word = codes.get(int(value), "open")
            words[word] = words.get(word, 0) + 1
    return words


def _rolling_buckets(snap: dict, before: dict,
                     name: str = "engine.cell.wall_seconds",
                     rows: int = 5) -> list[tuple[str, int]]:
    """The last interval's latency distribution, densest *rows* buckets.

    Cumulative bucket counts are monotonic, so the per-interval
    histogram is the pairwise difference of two snapshots,
    de-cumulated per bucket.
    """
    current = snap.get("buckets", {}).get(name)
    if not current:
        return []
    previous = {pair[0]: pair[1]
                for pair in (before.get("buckets", {}).get(name) or [])}
    deltas: list[tuple[str, int]] = []
    last_cum = 0
    last_prev_cum = 0
    for bound, cumulative in current:
        prev_cum = previous.get(bound, 0)
        count = (cumulative - last_cum) - (prev_cum - last_prev_cum)
        last_cum, last_prev_cum = cumulative, prev_cum
        if count > 0:
            label = "+Inf" if bound is None else (
                f"{bound * 1000:g}ms" if bound < 1 else f"{bound:g}s")
            deltas.append((f"<={label}", count))
    deltas.sort(key=lambda pair: -pair[1])
    return sorted(deltas[:rows], key=lambda pair: pair[0])


def _fmt_rate(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def render_frame(snap: dict, before: dict, interval: float,
                 elapsed: float, total_cells: Optional[int] = None) -> str:
    """One dashboard frame (multi-line, no control codes)."""
    cells = _counter(snap, "cells.evaluated")
    cells_before = _counter(before, "cells.evaluated")
    rate = (cells - cells_before) / interval if interval > 0 else 0.0
    progress = f"{int(cells)}"
    if total_cells:
        progress += f"/{total_cells}"
    lines = [
        f"feam watch  t+{elapsed:6.1f}s   cells {progress}   "
        f"{rate:8.1f} cells/s"
    ]

    rates = {layer: _hit_rate(snap, layer)
             for layer in ("description", "discovery", "evaluation")}
    lines.append("cache    " + "  ".join(
        f"{layer}={_fmt_rate(rate)}" for layer, rate in rates.items()))

    words = _breaker_words(snap)
    if any(words.values()):
        lines.append("breakers " + "  ".join(
            f"{word}={count}" for word, count in words.items()))

    # The alert engine publishes these gauges per evaluation tick
    # (repro.obs.alerts); absent gauges mean no engine ran, and the
    # panel stays hidden rather than claiming "0 firing".
    firing = _gauge(snap, "alerts.firing")
    pending = _gauge(snap, "alerts.pending")
    if firing is not None or pending is not None:
        critical = _gauge(snap, "alerts.firing.critical") or 0
        lines.append(
            f"alerts   firing={int(firing or 0)} "
            f"({int(critical)} critical)  pending={int(pending or 0)}")

    wide = _counter(snap, "obs.wide.emitted")
    if wide:
        lines.append(f"telemetry wide={int(wide)}")

    summary = (snap.get("metrics", {}).get("histograms", {})
               .get("engine.cell.wall_seconds"))
    if summary and summary.get("count"):
        p50 = summary.get("p50")
        p95 = summary.get("p95")
        lines.append(
            f"latency  count={summary['count']}  "
            f"p50={_fmt_seconds(p50)}  p95={_fmt_seconds(p95)}  "
            f"max={_fmt_seconds(summary.get('max'))}")
    rolling = _rolling_buckets(snap, before)
    if rolling:
        biggest = max(count for _, count in rolling)
        for label, count in rolling:
            bar = _BAR * max(1, round(24 * count / biggest))
            lines.append(f"  {label:>9}  {bar} {count}")
    return "\n".join(lines)


def render_line(snap: dict, before: dict, interval: float,
                elapsed: float, total_cells: Optional[int] = None) -> str:
    """The non-TTY degradation: one plain summary line per interval."""
    cells = _counter(snap, "cells.evaluated")
    rate = ((cells - _counter(before, "cells.evaluated")) / interval
            if interval > 0 else 0.0)
    progress = f"{int(cells)}"
    if total_cells:
        progress += f"/{total_cells}"
    words = _breaker_words(snap)
    broken = words.get("open", 0) + words.get("half-open", 0)
    return (f"t+{elapsed:.1f}s cells={progress} rate={rate:.1f}/s "
            f"breakers_open={broken} "
            f"wide={int(_counter(snap, 'obs.wide.emitted'))}")


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if value < 1.0:
        return f"{value * 1000:.1f}ms"
    return f"{value:.2f}s"


class InPlaceRenderer:
    """Redraws the dashboard over itself on a TTY.

    Tracks how many lines the previous frame used and moves the cursor
    back up that far before printing the next one, erasing each line
    (frames can shrink).  The first frame prints normally.
    """

    def __init__(self, stream) -> None:
        self._stream = stream
        self._lines = 0

    def draw(self, frame: str) -> None:
        if self._lines:
            self._stream.write(f"\x1b[{self._lines}A")
        lines = frame.split("\n")
        for line in lines:
            self._stream.write("\x1b[2K" + line + "\n")
        # A frame that shrank leaves stale lines below; erase them.
        extra = self._lines - len(lines)
        if extra > 0:
            for _ in range(extra):
                self._stream.write("\x1b[2K\n")
            self._stream.write(f"\x1b[{extra}A")
        self._lines = len(lines)
        self._stream.flush()
