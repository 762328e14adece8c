"""Trace analysis: flame profiles, critical paths, trace diffs.

PR 2 made the pipeline *emit* spans; this module makes them
*answerable*.  Three analyses, each working equally on live
:class:`~repro.obs.tracer.Span` lists (``collector.spans``) and on
spans parsed back from JSONL (:func:`repro.obs.export.parse_jsonl`):

* :func:`profile` -- aggregate spans by name into a flame-style
  profile: call count, **total** time (span duration) and **self**
  time (duration minus direct children), in both the wall clock and
  the simulated FEAM clock.  ``render_top`` prints it as the ``feam
  top`` table.
* :func:`critical_path` -- from the heaviest root, repeatedly descend
  into the heaviest child: the chain of spans that bounds the run's
  wall time (what you must make faster for the run to get faster).
* :func:`diff_profiles` -- per-name deltas between two profiles
  (count, wall, sim; appeared/disappeared names flagged), the engine
  of ``feam diff-trace`` and of ``benchmarks/check_regression.py``.

Profiles serialise through :meth:`Profile.to_dict` /
:func:`profile_from_dict` so a benchmark run can commit its flame
profile next to its timings and a later gate can diff against it.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.obs.export import span_tree
from repro.obs.tracer import Span


@dataclasses.dataclass
class FrameStat:
    """Aggregated timings for every span sharing one name."""

    name: str
    count: int = 0
    errors: int = 0
    wall_total: float = 0.0
    wall_self: float = 0.0
    sim_total: float = 0.0
    sim_self: float = 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "errors": self.errors,
            "wall_total": round(self.wall_total, 6),
            "wall_self": round(self.wall_self, 6),
            "sim_total": round(self.sim_total, 6),
            "sim_self": round(self.sim_self, 6),
        }


@dataclasses.dataclass
class Profile:
    """A flame-style aggregate of one trace, keyed by span name."""

    frames: dict[str, FrameStat]
    span_count: int = 0

    def frame(self, name: str) -> Optional[FrameStat]:
        return self.frames.get(name)

    def sorted_frames(self, sort: str = "wall_self") -> list[FrameStat]:
        if sort not in _SORT_KEYS:
            raise ValueError(
                f"unknown sort key {sort!r}; choose from "
                f"{', '.join(sorted(_SORT_KEYS))}")
        key = _SORT_KEYS[sort]
        return sorted(self.frames.values(),
                      key=lambda f: (-key(f), f.name))

    def to_dict(self) -> dict:
        return {
            "span_count": self.span_count,
            "frames": {name: stat.to_dict()
                       for name, stat in sorted(self.frames.items())},
        }


_SORT_KEYS = {
    "wall_self": lambda f: f.wall_self,
    "wall_total": lambda f: f.wall_total,
    "sim_self": lambda f: f.sim_self,
    "sim_total": lambda f: f.sim_total,
    "count": lambda f: f.count,
}


def profile_from_dict(data: dict) -> Profile:
    """Rebuild a :class:`Profile` from :meth:`Profile.to_dict` output."""
    frames = {}
    for name, stat in data.get("frames", {}).items():
        frames[name] = FrameStat(
            name=name,
            count=int(stat.get("count", 0)),
            errors=int(stat.get("errors", 0)),
            wall_total=float(stat.get("wall_total", 0.0)),
            wall_self=float(stat.get("wall_self", 0.0)),
            sim_total=float(stat.get("sim_total", 0.0)),
            sim_self=float(stat.get("sim_self", 0.0)))
    return Profile(frames=frames,
                   span_count=int(data.get("span_count", 0)))


def _wall(span: Span) -> float:
    return span.wall_seconds or 0.0


def profile(spans: Sequence[Span]) -> Profile:
    """Aggregate *spans* into per-name total/self timings.

    Self time is the span's duration minus its *direct* children's
    durations (clamped at zero: concurrent children on other threads
    can legitimately sum past their parent).
    """
    children_wall: dict[int, float] = {}
    children_sim: dict[int, float] = {}
    known = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent_id
        if parent is not None and parent in known:
            children_wall[parent] = children_wall.get(parent, 0.0) \
                + _wall(span)
            children_sim[parent] = children_sim.get(parent, 0.0) \
                + span.sim_seconds
    frames: dict[str, FrameStat] = {}
    for span in spans:
        stat = frames.get(span.name)
        if stat is None:
            stat = frames[span.name] = FrameStat(name=span.name)
        stat.count += 1
        if span.status != "ok":
            stat.errors += 1
        wall = _wall(span)
        sim = span.sim_seconds
        stat.wall_total += wall
        stat.sim_total += sim
        stat.wall_self += max(
            0.0, wall - children_wall.get(span.span_id, 0.0))
        stat.sim_self += max(
            0.0, sim - children_sim.get(span.span_id, 0.0))
    return Profile(frames=frames, span_count=len(spans))


def critical_path(spans: Sequence[Span],
                  clock: str = "wall") -> list[Span]:
    """The heaviest root-to-leaf chain of the trace.

    Starting from the root with the largest duration on *clock*
    (``wall`` or ``sim``), descend into the heaviest child until a
    leaf.  Empty input gives an empty path.
    """
    if clock not in ("wall", "sim"):
        raise ValueError(f"unknown clock {clock!r}; use 'wall' or 'sim'")
    weight = (_wall if clock == "wall"
              else lambda span: span.sim_seconds)
    roots = span_tree(list(spans))
    if not roots:
        return []
    node = max(roots, key=lambda n: weight(n.span))
    path = [node.span]
    while node.children:
        node = max(node.children, key=lambda n: weight(n.span))
        path.append(node.span)
    return path


@dataclasses.dataclass
class FrameDelta:
    """One span name's change between a baseline and a current profile."""

    name: str
    base: Optional[FrameStat]
    curr: Optional[FrameStat]

    @property
    def status(self) -> str:
        if self.base is None:
            return "added"
        if self.curr is None:
            return "removed"
        return "common"

    @property
    def wall_delta(self) -> float:
        return ((self.curr.wall_total if self.curr else 0.0)
                - (self.base.wall_total if self.base else 0.0))

    @property
    def wall_ratio(self) -> Optional[float]:
        """current/baseline total wall; None when the baseline is ~0."""
        if self.base is None or self.base.wall_total <= 1e-12:
            return None
        return (self.curr.wall_total if self.curr else 0.0) \
            / self.base.wall_total


def diff_profiles(base: Profile, curr: Profile) -> list[FrameDelta]:
    """Per-name deltas, largest absolute wall change first."""
    names = sorted(set(base.frames) | set(curr.frames))
    deltas = [FrameDelta(name=name, base=base.frames.get(name),
                         curr=curr.frames.get(name))
              for name in names]
    deltas.sort(key=lambda d: (-abs(d.wall_delta), d.name))
    return deltas


# -- rendering --------------------------------------------------------------------


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}"


def render_top(prof: Profile, sort: str = "wall_self",
               limit: int = 20) -> str:
    """The ``feam top`` flame table: one row per span name."""
    ranked = prof.sorted_frames(sort)
    frames = ranked[:max(1, limit)]
    if not frames:
        return "(no spans)"
    width = max([len(f.name) for f in frames] + [4])
    header = (f"{'span':<{width}}  {'count':>6}  {'wall total':>11}  "
              f"{'wall self':>10}  {'sim total':>10}  {'sim self':>9}  "
              f"{'err':>4}")
    lines = [header, "-" * len(header)]
    for frame in frames:
        lines.append(
            f"{frame.name:<{width}}  {frame.count:>6}  "
            f"{_ms(frame.wall_total):>9}ms  {_ms(frame.wall_self):>8}ms  "
            f"{frame.sim_total:>9.1f}s  {frame.sim_self:>8.1f}s  "
            f"{frame.errors:>4}")
    truncated = len(ranked) - len(frames)
    if truncated > 0:
        lines.append(f"... and {truncated} more row(s) "
                     f"(raise --top to see them)")
    lines.append(f"({prof.span_count} spans, "
                 f"{len(prof.frames)} distinct names; sorted by {sort})")
    return "\n".join(lines)


def render_critical_path(path: Sequence[Span],
                         clock: str = "wall") -> str:
    """The critical path, one indented line per level."""
    if not path:
        return "(empty trace)"
    lines = [f"critical path ({clock} clock):"]
    for depth, span in enumerate(path):
        if clock == "wall":
            cost = f"{_ms(_wall(span))}ms"
        else:
            cost = f"{span.sim_seconds:.1f}s"
        lines.append(f"  {'  ' * depth}{span.name}  {cost}")
    return "\n".join(lines)


def render_diff(deltas: Sequence[FrameDelta], limit: int = 30) -> str:
    """The ``feam diff-trace`` table: per-name baseline vs current."""
    rows = list(deltas)[:max(1, limit)]
    if not rows:
        return "(no spans in either trace)"
    width = max([len(d.name) for d in rows] + [4])
    header = (f"{'span':<{width}}  {'count':>11}  {'wall base':>10}  "
              f"{'wall curr':>10}  {'wall delta':>11}  {'ratio':>6}")
    lines = [header, "-" * len(header)]
    for delta in rows:
        base_count = delta.base.count if delta.base else 0
        curr_count = delta.curr.count if delta.curr else 0
        base_wall = delta.base.wall_total if delta.base else 0.0
        curr_wall = delta.curr.wall_total if delta.curr else 0.0
        ratio = delta.wall_ratio
        marker = {"added": " [new]", "removed": " [gone]"}.get(
            delta.status, "")
        lines.append(
            f"{delta.name:<{width}}  {base_count:>4} -> {curr_count:>4}  "
            f"{_ms(base_wall):>8}ms  {_ms(curr_wall):>8}ms  "
            f"{delta.wall_delta * 1000:>+9.2f}ms  "
            f"{'n/a' if ratio is None else f'{ratio:.2f}':>6}{marker}")
    return "\n".join(lines)


def spans_from_jsonl_file(path: str) -> list[Span]:
    """Read a JSONL trace file and return its spans."""
    from repro.obs.export import parse_jsonl
    with open(path, "r", encoding="utf-8") as handle:
        return parse_jsonl(handle.read()).spans
