"""The queryable wide-event store behind ``feam query``.

A 4,000-cell fleet run emits 4,000 wide events
(:mod:`repro.obs.wide`); post-hoc triage is a filter/aggregate over
that JSONL, not an eyeball pass over the grid::

    feam query wide_events.jsonl --where outcome=unknown --by site --top 20
    feam query wide_events.jsonl --where site=gen-0042 --agg p95:wall_seconds
    feam query wide_events.jsonl --by outcome --agg count --agg p50:sim_seconds

Three small pieces:

* :func:`parse_where` -- ``field OP value`` clauses (``=``, ``!=``,
  ``>``, ``>=``, ``<``, ``<=``).  Equality compares case-insensitively
  on strings (``outcome=UNKNOWN`` matches ``unknown``); ordering
  clauses compare numerically and skip records where the field is
  absent or non-numeric.
* :func:`parse_agg` -- aggregations: ``count`` plus ``min``/``max``/
  ``mean``/``sum``/``p50``/``p95``/``p99`` over any numeric field
  (``p95:wall_seconds``).  Percentiles are exact order statistics --
  the store holds raw records, unlike the fixed-bucket histograms.
* :func:`run_query` -- filter, group by a field (or one global group),
  aggregate, rank by the first aggregation, cap at ``top`` rows.
  :func:`render_result` prints the table with an explicit
  "... and K more rows" footer instead of dumping every group.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Optional, Sequence

from repro.obs.ledger import order_statistic

_WHERE_RE = re.compile(
    r"^(?P<field>[A-Za-z0-9_.\-]+)\s*"
    r"(?P<op>!=|>=|<=|=|>|<)\s*"
    r"(?P<value>.+)$")

_AGG_RE = re.compile(
    r"^(?P<fn>count|sum|min|max|mean|p50|p95|p99)"
    r"(?::(?P<field>[A-Za-z0-9_.\-]+))?$")

_ORDERED_OPS = (">", ">=", "<", "<=")


@dataclasses.dataclass(frozen=True)
class WhereClause:
    """One ``field OP value`` filter."""

    field: str
    op: str
    value: str

    @property
    def name(self) -> str:
        return f"{self.field}{self.op}{self.value}"

    def matches(self, record: dict) -> bool:
        observed = record.get(self.field)
        if self.op in _ORDERED_OPS:
            threshold = _as_number(self.value)
            number = _as_number(observed)
            if threshold is None or number is None:
                return False
            return {
                ">": number > threshold,
                ">=": number >= threshold,
                "<": number < threshold,
                "<=": number <= threshold,
            }[self.op]
        equal = _loosely_equal(observed, self.value)
        return equal if self.op == "=" else not equal


@dataclasses.dataclass(frozen=True)
class Aggregation:
    """One output column: ``count`` or ``fn`` over a numeric field."""

    fn: str
    field: Optional[str] = None

    @property
    def name(self) -> str:
        return self.fn if self.field is None else f"{self.fn}:{self.field}"

    def compute(self, records: Sequence[dict]) -> Optional[float]:
        if self.fn == "count":
            return float(len(records))
        values = sorted(
            number for number in (_as_number(r.get(self.field))
                                  for r in records)
            if number is not None)
        if not values:
            return None
        if self.fn == "sum":
            return float(sum(values))
        if self.fn == "min":
            return values[0]
        if self.fn == "max":
            return values[-1]
        if self.fn == "mean":
            return sum(values) / len(values)
        quantile = {"p50": 0.50, "p95": 0.95, "p99": 0.99}[self.fn]
        return order_statistic(values, quantile)


def _as_number(value) -> Optional[float]:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _loosely_equal(observed, wanted: str) -> bool:
    """Case-insensitive string equality, numeric-aware, None-aware."""
    if observed is None:
        return wanted.lower() in ("none", "null", "")
    if isinstance(observed, bool):
        return wanted.lower() in (("true", "1", "yes") if observed
                                  else ("false", "0", "no"))
    number = _as_number(wanted)
    if isinstance(observed, (int, float)) and number is not None:
        return float(observed) == number
    return str(observed).lower() == wanted.lower()


def parse_where(text: str) -> WhereClause:
    """Parse one ``field OP value`` clause."""
    match = _WHERE_RE.match(text.strip())
    if match is None:
        raise ValueError(
            f"unparsable --where clause {text!r} (expected "
            f"'field=value', 'field!=value' or 'field>=number')")
    return WhereClause(field=match.group("field"), op=match.group("op"),
                      value=match.group("value").strip())


def parse_agg(text: str) -> Aggregation:
    """Parse one aggregation spec (``count`` or ``fn:field``)."""
    match = _AGG_RE.match(text.strip())
    if match is None:
        raise ValueError(
            f"unparsable --agg spec {text!r} (expected 'count' or "
            f"'sum|min|max|mean|p50|p95|p99:field')")
    fn, field = match.group("fn"), match.group("field")
    if fn != "count" and field is None:
        raise ValueError(f"--agg {fn} needs a field: '{fn}:wall_seconds'")
    if fn == "count" and field is not None:
        raise ValueError("--agg count takes no field")
    return Aggregation(fn=fn, field=field)


@dataclasses.dataclass
class QueryResult:
    """Filtered, grouped, aggregated wide events."""

    total: int                      # records in the store
    matched: int                    # records surviving the filters
    by: Optional[str]               # group-by field (None = one group)
    aggs: tuple[Aggregation, ...]
    #: (group value, {agg name: value}, group size), ranked.
    rows: list[tuple[str, dict, int]]
    truncated: int = 0              # rows beyond the --top cap

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "matched": self.matched,
            "by": self.by,
            "aggregations": [agg.name for agg in self.aggs],
            "rows": [{"group": group, "records": size, **values}
                     for group, values, size in self.rows],
            "truncated_rows": self.truncated,
        }


def run_query(records: Sequence[dict],
              where: Sequence[WhereClause] = (),
              by: Optional[str] = None,
              aggs: Sequence[Aggregation] = (),
              top: int = 20) -> QueryResult:
    """Filter *records*, group, aggregate, rank, cap at *top* rows.

    Rows rank by the first aggregation descending (ties broken by
    group value, so results are stable across runs); with no
    aggregations given, ``count`` is implied.
    """
    aggs = tuple(aggs) or (Aggregation(fn="count"),)
    matched = [record for record in records
               if all(clause.matches(record) for clause in where)]
    groups: dict[str, list[dict]] = {}
    if by is None:
        if matched:
            groups["*"] = matched
    else:
        for record in matched:
            key = record.get(by)
            key = "(absent)" if key is None else str(key)
            groups.setdefault(key, []).append(record)

    rows = []
    for group, members in groups.items():
        values = {agg.name: agg.compute(members) for agg in aggs}
        rows.append((group, values, len(members)))
    first = aggs[0].name
    rows.sort(key=lambda row: (
        -(row[1][first] if row[1][first] is not None else float("-inf")),
        row[0]))
    top = max(1, top)
    truncated = max(0, len(rows) - top)
    return QueryResult(total=len(records), matched=len(matched), by=by,
                       aggs=aggs, rows=rows[:top], truncated=truncated)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_result(result: QueryResult,
                  where: Sequence[WhereClause] = ()) -> str:
    """The ``feam query`` table (with the truncation footer)."""
    lines = []
    clause_text = " and ".join(clause.name for clause in where) or "all"
    lines.append(f"wide events: {result.matched}/{result.total} match "
                 f"[{clause_text}]")
    if not result.rows:
        lines.append("(no matching events)")
        return "\n".join(lines)
    group_header = result.by or "group"
    width = max([len(group_header)]
                + [len(group) for group, _, _ in result.rows])
    agg_names = [agg.name for agg in result.aggs]
    header = f"{group_header:<{width}}"
    for name in agg_names:
        header += f"  {name:>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for group, values, _size in result.rows:
        row = f"{group:<{width}}"
        for name in agg_names:
            row += f"  {_fmt(values[name]):>14}"
        lines.append(row)
    if result.truncated:
        lines.append(f"... and {result.truncated} more row(s) "
                     f"(raise --top to see them)")
    return "\n".join(lines)
