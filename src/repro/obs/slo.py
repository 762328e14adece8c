"""Declarative SLO rules over a metrics snapshot.

A rule is one line of text::

    engine.cache.hit_rate            >= 0.5
    matrix.unknown_cells.pct         <= 10      [critical]
    engine.cell.wall_seconds:p95     <= 0.25
    resolution.copies.total          >  0        ?

The left side selects an instrument from a
:meth:`~repro.obs.metrics.MetricsRegistry.to_dict` snapshot -- a
counter or gauge by its dotted name, or ``histogram:stat`` where
``stat`` is one of ``count``/``sum``/``min``/``max``/``mean``/``p50``/
``p95``.  The operator is one of ``<= < >= > ==``; the right side is
the numeric threshold.  A trailing ``?`` marks the rule *optional*:
an absent metric is then reported as ``skipped`` instead of failing
the evaluation (mandatory rules treat absence as a violation -- a
missing metric usually means the instrumented path never ran).

A trailing ``[critical]`` or ``[warn]`` tag sets the rule's
*severity* -- the vocabulary the alert engine
(:mod:`repro.obs.alerts`) shares with ``feam slo``: critical
violations page (``/healthz`` degrades to 503 while they fire), warn
violations inform.  Untagged rules default to ``warn``.

:func:`evaluate` is pure (snapshot in, :class:`SloReport` out);
:func:`check` additionally emits one ``slo.violation`` event per
failed rule and bumps the ``slo.violations`` counter on the installed
collector, so alerts land in the same trace as everything else.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Optional, Sequence

from repro import obs

_OPS = {
    "<=": lambda observed, threshold: observed <= threshold,
    ">=": lambda observed, threshold: observed >= threshold,
    "<": lambda observed, threshold: observed < threshold,
    ">": lambda observed, threshold: observed > threshold,
    "==": lambda observed, threshold: observed == threshold,
}

_HISTOGRAM_STATS = ("count", "sum", "min", "max", "mean", "p50", "p95")

#: The shared severity vocabulary: ``feam slo`` reports it, the alert
#: engine (:mod:`repro.obs.alerts`) escalates on it.
SEVERITIES = ("critical", "warn")

_RULE_RE = re.compile(
    r"^(?P<metric>[A-Za-z0-9_.\-]+(?::[a-z0-9]+)?)\s*"
    r"(?P<op><=|>=|==|<|>)\s*"
    r"(?P<threshold>[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)\s*"
    r"(?P<optional>\?)?\s*"
    r"(?:\[(?P<severity>critical|warn)\])?$")


@dataclasses.dataclass(frozen=True)
class SloRule:
    """One parsed threshold rule."""

    metric: str                    # dotted name, may carry ":stat"
    op: str                        # one of _OPS
    threshold: float
    optional: bool = False
    severity: str = "warn"         # one of SEVERITIES

    @property
    def name(self) -> str:
        return f"{self.metric} {self.op} {self.threshold:g}"

    def select(self, snapshot: dict) -> Optional[float]:
        """The observed value in *snapshot*, or None when absent."""
        metric, _, stat = self.metric.partition(":")
        if stat:
            summary = snapshot.get("histograms", {}).get(metric)
            if summary is None:
                return None
            if stat not in _HISTOGRAM_STATS:
                raise ValueError(
                    f"unknown histogram stat {stat!r} in rule "
                    f"{self.name!r}; choose from "
                    f"{', '.join(_HISTOGRAM_STATS)}")
            return summary.get(stat)
        for family in ("gauges", "counters"):
            values = snapshot.get(family, {})
            if metric in values:
                return values[metric]
        return None

    def judge(self, snapshot: dict) -> tuple[Optional[float], bool]:
        """``(observed, violated)`` for *snapshot*: an absent metric
        violates the rule unless the rule is optional."""
        observed = self.select(snapshot)
        if observed is None:
            return None, not self.optional
        return observed, not _OPS[self.op](observed, self.threshold)


@dataclasses.dataclass(frozen=True)
class SloResult:
    """One rule's verdict against one snapshot."""

    rule: SloRule
    status: str                    # "pass" | "fail" | "skipped"
    observed: Optional[float]
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclasses.dataclass
class SloReport:
    """Every rule's verdict; ``ok`` iff nothing failed."""

    results: list[SloResult]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def violations(self) -> list[SloResult]:
        return [r for r in self.results if r.status == "fail"]

    def render(self) -> str:
        if not self.results:
            return "(no SLO rules)"
        width = max(len(r.rule.name) for r in self.results)
        lines = []
        for result in self.results:
            observed = ("absent" if result.observed is None
                        else f"{result.observed:g}")
            word = {"pass": "PASS", "fail": "FAIL",
                    "skipped": "SKIP"}[result.status]
            line = (f"{word}  {result.rule.name:<{width}}  "
                    f"observed={observed}")
            if result.status == "fail":
                line += f"  [{result.rule.severity}]"
            if result.reason:
                line += f"  ({result.reason})"
            lines.append(line)
        failed = len(self.violations)
        lines.append(f"{len(self.results)} rules, {failed} violated"
                     + ("" if failed else " -- all SLOs met"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "results": [{
                "rule": result.rule.name,
                "metric": result.rule.metric,
                "status": result.status,
                "severity": result.rule.severity,
                "observed": result.observed,
                "threshold": result.rule.threshold,
                "reason": result.reason,
            } for result in self.results],
        }


def parse_rule(line: str) -> SloRule:
    """Parse one ``metric op threshold [?] [[severity]]`` line."""
    match = _RULE_RE.match(line.strip())
    if match is None:
        raise ValueError(f"unparsable SLO rule: {line.strip()!r} "
                         f"(expected 'metric <= 0.5', histogram stats "
                         f"as 'name:p95', trailing '?' for optional, "
                         f"'[critical]'/'[warn]' for severity)")
    return SloRule(
        metric=match.group("metric"),
        op=match.group("op"),
        threshold=float(match.group("threshold")),
        optional=match.group("optional") is not None,
        severity=match.group("severity") or "warn")


def parse_rules(text: str) -> list[SloRule]:
    """Parse a rules file: one rule per line, ``#`` comments, blanks ok."""
    rules = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rules.append(parse_rule(line))
    return rules


#: The default service objectives for a warm batch-evaluation run.
#: The resilience rules are optional: their counters only exist once
#: the retry/fault plumbing ran, and a clean (no-fault) run must show
#: zero injections and zero retries.
#: Severity tags make the lines burn-rate-ready: the alert engine
#: (:mod:`repro.obs.alerts`) derives its default alert set from these
#: same rules, so a rule that fails in ``feam slo`` and one that fires
#: in ``feam alerts`` name the same severity.
DEFAULT_RULES: tuple[SloRule, ...] = tuple(parse_rules("""
    engine.cache.hit_rate          >= 0.5          [warn]
    matrix.unknown_cells.pct       <= 10           [critical]
    matrix.cells.total             >  0            [critical]
    engine.cell.wall_seconds:p95   <= 2     ?      [warn]
    resilience.faults.injected     <= 0     ?      [critical]
    resilience.retries.total       <= 0     ?      [warn]
    persist.cache.quarantined      <= 0     ?      [critical]
"""))


def evaluate(rules: Sequence[SloRule], snapshot: dict) -> SloReport:
    """Check every rule against a ``MetricsRegistry.to_dict`` snapshot."""
    results = []
    for rule in rules:
        observed, violated = rule.judge(snapshot)
        if observed is not None:
            result = SloResult(rule=rule,
                               status="fail" if violated else "pass",
                               observed=float(observed))
        elif violated:
            result = SloResult(rule=rule, status="fail", observed=None,
                               reason="metric absent")
        else:
            result = SloResult(rule=rule, status="skipped", observed=None,
                               reason="metric absent (optional rule)")
        results.append(result)
    return SloReport(results=results)


def check(rules: Sequence[SloRule],
          snapshot: Optional[dict] = None) -> SloReport:
    """Evaluate against the installed collector, emitting alert events.

    With no explicit *snapshot*, reads the installed registry.  Every
    violation becomes one structured ``slo.violation`` event and one
    tick of the ``slo.violations`` counter, so downstream consumers
    (the JSONL trace, ``/metrics``) see the alerts.
    """
    if snapshot is None:
        snapshot = obs.metrics().to_dict()
    report = evaluate(rules, snapshot)
    for result in report.violations:
        obs.event("slo.violation", rule=result.rule.name,
                  metric=result.rule.metric,
                  severity=result.rule.severity,
                  observed=result.observed,
                  threshold=result.rule.threshold,
                  reason=result.reason or "threshold crossed")
        obs.counter("slo.violations").inc()
    return report
