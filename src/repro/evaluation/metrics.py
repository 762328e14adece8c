"""Metrics over migration records.

Implements the paper's Section VI computations:

* **prediction accuracy** (Table III): fraction of migrations where the
  prediction matched the actual execution outcome, per suite and mode;
* **resolution impact** (Table IV): success rates before and after
  resolution, and the relative increase ("the increase in successful
  executions after applying our methods divided by the number of
  successful executions before");
* **failure breakdown** (Section VI.C): of the failing migrations, how
  many failed for each cause -- missing shared libraries should dominate.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from repro.corpus.benchmarks import Suite
from repro.evaluation.experiment import MigrationRecord


def _fraction(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def accuracy(records: Iterable[MigrationRecord],
             mode: str) -> Optional[float]:
    """Prediction accuracy for ``mode`` ("basic" | "extended")."""
    records = list(records)
    if mode == "basic":
        correct = sum(1 for r in records if r.basic_correct)
    elif mode == "extended":
        correct = sum(1 for r in records if r.extended_correct)
    else:
        raise ValueError(f"unknown prediction mode: {mode!r}")
    return _fraction(correct, len(records))


def success_rate(records: Iterable[MigrationRecord],
                 when: str) -> Optional[float]:
    """Actual success rate ``when`` ("before" | "after") resolution."""
    records = list(records)
    if when == "before":
        ok = sum(1 for r in records if r.actual_before_ok)
    elif when == "after":
        ok = sum(1 for r in records if r.actual_after_ok)
    else:
        raise ValueError(f"unknown phase: {when!r}")
    return _fraction(ok, len(records))


def resolution_increase(records: Iterable[MigrationRecord]) -> Optional[float]:
    """Relative increase in successes due to resolution (Table IV)."""
    records = list(records)
    before = sum(1 for r in records if r.actual_before_ok)
    after = sum(1 for r in records if r.actual_after_ok)
    if before == 0:
        return None
    return (after - before) / before


def accuracy_table(records: Iterable[MigrationRecord],
                   ) -> dict[Suite, dict[str, Optional[float]]]:
    """Table III: accuracy per suite and prediction mode."""
    records = list(records)
    table: dict[Suite, dict[str, Optional[float]]] = {}
    for suite in Suite:
        members = [r for r in records if r.suite is suite]
        table[suite] = {
            "basic": accuracy(members, "basic"),
            "extended": accuracy(members, "extended"),
        }
    return table


def resolution_table(records: Iterable[MigrationRecord],
                     ) -> dict[Suite, dict[str, Optional[float]]]:
    """Table IV: success before/after resolution and the increase."""
    records = list(records)
    table: dict[Suite, dict[str, Optional[float]]] = {}
    for suite in Suite:
        members = [r for r in records if r.suite is suite]
        table[suite] = {
            "before": success_rate(members, "before"),
            "after": success_rate(members, "after"),
            "increase": resolution_increase(members),
        }
    return table


def failure_breakdown(records: Iterable[MigrationRecord],
                      when: str = "before") -> Counter:
    """Failure causes among unsuccessful migrations (Section VI.C)."""
    counter: Counter = Counter()
    for r in records:
        if when == "before" and not r.actual_before_ok:
            counter[r.actual_before_failure or "unknown"] += 1
        elif when == "after" and not r.actual_after_ok:
            counter[r.actual_after_failure or "unknown"] += 1
    return counter


def missing_library_share(records: Iterable[MigrationRecord]) -> Optional[float]:
    """Share of pre-resolution failures caused by missing shared libraries.

    The paper: "Of the failing jobs, more than half were missing shared
    libraries."
    """
    breakdown = failure_breakdown(records, "before")
    total = sum(breakdown.values())
    if not total:
        return None
    return breakdown.get("missing-shared-library", 0) / total
