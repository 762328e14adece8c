"""Cross-run analysis over ledger manifests: compare and drift.

The ledger (:mod:`repro.obs.ledger`) makes every run durable; this
module makes pairs and windows of runs *comparable*:

* :func:`compare_runs` -- two manifests in, one structured comparison
  out: outcome-flip table (per-cell when both manifests carry the
  ``cell_outcomes`` map, count deltas otherwise), per-determinant
  blocked-cell and sim-latency deltas, per-phase latency ratios with
  the same added/removed/ratio semantics ``feam diff-trace`` uses for
  span buckets, and cache hit-rate / retry / fault drift.
* :func:`gate` -- the regression verdict: every row whose
  current/base latency ratio exceeds ``--fail-above`` (``feam
  compare`` exits 3 on any, per the pinned exit-code contract).
* :func:`drift` -- a rolling baseline over the last N runs of the
  same kind, flagging metrics that left the tolerance band, plus
  optional SLO rules (:mod:`repro.obs.slo`) evaluated against the
  newest manifest's flattened metrics.

Everything here is pure dict-in/dict-out: no engine imports, no I/O.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.obs import slo as slo_mod
from repro.obs.ledger import numeric_metrics

#: Phases whose latency digests the comparison walks (manifest
#: ``phases`` keys are free-form; these orders render first).
_PREFERRED_PHASE_ORDER = ("discover", "describe", "cell.sim",
                          "cell.wall", "worker")


def _wall_phase(phase: str) -> bool:
    """Is *phase* timed on the host's clock?  Every phase but ``*.sim``."""
    return not phase.endswith(".sim")


#: Suffixes of a bench manifest's timings (``cold_seconds``,
#: ``traced_overhead``, ``warm_speedup``, ``cells_per_second``,
#: ``cell_microseconds``, ...): each is a wall-clock measure or a ratio
#: of two.
_BENCH_WALL_SUFFIXES = ("_seconds", "_overhead", "_speedup",
                        "_per_second", "_microseconds")


def wall_clock_metric(metric: str) -> bool:
    """Is the flattened manifest *metric* a wall-clock value?

    Those are every ``phases.<p>.*`` of a wall phase, ``rollup.wall.*``
    and ``rollup.determinants.<d>.wall.*``, except each digest's
    ``.count``, and a bench run's timings: ``bench.*`` keys ending
    ``_seconds``, ``_overhead``, ``_speedup``, ``_per_second`` or
    ``_microseconds``.  Host noise moves them between identical runs,
    so neither :func:`drift` nor :func:`gate` judges them;
    ``feam compare`` still renders them.
    """
    if metric.startswith("bench."):
        return metric.endswith(_BENCH_WALL_SUFFIXES)
    digest, _, stat = metric.rpartition(".")
    if stat == "count":
        return False
    if digest.startswith("phases."):
        return _wall_phase(digest[len("phases."):])
    return digest == "rollup.wall" or (
        digest.startswith("rollup.determinants.")
        and digest.endswith(".wall"))


def _ratio(base: Optional[float],
           current: Optional[float]) -> Optional[float]:
    if base is None or current is None or base <= 0:
        return None
    return current / base


def _digest_mean(digest: Optional[dict]) -> Optional[float]:
    if not isinstance(digest, dict):
        return None
    mean = digest.get("mean")
    return float(mean) if isinstance(mean, (int, float)) else None


def _outcome_counts(manifest: dict) -> dict:
    return dict((manifest.get("rollup") or {}).get("outcomes") or {})


def _blocked(det_entry: dict) -> int:
    """Cells where this determinant did not pass (fail + unknown)."""
    outcomes = det_entry.get("outcomes") or {}
    return sum(count for outcome, count in outcomes.items()
               if outcome != "pass")


def compare_runs(base: dict, current: dict) -> dict:
    """Structured comparison of two run manifests (base -> current)."""
    base_roll = base.get("rollup") or {}
    curr_roll = current.get("rollup") or {}

    # Outcome table: counts always, per-cell flips when both runs
    # recorded the (bounded) cell outcome map.
    base_counts = _outcome_counts(base)
    curr_counts = _outcome_counts(current)
    outcomes = []
    for word in sorted(set(base_counts) | set(curr_counts)):
        b, c = base_counts.get(word, 0), curr_counts.get(word, 0)
        outcomes.append({"outcome": word, "base": b, "current": c,
                         "delta": c - b})
    flips = None
    base_cells = base_roll.get("cell_outcomes")
    curr_cells = curr_roll.get("cell_outcomes")
    if isinstance(base_cells, dict) and isinstance(curr_cells, dict):
        flips = []
        for cell in sorted(set(base_cells) | set(curr_cells)):
            before = base_cells.get(cell, "(absent)")
            after = curr_cells.get(cell, "(absent)")
            if before != after:
                flips.append({"cell": cell, "base": before,
                              "current": after})

    # Per-determinant rows: blocked-cell counts and sim latency over
    # the cells each determinant was implicated in.
    base_dets = base_roll.get("determinants") or {}
    curr_dets = curr_roll.get("determinants") or {}
    determinants = []
    for key in sorted(set(base_dets) | set(curr_dets)):
        in_base, in_curr = key in base_dets, key in curr_dets
        b_entry, c_entry = base_dets.get(key, {}), curr_dets.get(key, {})
        b_mean = _digest_mean(b_entry.get("sim"))
        c_mean = _digest_mean(c_entry.get("sim"))
        determinants.append({
            "determinant": key,
            "status": ("common" if in_base and in_curr
                       else "added" if in_curr else "removed"),
            "base_blocked": _blocked(b_entry) if in_base else None,
            "current_blocked": _blocked(c_entry) if in_curr else None,
            "base_sim_mean": b_mean,
            "current_sim_mean": c_mean,
            "sim_ratio": _ratio(b_mean, c_mean),
        })

    # Per-phase latency rows, diff-trace style: ratio when both runs
    # have the phase, added/removed otherwise.
    base_phases = base.get("phases") or {}
    curr_phases = current.get("phases") or {}
    names = [name for name in _PREFERRED_PHASE_ORDER
             if name in base_phases or name in curr_phases]
    names += sorted((set(base_phases) | set(curr_phases)) - set(names))
    phases = []
    for name in names:
        in_base, in_curr = name in base_phases, name in curr_phases
        b_mean = _digest_mean(base_phases.get(name))
        c_mean = _digest_mean(curr_phases.get(name))
        phases.append({
            "phase": name,
            "status": ("common" if in_base and in_curr
                       else "added" if in_curr else "removed"),
            "base_mean": b_mean,
            "current_mean": c_mean,
            "ratio": _ratio(b_mean, c_mean),
        })

    # Bench manifests (emit_bench.py) carry flat timings under "bench"
    # instead of an engine rollup; diff those numerically so
    # `check_regression.py --ledger` attribution has substance for them
    # too.
    bench = None
    if isinstance(base.get("bench"), dict) \
            or isinstance(current.get("bench"), dict):
        b_nums = numeric_metrics({"bench": base.get("bench") or {}})
        c_nums = numeric_metrics({"bench": current.get("bench") or {}})
        bench = [{"metric": key,
                  "base": b_nums.get(key),
                  "current": c_nums.get(key),
                  "ratio": _ratio(b_nums.get(key), c_nums.get(key))}
                 for key in sorted(set(b_nums) | set(c_nums))]

    b_sim = _digest_mean(base_roll.get("sim"))
    c_sim = _digest_mean(curr_roll.get("sim"))
    b_cache = (base_roll.get("cache") or {}).get("hit_rate")
    c_cache = (curr_roll.get("cache") or {}).get("hit_rate")
    return {
        "base": {key: base.get(key)
                 for key in ("run_id", "ts", "kind", "seed")},
        "current": {key: current.get(key)
                    for key in ("run_id", "ts", "kind", "seed")},
        "cells": {"base": base_roll.get("cells"),
                  "current": curr_roll.get("cells")},
        "outcomes": outcomes,
        "flips": flips,
        "determinants": determinants,
        "phases": phases,
        "bench": bench,
        "sim": {"base_mean": b_sim, "current_mean": c_sim,
                "ratio": _ratio(b_sim, c_sim)},
        "cache": {
            "base_hit_rate": b_cache, "current_hit_rate": c_cache,
            "delta": (c_cache - b_cache
                      if isinstance(b_cache, (int, float))
                      and isinstance(c_cache, (int, float)) else None)},
        "retries": {"base": base_roll.get("retries"),
                    "current": curr_roll.get("retries")},
        "faulted": {"base": base_roll.get("faulted"),
                    "current": curr_roll.get("faulted")},
    }


def gate(comparison: dict, fail_above: float) -> list[dict]:
    """Latency rows whose current/base ratio exceeds *fail_above*.

    Gates only the *simulated*-seconds rows (overall sim, the
    ``cell.sim`` phase, per-determinant sim) -- sim time is fully
    deterministic for a given seed, so the verdict is reproducible.
    Wall-clock rows are reported for triage but never gate: on a
    sub-second run, host noise between two identical runs routinely
    exceeds any sane threshold, and a gate that flakes is worse than
    no gate.
    """
    regressions = []
    sim_ratio = comparison["sim"].get("ratio")
    if sim_ratio is not None and sim_ratio > fail_above:
        regressions.append({"row": "sim (overall)", "ratio": sim_ratio})
    for row in comparison["phases"]:
        if _wall_phase(row["phase"]):
            continue
        if row["ratio"] is not None and row["ratio"] > fail_above:
            regressions.append({"row": f"phase {row['phase']}",
                                "ratio": row["ratio"]})
    for row in comparison["determinants"]:
        ratio = row["sim_ratio"]
        if ratio is not None and ratio > fail_above:
            regressions.append(
                {"row": f"determinant {row['determinant']}",
                 "ratio": ratio})
    return regressions


def _fmt(value: Optional[float], digits: int = 4) -> str:
    if value is None:
        return "n/a"
    return f"{value:.{digits}g}"


def _fmt_s(value: Optional[float]) -> str:
    """Seconds with unit; no unit on missing values."""
    return "n/a" if value is None else f"{_fmt(value)}s"


def render_comparison(comparison: dict,
                      fail_above: Optional[float] = None,
                      max_flips: int = 20) -> str:
    """The ``feam compare`` report."""
    base, curr = comparison["base"], comparison["current"]
    lines = [f"compare {base.get('run_id')} ({base.get('kind')}) -> "
             f"{curr.get('run_id')} ({curr.get('kind')})"]
    cells = comparison["cells"]
    lines.append(f"cells: {cells.get('base')} -> {cells.get('current')}")

    lines.append("")
    lines.append("outcomes:")
    for row in comparison["outcomes"]:
        delta = row["delta"]
        lines.append(f"  {row['outcome']:<8} {row['base']:>6} -> "
                     f"{row['current']:<6} ({delta:+d})")
    flips = comparison["flips"]
    if flips is not None:
        lines.append(f"flipped cells: {len(flips)}")
        for flip in flips[:max_flips]:
            lines.append(f"  {flip['cell']}: {flip['base']} -> "
                         f"{flip['current']}")
        if len(flips) > max_flips:
            lines.append(f"  ... and {len(flips) - max_flips} more")

    lines.append("")
    lines.append("determinants (blocked cells, implicated sim mean):")
    for row in comparison["determinants"]:
        mark = {"added": " [added]", "removed": " [removed]"}.get(
            row["status"], "")
        blocked = (f"{row['base_blocked'] if row['base_blocked'] is not None else '-'}"
                   f" -> "
                   f"{row['current_blocked'] if row['current_blocked'] is not None else '-'}")
        lines.append(
            f"  {row['determinant']:<28} blocked {blocked:<12} "
            f"sim {_fmt_s(row['base_sim_mean'])} -> "
            f"{_fmt_s(row['current_sim_mean'])} "
            f"(x{_fmt(row['sim_ratio'], 3)}){mark}")

    lines.append("")
    lines.append("phases (mean latency, current/base ratio):")
    for row in comparison["phases"]:
        mark = {"added": " [added]", "removed": " [removed]"}.get(
            row["status"], "")
        lines.append(
            f"  {row['phase']:<12} {_fmt_s(row['base_mean'])} -> "
            f"{_fmt_s(row['current_mean'])} "
            f"(x{_fmt(row['ratio'], 3)}){mark}")
    sim = comparison["sim"]
    lines.append(f"  {'sim overall':<12} {_fmt_s(sim['base_mean'])} -> "
                 f"{_fmt_s(sim['current_mean'])} "
                 f"(x{_fmt(sim['ratio'], 3)})")

    if comparison.get("bench"):
        lines.append("")
        lines.append("bench metrics:")
        for row in comparison["bench"]:
            lines.append(
                f"  {row['metric']:<28} {_fmt(row['base'])} -> "
                f"{_fmt(row['current'])} (x{_fmt(row['ratio'], 3)})")

    cache = comparison["cache"]
    lines.append("")
    lines.append(f"cache hit rate: {_fmt(cache['base_hit_rate'], 3)} -> "
                 f"{_fmt(cache['current_hit_rate'], 3)}"
                 + (f" ({cache['delta']:+.3f})"
                    if cache["delta"] is not None else ""))
    retries, faulted = comparison["retries"], comparison["faulted"]
    lines.append(f"retries: {retries.get('base')} -> "
                 f"{retries.get('current')}; faulted cells: "
                 f"{faulted.get('base')} -> {faulted.get('current')}")

    if fail_above is not None:
        regressions = gate(comparison, fail_above)
        lines.append("")
        if regressions:
            lines.append(f"REGRESSION: {len(regressions)} row(s) above "
                         f"x{fail_above:g}:")
            for entry in regressions:
                lines.append(f"  {entry['row']}: x{entry['ratio']:.3g}")
        else:
            lines.append(f"no latency row above x{fail_above:g}")
    return "\n".join(lines)


def drift(runs: Sequence[dict], window: int = 10,
          tolerance: float = 0.25,
          rules: Sequence[slo_mod.SloRule] = ()) -> dict:
    """Newest run vs a rolling baseline of its predecessors.

    The baseline is the mean of each numeric metric over the last
    *window* earlier runs **of the same kind** (comparing a chaos run
    against matrix runs would flag the fault counters as drift every
    time).  A metric is an *excursion* when it moved more than
    *tolerance* (fractional) away from the baseline mean.  Wall-clock
    latency values (:func:`wall_clock_metric`) are not checked: host
    noise alone moves them past any useful tolerance.  Optional
    SLO *rules* evaluate against the newest run's flattened metrics
    (exposed as gauges), reusing the grammar ``feam slo`` pins.
    """
    if not runs:
        raise ValueError("drift needs at least one run in the ledger")
    latest = runs[-1]
    kind = latest.get("kind")
    earlier = [run for run in runs[:-1] if run.get("kind") == kind]
    baseline_runs = earlier[-max(1, int(window)):]

    latest_metrics = numeric_metrics(latest)
    baseline_values: dict[str, list[float]] = {}
    for run in baseline_runs:
        for metric, value in numeric_metrics(run).items():
            baseline_values.setdefault(metric, []).append(value)

    excursions = []
    checked = 0
    for metric, observed in sorted(latest_metrics.items()):
        if metric == "schema" or wall_clock_metric(metric):
            continue
        history = baseline_values.get(metric)
        if not history:
            continue  # new metric: nothing to drift against
        baseline = sum(history) / len(history)
        checked += 1
        if baseline == 0:
            if observed != 0:
                excursions.append({
                    "metric": metric, "baseline": baseline,
                    "observed": observed, "ratio": None})
            continue
        ratio = observed / baseline
        if abs(ratio - 1.0) > tolerance:
            excursions.append({"metric": metric, "baseline": baseline,
                               "observed": observed, "ratio": ratio})
    # Sort by excursion magnitude (symmetric in log space); ratios that
    # are non-positive -- sign flips, zero observations against a live
    # baseline, zero baselines -- are the wildest moves, so they lead.
    def _magnitude(entry: dict) -> float:
        ratio = entry["ratio"]
        if ratio is None or ratio <= 0:
            return float("inf")
        return abs(math.log(ratio))

    excursions.sort(key=lambda entry: (-_magnitude(entry),
                                       entry["metric"]))

    slo_report = None
    if rules:
        snapshot = {"counters": {}, "gauges": latest_metrics,
                    "histograms": {}}
        slo_report = slo_mod.evaluate(rules, snapshot)
    return {
        "run_id": latest.get("run_id"),
        "kind": kind,
        "window": int(window),
        "baseline_runs": len(baseline_runs),
        "insufficient_history": len(baseline_runs) < max(1, int(window)),
        "tolerance": tolerance,
        "metrics_checked": checked,
        "excursions": excursions,
        "slo": slo_report.to_dict() if slo_report is not None else None,
        "slo_ok": slo_report.ok if slo_report is not None else True,
    }


def render_drift(report: dict, max_rows: int = 25) -> str:
    """The ``feam drift`` report."""
    lines = [f"drift: run {report['run_id']} ({report['kind']}) vs "
             f"mean of last {report['baseline_runs']} {report['kind']} "
             f"run(s), tolerance {report['tolerance']:g}"]
    if not report["baseline_runs"]:
        lines.append("(no earlier runs of this kind -- nothing to "
                     "drift against)")
    if report.get("insufficient_history"):
        # A thin baseline is advisory, not alarming: the drift pass
        # still runs over what exists, but the notice keeps a 2-run
        # excursion from being read with 10-run confidence.
        lines.append(f"insufficient history (have "
                     f"{report['baseline_runs']}, need "
                     f"{report['window']})")
    excursions = report["excursions"]
    lines.append(f"{report['metrics_checked']} metric(s) checked, "
                 f"{len(excursions)} excursion(s)")
    for entry in excursions[:max_rows]:
        ratio = ("zero-baseline" if entry["ratio"] is None
                 else f"x{entry['ratio']:.3g}")
        lines.append(f"  {entry['metric']:<40} "
                     f"{entry['baseline']:.6g} -> "
                     f"{entry['observed']:.6g} ({ratio})")
    if len(excursions) > max_rows:
        lines.append(f"  ... and {len(excursions) - max_rows} more")
    if report["slo"] is not None:
        lines.append("")
        failed = [r for r in report["slo"]["results"]
                  if r["status"] == "fail"]
        lines.append(f"SLO rules: {len(report['slo']['results'])} "
                     f"checked, {len(failed)} violated")
        for result in failed:
            observed = ("absent" if result["observed"] is None
                        else f"{result['observed']:g}")
            lines.append(f"  FAIL {result['rule']} "
                         f"observed={observed}")
    return "\n".join(lines)
