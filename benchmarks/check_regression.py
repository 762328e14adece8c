"""Regression gate: current bench numbers vs the committed baseline.

``make bench-matrix`` writes the untracked run output
``BENCH_matrix.json`` (and records the same payload as a ``bench``
manifest in the run ledger); this script compares it against the
committed ``benchmarks/BENCH_baseline.json``, which no gate writes, and
exits **3** when the gate trips, so CI can tell a perf regression apart
from an ordinary failure (1) or an SLO violation (2):

* *shape* numbers (cells, binaries, sites, cache hit/miss tallies)
  must match **exactly** -- a drift there is a behavioural change
  masquerading as a perf number;
* *timing* numbers (cold/warm/traced seconds) may grow up to
  ``--tolerance`` (default 25%) before failing; shrinking beyond the
  tolerance is reported as a note suggesting a baseline refresh;
* the *warm speedup* (cache efficacy) may not fall below
  ``(1 - tolerance)`` of the baseline;
* *clean-run* counters (``faults_injected``, ``retries``) must be
  zero -- the benchmark installs no fault plan, so any firing of the
  resilience path poisons the timings.

Optionally (``--trace trace.jsonl --profile-out flame.json``) it also
aggregates a trace into a flame profile artifact via
:mod:`repro.obs.analyze`, for CI to upload next to the SLO report.
With ``--ledger DIR`` a tripped gate additionally prints a ``feam
compare``-style report over the two newest bench runs in that run
ledger, so the failure comes with attribution instead of bare ratios
(requires ``PYTHONPATH=src``, like ``--trace``).

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \\
        [--baseline benchmarks/BENCH_baseline.json] \\
        [--current BENCH_matrix.json] [--tolerance 0.25] \\
        [--trace trace.jsonl --profile-out flame_profile.json]
"""

from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_FAILURE = 1      # missing/unreadable inputs
EXIT_REGRESSION = 3   # the gate tripped (matches ``feam diff-trace``)

#: Must match exactly between baseline and current.
SHAPE_KEYS = ("cells", "binaries", "sites", "seed")
#: May grow up to ``tolerance`` relative to the baseline.
TIMING_KEYS = ("cold_seconds", "warm_seconds", "reference_seconds",
               "traced_seconds")
#: Must be zero in the no-fault benchmark run (baseline-independent):
#: a nonzero count means the resilience path fired without a fault
#: plan installed, so the warm timings measure retries, not the cache.
CLEAN_RUN_KEYS = ("faults_injected", "retries")


def compare(baseline: dict, current: dict,
            tolerance: float = 0.25) -> tuple[list[str], list[str]]:
    """Return (failures, notes) for *current* against *baseline*."""
    failures: list[str] = []
    notes: list[str] = []

    for key in SHAPE_KEYS:
        if baseline.get(key) != current.get(key):
            failures.append(
                f"{key}: baseline {baseline.get(key)!r} != "
                f"current {current.get(key)!r} (shape must not drift)")
    base_cache = baseline.get("cache", {})
    curr_cache = current.get("cache", {})
    for key in sorted(set(base_cache) | set(curr_cache)):
        if base_cache.get(key) != curr_cache.get(key):
            failures.append(
                f"cache.{key}: baseline {base_cache.get(key)!r} != "
                f"current {curr_cache.get(key)!r} "
                f"(cache behaviour changed)")

    for key in TIMING_KEYS:
        base = baseline.get(key)
        curr = current.get(key)
        if base is None or curr is None:
            failures.append(f"{key}: missing "
                            f"(baseline={base!r}, current={curr!r})")
            continue
        if base <= 0:
            notes.append(f"{key}: baseline is {base!r}, skipped")
            continue
        ratio = curr / base
        if ratio > 1.0 + tolerance:
            failures.append(
                f"{key}: {base:.4f}s -> {curr:.4f}s "
                f"({ratio:.2f}x > {1.0 + tolerance:.2f}x allowed)")
        elif ratio < 1.0 - tolerance:
            notes.append(
                f"{key}: {base:.4f}s -> {curr:.4f}s ({ratio:.2f}x) -- "
                f"faster than the baseline tolerance; consider "
                f"refreshing benchmarks/BENCH_baseline.json")

    for key in CLEAN_RUN_KEYS:
        value = current.get(key, 0)
        if value:
            failures.append(
                f"{key}: {value} in a no-fault benchmark run "
                f"(resilience fired; timings are not comparable)")

    base_speedup = baseline.get("warm_speedup")
    curr_speedup = current.get("warm_speedup")
    if base_speedup and curr_speedup:
        if curr_speedup < base_speedup * (1.0 - tolerance):
            failures.append(
                f"warm_speedup: {base_speedup}x -> {curr_speedup}x "
                f"(cache efficacy fell beyond {tolerance:.0%})")
    elif base_speedup and not curr_speedup:
        failures.append("warm_speedup: missing from current run")

    return failures, notes


def attribute_from_ledger(ledger_dir: str) -> str | None:
    """Compare the two newest bench runs in the ledger, for triage.

    Returns the rendered ``feam compare``-style report, or ``None``
    when the ledger holds fewer than two bench-kind runs (or cannot be
    read).  Purely advisory: the gate verdict above stands either way.
    """
    from repro.obs.compare import compare_runs, render_comparison
    from repro.obs.ledger import RunLedger

    try:
        runs = RunLedger(ledger_dir).runs()
    except (OSError, ValueError):
        return None
    benches = [run for run in runs
               if str(run.get("kind", "")).endswith("bench")]
    if len(benches) < 2:
        return None
    return render_comparison(compare_runs(benches[-2], benches[-1]))


def emit_profile(trace_path: str, out_path: str) -> None:
    """Aggregate *trace_path* into a flame-profile JSON artifact."""
    from repro.obs.analyze import profile, spans_from_jsonl_file

    prof = profile(spans_from_jsonl_file(trace_path))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(prof.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"flame profile ({prof.span_count} spans, "
          f"{len(prof.frames)} names) -> {out_path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate BENCH_matrix.json against the committed "
                    "baseline (exit 3 on regression).")
    parser.add_argument("--baseline",
                        default="benchmarks/BENCH_baseline.json")
    parser.add_argument("--current", default="BENCH_matrix.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative timing growth "
                             "(default: 0.25)")
    parser.add_argument("--trace", default=None, metavar="FILE.jsonl",
                        help="also aggregate this trace into a flame "
                             "profile artifact")
    parser.add_argument("--profile-out", default="flame_profile.json",
                        metavar="FILE.json",
                        help="where --trace writes the profile "
                             "(default: flame_profile.json)")
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="on regression, also print a comparison "
                             "of the two newest bench runs in this "
                             "run-ledger directory for attribution")
    args = parser.parse_args(argv)

    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {args.baseline!r}: {exc}",
              file=sys.stderr)
        return EXIT_FAILURE
    try:
        with open(args.current, "r", encoding="utf-8") as handle:
            current = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read current {args.current!r}: {exc} "
              f"(run 'make bench-matrix' first)", file=sys.stderr)
        return EXIT_FAILURE

    failures, notes = compare(baseline, current, args.tolerance)
    for note in notes:
        print(f"note: {note}")
    if args.trace:
        try:
            emit_profile(args.trace, args.profile_out)
        except (OSError, ValueError) as exc:
            print(f"cannot profile trace {args.trace!r}: {exc}",
                  file=sys.stderr)
            return EXIT_FAILURE
    if failures:
        print(f"REGRESSION vs {args.baseline} "
              f"(tolerance {args.tolerance:.0%}):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        if args.ledger:
            attribution = attribute_from_ledger(args.ledger)
            if attribution:
                print("\nattribution (two newest bench runs in "
                      f"{args.ledger}):", file=sys.stderr)
                print(attribution, file=sys.stderr)
        return EXIT_REGRESSION
    print(f"perf gate ok vs {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
