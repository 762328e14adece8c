"""Emit ``BENCH_matrix.json``: cold vs warm batch-evaluation timings.

Run as a script (``make bench-matrix`` or
``PYTHONPATH=src python benchmarks/emit_bench.py [out.json]``).  It times
:meth:`EvaluationEngine.evaluate_matrix` over the paper's five sites

* **cold** -- fresh engine, every cache layer empty, first matrix of
  the process (so it also pays one-time interpreter/import warmup);
* **warm** -- the same engine again, every cell served from cache;
* **reference** -- a second fresh engine, untraced, now that the
  process is warm: the fair baseline for the tracing overhead;
* **traced** -- a fresh engine under an installed observability
  collector, compared against *reference* (an equally-warmed engine).
  Comparing traced against *cold* -- as this script once did -- mixes
  the one-time process warmup into the denominator and reports a
  nonsensical negative overhead.

With ``--fleet SPEC`` it instead benchmarks a generated fleet
(:mod:`repro.sites.generator`), reporting build/evaluation wall time,
cells per second and the mean per-cell cost in microseconds, and
writing ``BENCH_fleet.json``.  ``--budget-seconds`` turns that into a
gate: exit 3 when the evaluation blows the budget, exit 1 when any cell
degraded in a run with no fault plan installed.

The JSON it writes is a run output, not a tracked file: CI uploads it
as an artifact, ``benchmarks/check_regression.py`` gates it against the
committed ``benchmarks/BENCH_baseline.json``, and humans read it for
cache efficacy.  The trajectory across runs is the run ledger: each run
records one ``"kind": "bench"`` / ``"fleet-bench"`` manifest holding
the same payload (``feam runs`` / ``feam drift`` / ``feam compare``
read it; ``--no-ledger`` opts out, ``--ledger DIR`` redirects it).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro import obs
from repro.core.engine import EvaluationEngine, compile_test_binaries
from repro.obs import ledger as ledger_mod
from repro.sites.catalog import build_paper_sites
from repro.sites.generator import describe_fleet, resolve_sites

SEED = 20130101
BINARIES = 4

EXIT_OK = 0
EXIT_FAILURE = 1      # degraded cells in a no-fault run
EXIT_REGRESSION = 3   # fleet wall-time budget blown


def record_ledger(payload: dict, kind: str,
                  ledger_dir: str | None = None) -> dict | None:
    """Record one bench run into the run ledger (best effort).

    The manifest is the run's one record across runs: ``feam runs`` /
    ``feam drift`` consume it.  A failure to write must never fail the
    benchmark itself.
    """
    ledger = ledger_mod.RunLedger(ledger_dir)
    manifest = {
        "kind": kind,
        "seed": payload.get("seed"),
        "sites_spec": payload.get("spec"),
        "bench": {key: value for key, value in payload.items()
                  if key not in ("kind", "seed", "spec")},
    }
    try:
        written = ledger.record(manifest)
    except OSError as exc:
        print(f"warning: could not record bench run in ledger "
              f"{ledger.directory!r}: {exc}", file=sys.stderr)
        return None
    print(f"ledger: run {written['run_id']} ({kind}) recorded",
          file=sys.stderr)
    return written


def _timed_matrix(engine, binaries, sites) -> float:
    start = time.perf_counter()
    engine.evaluate_matrix(binaries, sites)
    return time.perf_counter() - start


def run(out_path: str = "BENCH_matrix.json",
        ledger_dir: str | None = None,
        ledger: bool = True) -> dict:
    sites = build_paper_sites(SEED)
    binaries = compile_test_binaries(sites, BINARIES)

    engine = EvaluationEngine()
    start = time.perf_counter()
    cold_result = engine.evaluate_matrix(binaries, sites)
    cold = time.perf_counter() - start

    # Best of three: the warm path is a few milliseconds, so a single
    # sample is too noisy for the ±25% regression gate.
    warm = min(_timed_matrix(engine, binaries, sites) for _ in range(3))
    stats = engine.stats

    # Tracing overhead needs an apples-to-apples pair: fresh engines,
    # all after process warmup, untraced (reference) vs under the
    # collector.  Best of two on each side to damp scheduler jitter.
    reference = min(_timed_matrix(EvaluationEngine(), binaries, sites)
                    for _ in range(2))
    traced_samples = []
    for _ in range(2):
        with obs.capture() as collector:
            start = time.perf_counter()
            EvaluationEngine().evaluate_matrix(binaries, sites)
            traced_samples.append(time.perf_counter() - start)
    traced = min(traced_samples)

    # The benchmark runs with no fault plan installed, so any injected
    # fault or retry means the resilience path fired where it must not:
    # the warm timings would not be comparable.  check_regression.py
    # gates on these staying zero.
    counters = collector.metrics.to_dict()["counters"]
    payload = {
        "seed": SEED,
        "binaries": len(binaries),
        "sites": len(sites),
        "cells": len(cold_result.cells),
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "warm_speedup": round(cold / warm, 1) if warm > 0 else None,
        "reference_seconds": round(reference, 4),
        "traced_seconds": round(traced, 4),
        "traced_overhead": round(traced / reference - 1.0, 4)
        if reference > 0 else None,
        "trace_spans": len(collector.spans),
        "faults_injected": counters.get("resilience.faults.injected", 0),
        "retries": counters.get("resilience.retries.total", 0),
        "cache": dataclasses.asdict(stats),
    }
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if ledger:
        record_ledger(payload, "bench", ledger_dir)
    print(f"cold {cold:.3f}s  warm {warm:.3f}s  "
          f"traced {traced:.3f}s (vs reference {reference:.3f}s)"
          f"  -> {out_path}")
    return payload


def run_fleet(spec: str, out_path: str = "BENCH_fleet.json",
              count: int = BINARIES,
              ledger_dir: str | None = None,
              ledger: bool = True) -> dict:
    """Benchmark a generated fleet: build time, eval time, cells/sec."""
    start = time.perf_counter()
    sites = resolve_sites(spec, default_seed=SEED)
    build = time.perf_counter() - start
    print(f"{describe_fleet(sites)} built in {build:.1f}s",
          file=sys.stderr)
    binaries = compile_test_binaries(sites, count)

    engine = EvaluationEngine()
    # Instrumented like `feam matrix`, which always captures metrics.
    with obs.capture():
        start = time.perf_counter()
        result = engine.evaluate_matrix(binaries, sites)
        elapsed = time.perf_counter() - start

    cells = len(result.cells)
    stats = engine.stats
    degraded = sum(1 for cell in result.cells if cell.faulted)
    payload = {
        "kind": "fleet",
        "spec": spec,
        "seed": SEED,
        "binaries": len(binaries),
        "sites": len(sites),
        "cells": cells,
        "build_seconds": round(build, 4),
        "eval_seconds": round(elapsed, 4),
        "cells_per_second": round(cells / elapsed, 1) if elapsed else None,
        "cell_microseconds": round(1e6 * elapsed / cells, 1)
        if cells else None,
        "degraded_cells": degraded,
        "quarantined_sites": len(result.quarantined),
        "cache": dataclasses.asdict(stats),
    }
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if ledger:
        record_ledger(payload, "fleet-bench", ledger_dir)
    print(f"fleet {spec}: {cells} cells in {elapsed:.1f}s "
          f"({payload['cells_per_second']} cells/s, "
          f"{payload['cell_microseconds']} us/cell)  -> {out_path}")
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Emit batch-evaluation benchmark JSON.")
    parser.add_argument("out", nargs="?", default=None,
                        help="output JSON path (default: "
                             "BENCH_matrix.json, or BENCH_fleet.json "
                             "with --fleet)")
    parser.add_argument("--fleet", metavar="SPEC", default=None,
                        help="benchmark a generated fleet instead, e.g. "
                             "'fleet:n=1000,seed=7'")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="fleet gate: exit 3 when evaluation wall "
                             "time exceeds this budget")
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="run-ledger directory (default: "
                             "$FEAM_LEDGER_DIR or .feam/runs)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="skip recording this run in the ledger")
    args = parser.parse_args(argv)

    if args.fleet:
        payload = run_fleet(args.fleet,
                            args.out or "BENCH_fleet.json",
                            ledger_dir=args.ledger,
                            ledger=not args.no_ledger)
        if payload["degraded_cells"]:
            print(f"FLEET GATE: {payload['degraded_cells']} degraded "
                  "cell(s) in a run with no fault plan installed",
                  file=sys.stderr)
            return EXIT_FAILURE
        if (args.budget_seconds is not None
                and payload["eval_seconds"] > args.budget_seconds):
            print(f"FLEET GATE: evaluation took "
                  f"{payload['eval_seconds']:.1f}s "
                  f"> budget {args.budget_seconds:.1f}s", file=sys.stderr)
            return EXIT_REGRESSION
        return EXIT_OK
    run(args.out or "BENCH_matrix.json",
        ledger_dir=args.ledger, ledger=not args.no_ledger)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
