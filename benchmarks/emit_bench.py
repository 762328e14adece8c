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
cells per second and the mean per-cell cost in microseconds, writing
``BENCH_fleet.json`` and appending a ``"kind": "fleet"`` line to the
history.  ``--budget-seconds`` turns that into a gate: exit 3 when the
evaluation blows the budget, exit 1 when any cell degraded in a run
with no fault plan installed.

The JSON it writes is consumed by CI (uploaded as an artifact alongside
a sample trace), by ``benchmarks/check_regression.py`` (gated against
the committed ``benchmarks/BENCH_baseline.json``) and by humans
eyeballing cache efficacy.  Each run also appends one timestamped line
to the tracked ``benchmarks/BENCH_history.jsonl``, so the perf
trajectory is visible across PRs instead of evaporating with the
working tree, and records a ``"kind": "bench"`` / ``"fleet-bench"``
manifest into the run ledger (``feam runs`` / ``feam drift`` consume
it; ``--no-ledger`` opts out, ``--ledger DIR`` redirects it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import obs
from repro.core.engine import EngineBinary, EvaluationEngine
from repro.obs import ledger as ledger_mod
from repro.sites.catalog import build_paper_sites
from repro.sites.generator import describe_fleet, resolve_sites
from repro.toolchain.compilers import Language

SEED = 20130101
BINARIES = 4

EXIT_OK = 0
EXIT_FAILURE = 1      # degraded cells in a no-fault run
EXIT_REGRESSION = 3   # fleet wall-time budget blown


def _build_inputs(seed: int = SEED, count: int = BINARIES):
    sites = build_paper_sites(seed, cached=False)
    binaries = _compile_binaries(sites, count)
    return sites, binaries


def _compile_binaries(sites, count: int):
    binaries = []
    pool = sites[:max(1, min(len(sites), count))]
    for index in range(count):
        site = pool[index % len(pool)]
        stack = site.stacks[index % len(site.stacks)]
        name = f"bench-{site.name}-{stack.spec.slug}-{index}"
        linked = site.compile_mpi_program(name, Language.FORTRAN, stack)
        binaries.append(EngineBinary(binary_id=name, image=linked.image))
    return binaries


def append_history(payload: dict, history_path: str) -> dict:
    """Append one timestamped trajectory line to *history_path*.

    The entry keeps the comparable shape numbers (cells, speedup,
    overhead) and the raw timings; exact per-run wall seconds are
    machine-dependent, which is why the regression gate compares
    against the committed baseline with a tolerance instead of against
    history neighbours.
    """
    entry = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": payload["seed"],
        "cells": payload["cells"],
        "cold_seconds": payload["cold_seconds"],
        "warm_seconds": payload["warm_seconds"],
        "warm_speedup": payload["warm_speedup"],
        "traced_seconds": payload["traced_seconds"],
        "traced_overhead": payload["traced_overhead"],
        "trace_spans": payload["trace_spans"],
    }
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def append_fleet_history(payload: dict, history_path: str) -> dict:
    """Append one ``"kind": "fleet"`` trajectory line to *history_path*."""
    entry = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "kind": "fleet",
        "spec": payload["spec"],
        "sites": payload["sites"],
        "cells": payload["cells"],
        "build_seconds": payload["build_seconds"],
        "eval_seconds": payload["eval_seconds"],
        "cells_per_second": payload["cells_per_second"],
        "cell_microseconds": payload["cell_microseconds"],
    }
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def record_ledger(payload: dict, kind: str,
                  ledger_dir: str | None = None) -> dict | None:
    """Record one bench run into the run ledger (best effort).

    The flat JSON history files stay for back-compat; the ledger entry
    is what ``feam runs`` / ``feam drift`` consume.  A failure to write
    must never fail the benchmark itself.
    """
    directory = (ledger_dir or os.environ.get("FEAM_LEDGER_DIR")
                 or ledger_mod.DEFAULT_DIR)
    manifest = {
        "kind": kind,
        "seed": payload.get("seed"),
        "sites_spec": payload.get("spec"),
        "bench": {key: value for key, value in payload.items()
                  if key not in ("kind", "seed", "spec")},
    }
    try:
        written = ledger_mod.RunLedger(directory).record(manifest)
    except OSError as exc:
        print(f"warning: could not record bench run in ledger "
              f"{directory!r}: {exc}", file=sys.stderr)
        return None
    print(f"ledger: run {written['run_id']} ({kind}) recorded",
          file=sys.stderr)
    return written


def _timed_matrix(engine, binaries, sites) -> float:
    start = time.perf_counter()
    engine.evaluate_matrix(binaries, sites)
    return time.perf_counter() - start


def run(out_path: str = "BENCH_matrix.json",
        history_path: str | None = None,
        ledger_dir: str | None = None,
        ledger: bool = True) -> dict:
    sites, binaries = _build_inputs()

    engine = EvaluationEngine()
    start = time.perf_counter()
    cold_result = engine.evaluate_matrix(binaries, sites)
    cold = time.perf_counter() - start

    # Best of three: the warm path is a few milliseconds, so a single
    # sample is too noisy for the ±25% regression gate.
    warm = min(_timed_matrix(engine, binaries, sites) for _ in range(3))
    stats = engine.stats.snapshot()

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
        "cache": {
            "description_hits": stats.description_hits,
            "description_misses": stats.description_misses,
            "discovery_hits": stats.discovery_hits,
            "discovery_misses": stats.discovery_misses,
            "evaluation_hits": stats.evaluation_hits,
            "evaluation_misses": stats.evaluation_misses,
        },
    }
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if history_path:
        append_history(payload, history_path)
    if ledger:
        record_ledger(payload, "bench", ledger_dir)
    print(f"cold {cold:.3f}s  warm {warm:.3f}s  "
          f"traced {traced:.3f}s (vs reference {reference:.3f}s)"
          f"  -> {out_path}"
          + (f" (+ {history_path})" if history_path else ""))
    return payload


def run_fleet(spec: str, out_path: str = "BENCH_fleet.json",
              history_path: str | None = None,
              count: int = BINARIES,
              ledger_dir: str | None = None,
              ledger: bool = True) -> dict:
    """Benchmark a generated fleet: build time, eval time, cells/sec."""
    start = time.perf_counter()
    sites = resolve_sites(spec, default_seed=SEED)
    build = time.perf_counter() - start
    print(f"{describe_fleet(sites)} built in {build:.1f}s",
          file=sys.stderr)
    binaries = _compile_binaries(sites, count)

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
        "cache": {
            "description_hits": stats.description_hits,
            "description_misses": stats.description_misses,
            "discovery_hits": stats.discovery_hits,
            "discovery_misses": stats.discovery_misses,
            "evaluation_hits": stats.evaluation_hits,
            "evaluation_misses": stats.evaluation_misses,
        },
    }
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if history_path:
        append_fleet_history(payload, history_path)
    if ledger:
        record_ledger(payload, "fleet-bench", ledger_dir)
    print(f"fleet {spec}: {cells} cells in {elapsed:.1f}s "
          f"({payload['cells_per_second']} cells/s, "
          f"{payload['cell_microseconds']} us/cell)  -> {out_path}"
          + (f" (+ {history_path})" if history_path else ""))
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Emit batch-evaluation benchmark JSON.")
    parser.add_argument("out", nargs="?", default=None,
                        help="output JSON path (default: "
                             "BENCH_matrix.json, or BENCH_fleet.json "
                             "with --fleet)")
    parser.add_argument("history", nargs="?", default=None,
                        help="also append a line to this "
                             "BENCH_history.jsonl")
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
                            args.history,
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
    run(args.out or "BENCH_matrix.json", args.history,
        ledger_dir=args.ledger, ledger=not args.no_ledger)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
