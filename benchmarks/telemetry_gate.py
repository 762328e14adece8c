"""The CI telemetry gate: prove the wide-event contract.

Runs a generated fleet matrix twice -- once bare (the reference), once
under the full telemetry overlay (observability collector with whole
span trees, wide-event sink) -- and asserts the overlay's contract:

1. **completeness** -- exactly one wide event per matrix cell (the
   evaluated and worker-failure paths both emit);
2. **overhead** -- the telemetry run's wall time stays within
   ``--overhead-tolerance`` of the bare reference;
3. **consistency** -- a ``feam query``-equivalent aggregation over the
   wide events reproduces the matrix's own per-outcome cell counts;
4. **ledger overhead** -- recording the run manifest into the run
   ledger (which every ``feam matrix`` now does) must cost less than
   ``--ledger-budget-seconds``: the durable history may not tax the
   hot path.

Artifacts: the raw ``wide_events.jsonl`` stream and a
``telemetry_gate.json`` payload embedding the query summary, both
uploaded by the ``telemetry-gate`` CI job.

Exit codes mirror ``emit_bench.py``: 0 ok, 1 contract violation,
3 overhead budget blown.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro import obs
from repro.core.engine import EngineBinary, EvaluationEngine, run_rollup
from repro.obs import ledger as ledger_mod
from repro.obs.store import Aggregation, WhereClause, run_query
from repro.obs.wide import WideEventSink, read_jsonl
from repro.sites.generator import resolve_sites
from repro.toolchain.compilers import Language

SEED = 20130101

EXIT_OK = 0
EXIT_FAILURE = 1      # telemetry contract violated
EXIT_REGRESSION = 3   # overhead tolerance blown


def _compile_binaries(sites, count: int):
    binaries = []
    pool = sites[:max(1, min(len(sites), count))]
    for index in range(count):
        site = pool[index % len(pool)]
        stack = site.stacks[index % len(site.stacks)]
        name = f"gate-{site.name}-{stack.spec.slug}-{index}"
        linked = site.compile_mpi_program(name, Language.FORTRAN, stack)
        binaries.append(EngineBinary(binary_id=name, image=linked.image))
    return binaries


def run_gate(spec: str, binaries_count: int,
             wide_out: str, report_out: str,
             overhead_tolerance: float,
             ledger_budget_seconds: float = 0.25) -> int:
    sites = resolve_sites(spec, default_seed=SEED)
    binaries = _compile_binaries(sites, binaries_count)
    failures: list[str] = []

    # Untimed warmup: the first matrix of the process pays one-time
    # import/JIT-warmup costs that would otherwise inflate whichever
    # timed side ran first (emit_bench.py learned this the hard way).
    EvaluationEngine().evaluate_matrix(binaries, sites)

    # Bare reference: fresh engine, no collector, no sink.
    start = time.perf_counter()
    reference_result = EvaluationEngine().evaluate_matrix(binaries, sites)
    reference = time.perf_counter() - start

    # Telemetry run: fresh engine under the full overlay.  The sink
    # appends to an existing file; the gate wants this run only.
    if os.path.exists(wide_out):
        os.unlink(wide_out)
    sink = WideEventSink(path=wide_out)
    with obs.capture() as collector:
        start = time.perf_counter()
        result = EvaluationEngine().evaluate_matrix(
            binaries, sites, wide_sink=sink)
        telemetry = time.perf_counter() - start
    sink.close()

    cells = len(result.cells)
    events = read_jsonl(wide_out)

    # 1. Completeness: one wide event per cell, on disk and in counters.
    counters = collector.metrics.to_dict()["counters"]
    if len(events) != cells:
        failures.append(f"completeness: {len(events)} wide event(s) "
                        f"for {cells} cell(s)")
    if counters.get("obs.wide.emitted") != cells:
        failures.append(f"completeness: obs.wide.emitted = "
                        f"{counters.get('obs.wide.emitted')} != {cells}")

    # 3. Consistency: the store's aggregation over the wide events must
    # reproduce the matrix's own per-outcome counts (the renderer and
    # the query path must never disagree about how many cells degraded).
    by_outcome = run_query(events, by="outcome",
                           aggs=[Aggregation(fn="count")], top=10)
    queried = {group: size for group, _values, size in by_outcome.rows}
    for word in ("ready", "unknown", "no"):
        matrix_count = sum(1 for cell in result.cells
                           if cell.outcome_word == word)
        if queried.get(word, 0) != matrix_count:
            failures.append(f"consistency: query counts "
                            f"{queried.get(word, 0)} {word!r} cell(s), "
                            f"matrix has {matrix_count}")
    unknown_by_site = run_query(
        events, where=[WhereClause("outcome", "=", "unknown")],
        by="site", aggs=[Aggregation(fn="count")], top=20)

    # 2. Overhead (checked last so contract failures surface first).
    overhead = (telemetry / reference - 1.0) if reference > 0 else 0.0
    blown = overhead > overhead_tolerance

    # 4. Ledger write overhead: distilling the rollup and appending the
    # manifest is what every `feam matrix` run now pays; it must stay a
    # rounding error next to the matrix itself.
    directory = (os.environ.get("FEAM_LEDGER_DIR")
                 or ledger_mod.DEFAULT_DIR)
    manifest = {
        "kind": "telemetry-gate",
        "seed": SEED,
        "sites_spec": spec,
        "binaries": len(binaries),
    }
    start = time.perf_counter()
    manifest.update(run_rollup(result,
                               snapshot=collector.metrics.to_dict(),
                               wide_events=events))
    try:
        ledger_mod.RunLedger(directory).record(manifest)
        ledger_write = time.perf_counter() - start
    except OSError as exc:
        ledger_write = None
        failures.append(f"ledger: could not record run in "
                        f"{directory!r}: {exc}")
    if ledger_write is not None and ledger_write > ledger_budget_seconds:
        failures.append(f"ledger: rollup + record took "
                        f"{ledger_write:.3f}s > budget "
                        f"{ledger_budget_seconds:.3f}s")

    payload = {
        "spec": spec,
        "seed": SEED,
        "sites": len(sites),
        "binaries": len(binaries),
        "cells": cells,
        "wide_events": len(events),
        "reference_seconds": round(reference, 4),
        "telemetry_seconds": round(telemetry, 4),
        "overhead": round(overhead, 4),
        "overhead_tolerance": overhead_tolerance,
        "ledger_write_seconds": (round(ledger_write, 4)
                                 if ledger_write is not None else None),
        "ledger_budget_seconds": ledger_budget_seconds,
        "reference_cells": len(reference_result.cells),
        "query_summary": {
            "by_outcome": by_outcome.to_dict(),
            "unknown_by_site": unknown_by_site.to_dict(),
        },
        "failures": failures,
    }
    with open(report_out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    ledger_note = (f"{ledger_write:.3f}s" if ledger_write is not None
                   else "failed")
    print(f"telemetry gate: {cells} cells, {len(events)} wide events, "
          f"overhead {overhead:+.1%} (tolerance "
          f"{overhead_tolerance:.0%}), ledger write {ledger_note}"
          f"  -> {report_out}")
    for failure in failures:
        print(f"TELEMETRY GATE: {failure}")
    if failures:
        return EXIT_FAILURE
    if blown:
        print(f"TELEMETRY GATE: overhead {overhead:+.1%} > "
              f"tolerance {overhead_tolerance:.0%} "
              f"(reference {reference:.2f}s, telemetry {telemetry:.2f}s)")
        return EXIT_REGRESSION
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate the wide-event telemetry contract.")
    parser.add_argument("--fleet", default="fleet:n=250,seed=7",
                        metavar="SPEC",
                        help="fleet spec (default: fleet:n=250,seed=7)")
    parser.add_argument("--binaries", type=int, default=4,
                        help="test binaries to compile (default: 4)")
    parser.add_argument("--wide-out", default="wide_events.jsonl",
                        help="wide-event artifact path")
    parser.add_argument("--report-out", default="telemetry_gate.json",
                        help="gate report artifact path")
    parser.add_argument("--overhead-tolerance", type=float, default=0.5,
                        help="max telemetry overhead vs the bare "
                             "reference run (default: 0.5 = +50%%)")
    parser.add_argument("--ledger-budget-seconds", type=float,
                        default=0.25,
                        help="max wall seconds for distilling and "
                             "recording the run-ledger manifest "
                             "(default: 0.25)")
    args = parser.parse_args(argv)
    return run_gate(args.fleet, args.binaries,
                    args.wide_out, args.report_out,
                    args.overhead_tolerance,
                    args.ledger_budget_seconds)


if __name__ == "__main__":
    raise SystemExit(main())
