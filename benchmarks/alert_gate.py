"""The CI alert gate: prove the burn-rate alerting contract.

Four clauses, mirroring ``telemetry_gate.py``'s exit-code discipline
(0 ok, 1 contract violation, 3 budget blown):

1. **quiet on clean** -- a no-fault paper matrix run, replayed through
   the default alert engine, must fire *zero* alerts (and raise zero
   anomalies): an alerting layer that pages on a healthy run trains
   operators to ignore it.
2. **loud on chaos** -- the same matrix under the CI fault profile
   (``chaos_flaky.txt``) must fire at least one alert, at least one of
   them critical, and the firing alert's context must carry fault
   provenance (the per-kind injection counts) -- an alert that cannot
   say *what* faulted is a page without a lead.
3. **determinism** -- two same-seed chaos runs must replay to
   byte-identical incident timelines.  Timeline records carry logical
   ticks and sequence numbers only; any wall-clock leak shows up here
   as a ``cmp`` failure.
4. **evaluation overhead** -- replaying a synthetic 1,000-site fleet's
   wide events (4,000 records) through the burn-rate engine plus one
   anomaly-detector pass must finish under ``--eval-budget-seconds``:
   alert evaluation is a post-run fold, and it must stay a rounding
   error next to the matrix that produced the events.

The clean and chaos runs are in-process ``feam matrix`` and ``feam
chaos --profile chaos_flaky.txt`` invocations with ``--wide-out``; the
gate replays their wide events.

With ``--fixture`` (default: the committed
``benchmarks/wide_chaos_flaky.jsonl``), the gate additionally replays
the committed stream through the ``feam alerts`` CLI and asserts the
exit-2-while-firing contract end to end.

Artifacts: ``alert_gate.json`` plus the two chaos timelines, uploaded
by the ``alert-gate`` CI job.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile
import time

from repro.__main__ import feam_main
from repro.core.engine import anomaly_features
from repro.obs import alerts as alerts_mod
from repro.obs import anomaly as anomaly_mod
from repro.obs.wide import SCHEMA_VERSION, read_jsonl
from repro.util.hashing import stable_uniform

SEED = 20130101

EXIT_OK = 0
EXIT_FAILURE = 1      # alerting contract violated
EXIT_REGRESSION = 3   # evaluation budget blown

_PROFILE = os.path.join(os.path.dirname(__file__), "chaos_flaky.txt")
_FIXTURE = os.path.join(os.path.dirname(__file__),
                        "wide_chaos_flaky.jsonl")


def _feam(*argv: str) -> tuple[int, str]:
    """One in-process ``feam`` run: (exit code, stdout)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = feam_main(list(argv))
    return code, stdout.getvalue()


def _matrix_wide_events(*verb: str) -> list[dict]:
    """One paper-sized ``feam matrix``/``feam chaos`` run's wide events.

    Every call builds fresh sites, engine and fault plan, so two
    same-seed invocations are fully independent -- exactly what the
    determinism clause needs.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wide.jsonl")
        code, _ = _feam(*verb, "--seed", str(SEED), "--wide-out", path,
                        "--no-ledger", "--no-cache")
        if code != EXIT_OK:
            raise RuntimeError(f"feam {' '.join(verb)} exited {code}")
        return read_jsonl(path)


def _replay(events, timeline_path: str | None = None):
    """Replay *events* through a default engine (plus anomaly pass)."""
    sinks = ([alerts_mod.JsonlSink(timeline_path)]
             if timeline_path else [])
    engine = alerts_mod.AlertEngine(sinks=sinks, emit_obs=False)
    alerts_mod.replay_wide(events, engine)
    anomalies = anomaly_mod.detect(events, anomaly_features, seed=SEED)
    engine.observe_anomalies(anomalies)
    engine.close()
    return engine, anomalies


def _synthetic_fleet_events(sites: int = 1000,
                            binaries: int = 4) -> list[dict]:
    """Deterministic wide events shaped like a 1k-site fleet run.

    The overhead clause times *alert evaluation*, not the matrix, so
    the events are synthesized (seeded, schema-shaped) rather than
    paid for with a real 4,000-cell evaluation on every CI run.
    """
    events = []
    for site_index in range(sites):
        group = f"group-{site_index % 40}"
        for binary_index in range(binaries):
            draw = stable_uniform("alert-gate-fleet", site_index,
                                  binary_index)
            faulted = draw < 0.05
            events.append({
                "schema": SCHEMA_VERSION,
                "site": f"fleet-{site_index:04d}",
                "binary": f"app-{binary_index}",
                "content_group": group,
                "outcome": "unknown" if faulted else "no",
                "ready": False,
                "faulted": faulted,
                "sim_seconds": round(20.0 + 30.0 * draw, 6),
                "attempts": 2 if faulted else 1,
                "retry_seconds": round(draw, 6) if faulted else 0.0,
                "fault_kind": "read-error" if faulted else None,
                "description_hit": site_index % 2 == 0,
                "discovery_hit": site_index % 3 == 0,
                "evaluation_hit": False,
                "det_mpi_library_compatibility": "pass",
            })
    return events


def run_gate(report_out: str, timeline_a: str, timeline_b: str,
             eval_budget_seconds: float, fixture: str | None) -> int:
    failures: list[str] = []

    # 1. Quiet on clean.
    clean_engine, clean_anomalies = _replay(_matrix_wide_events("matrix"))
    if clean_engine.firing:
        failures.append(
            f"clean: {len(clean_engine.firing)} alert(s) firing on a "
            f"no-fault paper matrix: "
            f"{[a['alert'] for a in clean_engine.firing]}")
    if clean_anomalies:
        failures.append(f"clean: anomaly detector raised "
                        f"{len(clean_anomalies)} on a no-fault run")

    # 2. Loud on chaos (+ 3. determinism: two same-seed runs).
    for path in (timeline_a, timeline_b):
        if os.path.exists(path):
            os.unlink(path)
    chaos = ("chaos", "--profile", _PROFILE)
    chaos_engine, _ = _replay(_matrix_wide_events(*chaos),
                              timeline_path=timeline_a)
    rerun_engine, _ = _replay(_matrix_wide_events(*chaos),
                              timeline_path=timeline_b)
    firing = chaos_engine.firing
    if not firing:
        failures.append("chaos: no alert firing under the CI fault "
                        "profile")
    if not any(a["severity"] == "critical" for a in firing):
        failures.append("chaos: no critical alert firing under the CI "
                        "fault profile")
    if not any(a["context"].get("fault_kinds") for a in firing):
        failures.append("chaos: firing alerts carry no fault "
                        "provenance (context.fault_kinds)")

    with open(timeline_a, "rb") as handle:
        bytes_a = handle.read()
    with open(timeline_b, "rb") as handle:
        bytes_b = handle.read()
    if bytes_a != bytes_b:
        failures.append(f"determinism: same-seed chaos timelines "
                        f"differ ({timeline_a} vs {timeline_b})")
    if not bytes_a:
        failures.append("determinism: chaos timeline is empty")

    # 5. The committed fixture drives the CLI exit-2 contract.
    fixture_exit = None
    if fixture and os.path.exists(fixture):
        fixture_exit, fixture_out = _feam("alerts", "--replay", fixture)
        if fixture_exit != 2:
            failures.append(f"fixture: feam alerts --replay {fixture} "
                            f"exited {fixture_exit}, want 2 (firing)")
        if "faults:" not in fixture_out:
            failures.append("fixture: report shows no fault "
                            "provenance line")
    elif fixture:
        failures.append(f"fixture: {fixture} is missing")

    # 4. Evaluation overhead on a synthetic 1k-site fleet.
    fleet_events = _synthetic_fleet_events()
    start = time.perf_counter()
    fleet_engine, fleet_anomalies = _replay(fleet_events)
    eval_seconds = time.perf_counter() - start
    blown = eval_seconds > eval_budget_seconds

    payload = {
        "seed": SEED,
        "clean": {"firing": len(clean_engine.firing),
                  "transitions": len(clean_engine.transitions),
                  "anomalies": len(clean_anomalies)},
        "chaos": {"firing": len(firing),
                  "critical": sum(1 for a in firing
                                  if a["severity"] == "critical"),
                  "transitions": len(chaos_engine.transitions),
                  "rerun_transitions": len(rerun_engine.transitions),
                  "timeline_bytes": len(bytes_a),
                  "timelines_identical": bytes_a == bytes_b},
        "fixture": {"path": fixture, "exit": fixture_exit},
        "fleet": {"events": len(fleet_events),
                  "ticks": fleet_engine.tick,
                  "anomalies": len(fleet_anomalies),
                  "eval_seconds": round(eval_seconds, 4),
                  "eval_budget_seconds": eval_budget_seconds},
        "failures": failures,
    }
    with open(report_out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"alert gate: clean fired {len(clean_engine.firing)}, chaos "
          f"fired {len(firing)} "
          f"({payload['chaos']['critical']} critical), timelines "
          f"{'identical' if bytes_a == bytes_b else 'DIFFER'}, fleet "
          f"eval {eval_seconds:.3f}s (budget "
          f"{eval_budget_seconds:.2f}s)  -> {report_out}")
    for failure in failures:
        print(f"ALERT GATE: {failure}")
    if failures:
        return EXIT_FAILURE
    if blown:
        print(f"ALERT GATE: fleet alert evaluation took "
              f"{eval_seconds:.3f}s > budget "
              f"{eval_budget_seconds:.2f}s")
        return EXIT_REGRESSION
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate the burn-rate alerting contract.")
    parser.add_argument("--report-out", default="alert_gate.json",
                        help="gate report artifact path")
    parser.add_argument("--timeline-a", default="alert_timeline_a.jsonl",
                        help="first chaos timeline artifact path")
    parser.add_argument("--timeline-b", default="alert_timeline_b.jsonl",
                        help="same-seed rerun timeline artifact path")
    parser.add_argument("--eval-budget-seconds", type=float, default=1.0,
                        help="max wall seconds for alert + anomaly "
                             "evaluation over the synthetic 1k-site "
                             "fleet (default: 1.0)")
    parser.add_argument("--fixture", default=_FIXTURE,
                        help="committed flaky-chaos wide events for "
                             "the CLI exit-2 check ('' skips)")
    args = parser.parse_args(argv)
    return run_gate(args.report_out, args.timeline_a, args.timeline_b,
                    args.eval_budget_seconds, args.fixture or None)


if __name__ == "__main__":
    raise SystemExit(main())
