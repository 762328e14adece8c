"""Command-line entry point.

``python -m repro <what>`` regenerates the paper's tables and figures;
``python -m repro feam <verb>`` (also installed as the ``feam`` console
script) drives the framework itself.  ``python -m repro --help``,
``feam --help`` and ``feam <verb> --help`` list the artifacts, verbs
and flags.

``feam`` verbs use distinct exit codes so CI can tell failure modes
apart: 1 = operational error (bad input, unknown site, unwritable
output file), 2 = SLO violation (``feam alerts``: something is
firing), 3 = performance regression gate tripped.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Callable, Optional

from repro.evaluation import figures, tables
from repro.evaluation.experiment import ExperimentResult, run_experiment

_STATIC = {
    "table1": tables.render_table1,
    "table2": tables.render_table2,
    "fig1": figures.render_figure1,
    "fig2": figures.render_figure2,
    "fig3": figures.render_figure3,
    "fig4": figures.render_figure4,
}

def _render_effort(result: ExperimentResult) -> str:
    from repro.evaluation.effort import render_effort
    return render_effort(result.records)


def _render_ablation(result: ExperimentResult) -> str:
    from repro.evaluation.ablation import (
        determinant_ablation,
        render_determinant_ablation,
    )
    return render_determinant_ablation(
        determinant_ablation(result.records, mode="basic"))


def _render_report(result: ExperimentResult) -> str:
    from repro.evaluation.reportgen import render_markdown_report
    return render_markdown_report(result)


_EXPERIMENTAL = {
    "table3": tables.render_table3,
    "table4": tables.render_table4,
    "intext": tables.render_intext,
    "matrix": tables.render_site_matrix,
    "effort": _render_effort,
    "ablation": _render_ablation,
    "report": _render_report,
}

# ``feam`` exit codes: distinct per failure mode so scripts and CI can
# branch on them (covered by tests/test_cli.py).
EXIT_OK = 0
EXIT_FAILURE = 1        # operational error: missing file, unknown site
EXIT_SLO_VIOLATION = 2  # one or more SLO rules failed
EXIT_REGRESSION = 3     # performance regression gate tripped


class CliError(Exception):
    """An operational error: ``feam`` prints it as one stderr line and
    exits :data:`EXIT_FAILURE`."""


def feam_main(argv: Optional[list[str]] = None) -> int:
    """The ``feam`` tool: drive the framework (not the paper artifacts)."""
    args = _feam_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return EXIT_FAILURE


def _feam_parser() -> argparse.ArgumentParser:
    """The ``feam`` parser; each verb's ``handler`` default runs it."""
    # Flags several verbs share, declared once as parent parsers.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed", type=int, default=20130101,
        help="world seed; chaos also seeds its fault plan and alerts "
             "its anomaly tie-breaks with it (default: 20130101)")
    world = argparse.ArgumentParser(add_help=False, parents=[seeded])
    world.add_argument(
        "--binaries", type=int, default=4,
        help="how many test binaries to compile (one per site, "
             "round-robin; default: 4)")
    world.add_argument(
        "--extended", action="store_true",
        help="also run source phases and evaluate in extended mode")
    fleet = argparse.ArgumentParser(add_help=False, parents=[world])
    fleet.add_argument(
        "--sites", default="paper", metavar="SPEC",
        help="site set: 'paper' (the five paper sites) or a generator "
             "spec like 'fleet:n=1000,seed=7' (default: paper)")
    ledger = argparse.ArgumentParser(add_help=False)
    ledger.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="run-ledger directory (default: $FEAM_LEDGER_DIR, then "
             ".feam/runs)")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument(
        "--json", action="store_true",
        help="emit the result as JSON instead of text")
    timeline = argparse.ArgumentParser(add_help=False)
    timeline.add_argument(
        "--timeline", metavar="FILE.jsonl", default=None,
        help="append every alert transition to this incident-timeline "
             "JSONL file")
    # matrix and chaos: the runs that are recorded, cached and
    # optionally streamed as wide events.
    recorded = argparse.ArgumentParser(add_help=False,
                                       parents=[fleet, ledger])
    recorded.add_argument(
        "--verbose", action="store_true",
        help="also print per-cell cache provenance, non-pass "
             "determinants and fault provenance")
    # Telemetry defaults OFF: the chaos determinism gate depends on
    # same-seed reruns staying byte-identical, and telemetry must be a
    # pure opt-in overlay.
    recorded.add_argument(
        "--wide-out", metavar="FILE.jsonl", default=None,
        help="stream one wide event per cell (identity, verdict, "
             "per-determinant outcomes, cache/retry/breaker "
             "provenance, sim + wall clocks) to this JSONL file; "
             "query it afterwards with 'feam query'")
    recorded.add_argument(
        "--no-ledger", action="store_true",
        help="do not record this run into the ledger")
    recorded.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent evaluation cache directory: descriptions, "
             "discoveries and evaluations persist across runs and "
             "warm-start the next process (default: $FEAM_CACHE_DIR; "
             "unset = in-memory only)")
    recorded.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the persistent cache this run")

    parser = argparse.ArgumentParser(
        prog="feam",
        description="Drive FEAM: batch readiness evaluation.")
    verbs = parser.add_subparsers(dest="command", required=True)

    def verb(name, handler, help_text, *parents):
        sub = verbs.add_parser(name, help=help_text, parents=parents)
        sub.set_defaults(handler=handler)
        return sub

    matrix = verb(
        "matrix", _feam_matrix,
        "batch-evaluate binaries x sites through the evaluation "
        "engine and print the readiness grid plus cache statistics",
        recorded)
    matrix.add_argument(
        "--trace-out", metavar="FILE.jsonl", default=None,
        help="write the run's observability trace as JSONL")

    chaos = verb(
        "chaos", _feam_chaos,
        "run the matrix under a fault-injection profile and print the "
        "readiness grid plus a fault/retry/breaker summary",
        recorded, timeline)
    chaos.add_argument(
        "--profile", default="flaky",
        help="built-in fault profile (none, flaky, partition, corrupt) "
             "or a profile file -- text ('read-error @ * rate=0.15 "
             "persistent' per line) or JSON (default: flaky)")
    chaos.add_argument(
        "--summary-out", metavar="FILE.json", default=None,
        help="also write the fault/retry/breaker summary as JSON")

    trace = verb(
        "trace", _feam_trace,
        "run one real evaluation under the observability collector "
        "and pretty-print the span tree",
        seeded)
    trace.add_argument(
        "--build-site", default="fir",
        help="site whose toolchain builds the test binary "
             "(default: fir)")
    trace.add_argument(
        "--target-site", default="ranger",
        help="site the binary is migrated to (default: ranger -- a "
             "migration whose resolution stages library copies)")
    trace.add_argument(
        "--stack", default=None, metavar="SLUG",
        help="MPI stack slug at the build site (default: its first)")
    trace.add_argument(
        "--basic", action="store_true",
        help="skip the source phase (basic prediction; no resolution)")
    trace.add_argument(
        "--trace-out", metavar="FILE.jsonl", default=None,
        help="also write the trace as JSONL")

    stats = verb(
        "stats", _feam_stats,
        "run a batch evaluation and dump the metrics registry",
        fleet)
    stats.add_argument(
        "--top", type=int, default=20,
        help="rows per metrics section; the rest folds into an "
             "'... and K more' footer (default: 20)")

    top = verb(
        "top", _feam_top,
        "aggregate a JSONL trace into a flame table (count, "
        "total/self wall and sim time per span name)")
    top.add_argument("trace", help="JSONL trace file (feam matrix "
                                   "--trace-out / feam trace --trace-out)")
    top.add_argument(
        "--sort", default="wall_self",
        choices=("wall_self", "wall_total", "sim_self", "sim_total",
                 "count"),
        help="flame table sort key (default: wall_self)")
    top.add_argument(
        "--limit", "--top", dest="limit", type=int, default=20,
        help="rows to print; the rest folds into an '... and K more' "
             "footer (default: 20)")
    top.add_argument(
        "--critical-path", action="store_true",
        help="also print the heaviest root-to-leaf chain")
    top.add_argument(
        "--clock", default="wall", choices=("wall", "sim"),
        help="clock for the critical path (default: wall)")

    diff = verb(
        "diff-trace", _feam_diff_trace,
        "per-span-name deltas between two JSONL traces; with "
        "--fail-above, exit 3 when the regression gate trips")
    diff.add_argument("base", help="baseline JSONL trace")
    diff.add_argument("curr", help="current JSONL trace")
    diff.add_argument(
        "--limit", type=int, default=30,
        help="rows to print (default: 30)")
    diff.add_argument(
        "--fail-above", type=float, default=None, metavar="RATIO",
        help="regression gate: exit 3 when total wall time (or any "
             "span name with >= --min-wall baseline) grows beyond "
             "RATIO x baseline (e.g. 1.25)")
    diff.add_argument(
        "--min-wall", type=float, default=0.001, metavar="SECONDS",
        help="ignore per-name regressions below this baseline wall "
             "time (default: 0.001)")

    slo = verb(
        "slo", _feam_slo,
        "evaluate SLO threshold rules against a live batch run (or a "
        "recorded trace) and exit 2 on violation",
        world, as_json)
    slo.add_argument(
        "--rules", metavar="FILE", default=None,
        help="rules file (one 'metric <= 0.5' per line, '#' comments, "
             "trailing '?' marks a rule optional); default: built-in "
             "warm-run objectives")
    slo.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="evaluate against this trace's metrics snapshot instead "
             "of running a live evaluation")
    slo.add_argument(
        "--rounds", type=int, default=2,
        help="matrix evaluations to run before checking (default: 2 "
             "-- the second round exercises the warm cache path)")

    serve = verb(
        "serve", _feam_serve,
        "run a batch evaluation while serving /metrics (Prometheus), "
        "/healthz, /trace and /slo over HTTP",
        world, ledger)
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=9464,
        help="bind port; 0 picks a free one (default: 9464)")
    serve.add_argument(
        "--rounds", type=int, default=2,
        help="matrix evaluations to run while serving (default: 2)")
    serve.add_argument(
        "--linger", type=float, default=-1.0, metavar="SECONDS",
        help="keep serving this long after the run (negative = until "
             "interrupted; default: -1)")
    serve.add_argument(
        "--rules", metavar="FILE", default=None,
        help="SLO rules file for the /slo endpoint")

    watch = verb(
        "watch", _feam_watch,
        "live fleet dashboard: attach to a running feam serve "
        "(--attach URL) or drive a matrix run, re-rendering cells/sec, "
        "cache hit rates, breaker states and a rolling latency "
        "histogram in place",
        fleet)
    watch.add_argument(
        "--attach", metavar="URL", default=None,
        help="poll this feam serve base URL's /snapshot endpoint "
             "instead of driving a run (e.g. http://127.0.0.1:9464)")
    watch.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh interval in seconds (default: 1.0)")
    watch.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="with --attach: stop after this long (default: until "
             "Ctrl-C or the server goes away)")

    query = verb(
        "query", _feam_query,
        "filter/aggregate a wide-event JSONL file (feam matrix "
        "--wide-out): --where outcome=unknown --by site --top 20",
        as_json)
    query.add_argument(
        "events", metavar="WIDE.jsonl",
        help="wide-event JSONL file (from --wide-out)")
    query.add_argument(
        "--where", action="append", default=[], metavar="CLAUSE",
        help="filter clause, repeatable: field=value, field!=value, "
             "or field>=number (also > < <=); clauses AND together")
    query.add_argument(
        "--by", default=None, metavar="FIELD",
        help="group rows by this record field (default: one global "
             "group)")
    query.add_argument(
        "--agg", action="append", default=[], metavar="SPEC",
        help="aggregation column, repeatable: count (default) or "
             "sum|min|max|mean|p50|p95|p99:field, e.g. p95:wall_seconds")
    query.add_argument(
        "--top", type=int, default=20,
        help="rows to print, ranked by the first aggregation "
             "(default: 20)")

    runs = verb(
        "runs", _feam_runs,
        "list/inspect the run ledger: 'feam runs' lists, 'feam runs "
        "show REF' prints one manifest",
        ledger, as_json)
    runs.add_argument(
        "action", nargs="*", metavar="ACTION",
        help="'list' (default) or 'show REF' (run id, unique prefix, "
             "'latest' or a negative index like -2)")
    runs.add_argument(
        "--where", action="append", default=[], metavar="CLAUSE",
        help="filter clause over the flattened manifest, repeatable: "
             "kind=chaos, rollup.cells>=20, seed!=7")
    runs.add_argument(
        "--top", type=int, default=20,
        help="most recent runs listed (default: 20)")

    compare = verb(
        "compare", _feam_compare,
        "cross-run regression attribution between two ledger runs: "
        "outcome flips, per-determinant and per-phase latency ratios, "
        "cache/retry drift; with --fail-above, exit 3 when any ratio "
        "crosses the gate",
        ledger, as_json)
    compare.add_argument(
        "base", help="baseline run: id, unique prefix, 'latest' or a "
                     "negative index like -2")
    compare.add_argument(
        "curr", help="current run (same reference forms)")
    compare.add_argument(
        "--fail-above", type=float, default=None, metavar="RATIO",
        help="regression gate: exit 3 when any sim/phase/determinant "
             "latency ratio exceeds RATIO (e.g. 1.5)")

    drift = verb(
        "drift", _feam_drift,
        "newest ledger run vs a rolling baseline of the last N runs of "
        "its kind; flags metric excursions, and with --rules applies "
        "SLO rules (exit 2 on violation)",
        ledger, as_json)
    drift.add_argument(
        "--window", type=int, default=10,
        help="baseline window: earlier runs of the same kind averaged "
             "into the baseline (default: 10)")
    drift.add_argument(
        "--tolerance", type=float, default=0.25,
        help="fractional excursion tolerance around the baseline mean "
             "(default: 0.25)")
    drift.add_argument(
        "--rules", metavar="FILE", default=None,
        help="SLO rules file evaluated against the newest manifest's "
             "flattened metrics (e.g. 'rollup.sim.mean <= 40')")

    alerts = verb(
        "alerts", _feam_alerts,
        "multi-window burn-rate alerting: drive a live matrix run (one "
        "round per evaluation tick) or --replay a recorded "
        "wide-event/ledger JSONL stream, plus robust median/MAD anomaly "
        "detection; exit 2 while firing",
        fleet, timeline, as_json)
    alerts.add_argument(
        "--replay", metavar="FILE.jsonl", default=None,
        help="replay this recorded stream instead of running live: "
             "wide events (feam matrix/chaos --wide-out) fold into "
             "one burn-rate tick per --batch records; ledger "
             "manifests (records with a 'rollup') tick once per run "
             "with the rollup.* rule vocabulary")
    alerts.add_argument(
        "--rules", metavar="FILE", default=None,
        help="SLO rules file to arm (same grammar as feam slo, "
             "including [critical]/[warn] tags); default: the "
             "deterministic built-in alert set")
    alerts.add_argument(
        "--burn", metavar="FAST:SLOW[:FRACTION]", default=None,
        help="burn windows in ticks: every fast tick AND at least "
             "FRACTION of the slow window must violate (default: "
             "2:6:0.5)")
    alerts.add_argument(
        "--for", dest="for_ticks", type=int, default=2, metavar="N",
        help="for-duration damping: the condition must hold N "
             "consecutive ticks before pending escalates to firing "
             "(default: 2)")
    alerts.add_argument(
        "--batch", type=int, default=10,
        help="wide-event replay: records folded into each evaluation "
             "tick (default: 10)")
    alerts.add_argument(
        "--anomaly-threshold", type=float, default=None,
        metavar="Z", help="robust z-score cutoff for the wide-event "
                          "anomaly detector (default: 3.5)")
    alerts.add_argument(
        "--min-groups", type=int, default=None, metavar="N",
        help="content groups needed before the anomaly detector "
             "speaks (default: 4)")
    alerts.add_argument(
        "--rounds", type=int, default=3,
        help="live mode: matrix evaluation rounds, one burn-rate "
             "tick each (default: 3)")

    cache = verb(
        "cache", _feam_cache,
        "inspect and maintain the persistent evaluation cache (the "
        "on-disk tier under the engine's caches)",
        as_json)
    cache.add_argument(
        "action", choices=("stats", "verify", "compact", "clear"),
        help="stats = per-layer entry/byte counts; verify = full "
             "integrity check (exit 1 on any corrupt, torn or "
             "newer-schema record); compact = rewrite segments "
             "dropping superseded/corrupt lines and applying the LRU "
             "byte cap; clear = delete every segment")
    cache.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache directory (default: $FEAM_CACHE_DIR)")
    return parser


def _open_output(label: str, path: str, opener=None):
    """Open an output file named on the command line, or raise.

    Without *opener* the file is only checked: it is created if
    missing, left as it is otherwise, and written when the run ends.
    """
    try:
        if opener is not None:
            return opener(path)
        open(path, "a", encoding="utf-8").close()
        return None
    except OSError as exc:
        raise CliError(f"cannot open {label} {path!r}: {exc}") from None


def _cache_dir(args) -> Optional[str]:
    """--cache-dir, then $FEAM_CACHE_DIR."""
    return (getattr(args, "cache_dir", None)
            or os.environ.get("FEAM_CACHE_DIR"))


class RunContext:
    """The one place a live ``feam`` run is assembled and torn down.

    ``matrix``, ``chaos``, ``stats``, live ``slo``, ``serve``,
    drive-mode ``watch`` and live ``alerts`` run inside one.  It opens
    the run's output files, then builds its sites, persistent store,
    engine, test binaries (with source-phase bundles under
    ``--extended``) and run ledger from the verb's flags; leaving the
    ``with`` block closes them, the engine and its store exactly once.
    Output files come first, so a bad path fails before anything is
    built or evaluated.  Failures raise :class:`CliError`.
    """

    def __init__(self, args) -> None:
        from repro.core.engine import EvaluationEngine, compile_test_binaries
        from repro.core.feam import Feam
        from repro.obs.alerts import JsonlSink
        from repro.obs.ledger import RunLedger
        from repro.obs.wide import WideEventSink
        from repro.sites.generator import describe_fleet, resolve_sites

        self.args = args
        self.spec = getattr(args, "sites", None) or "paper"
        with contextlib.ExitStack() as opened:
            self.wide_sink = self._sink(
                opened, "wide-event file", "wide_out",
                lambda path: WideEventSink(path=path))
            self.timeline = self._sink(opened, "timeline", "timeline",
                                       JsonlSink)
            for label, dest in (("trace file", "trace_out"),
                                ("summary file", "summary_out")):
                if getattr(args, dest, None):
                    _open_output(label, getattr(args, dest))
            print(f"building sites ({self.spec})...", file=sys.stderr)
            try:
                self.sites = resolve_sites(self.spec,
                                           default_seed=args.seed)
            except ValueError as exc:
                raise CliError(f"bad --sites spec: {exc}") from None
            print(describe_fleet(self.sites), file=sys.stderr)
            self.engine = EvaluationEngine(persist=self._store())
            opened.callback(self.engine.close)
            self.binaries = compile_test_binaries(
                self.sites, args.binaries,
                feam=Feam(engine=self.engine) if args.extended else None)
            self.ledger = (RunLedger(args.ledger)
                           if "ledger" in args
                           and not getattr(args, "no_ledger", False)
                           else None)
            self._resources = opened.pop_all()

    def _sink(self, opened, label: str, dest: str, opener):
        """The output sink the flag *dest* names, or None."""
        path = getattr(self.args, dest, None)
        if not path:
            return None
        sink = _open_output(label, path, opener)
        opened.callback(sink.close)
        return sink

    def _store(self):
        """The persistent store for this run, or None (no directory
        or ``--no-cache``).

        The store's scope digests the seed and sites spec, so hand-built
        worlds from different seeds never share discovery records;
        content-keyed fleet records are content-addressed and scope-free.
        """
        from repro.core.persist import PersistentStore
        from repro.util.hashing import stable_digest

        if getattr(self.args, "no_cache", False):
            return None
        directory = _cache_dir(self.args)
        if not directory:
            return None
        try:
            store = PersistentStore(
                directory,
                scope=stable_digest(str(self.args.seed), self.spec)[:16])
        except OSError as exc:
            raise CliError(f"cannot open persistent cache: {exc}") \
                from None
        print(f"persistent cache: {store.directory}", file=sys.stderr)
        return store

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self._resources.close()

    def announce(self, rounds: Optional[int] = None) -> None:
        """The stderr line that starts the evaluation."""
        suffix = "" if rounds is None else f", {rounds} round(s)"
        print(f"evaluating {len(self.binaries)} binaries x "
              f"{len(self.sites)} sites{suffix}...", file=sys.stderr)

    def evaluate(self, wide_sink=None):
        """One matrix evaluation of the run's binaries x sites."""
        return self.engine.evaluate_matrix(self.binaries, self.sites,
                                           wide_sink=wide_sink)

    def finish(self, result, collector, kind: str,
               fault_profile: Optional[str] = None) -> None:
        """Report the wide-event file, then record the run's manifest.

        Ledger trouble (read-only checkout, full disk) must never fail
        the run that produced the results: warn on stderr and move on.
        All ledger output goes to stderr -- the chaos determinism gate
        compares stdout byte-for-byte, and run ids carry wall
        timestamps.
        """
        from repro.core.engine import run_rollup

        sink = self.wide_sink
        if sink is not None:
            dropped = (f" ({sink.dropped} evicted from the ring)"
                       if sink.dropped else "")
            print(f"wide events: {sink.emitted} written to "
                  f"{sink.path}{dropped}", file=sys.stderr)
        if self.ledger is None:
            return
        manifest = {
            "kind": kind,
            "seed": self.args.seed,
            "sites_spec": self.spec,
            "binaries": len(self.binaries),
            "config_fingerprint": self.engine.config_fingerprint,
            "fault_profile": fault_profile,
        }
        manifest.update(run_rollup(
            result, snapshot=collector.metrics.to_dict()))
        try:
            written = self.ledger.record(manifest)
        except OSError as exc:
            print(f"ledger: cannot record run in {self.ledger.path}: "
                  f"{exc}", file=sys.stderr)
            return
        print(f"ledger: run {written['run_id']} recorded in "
              f"{self.ledger.path}", file=sys.stderr)


def _feam_cache(args) -> int:
    import json as json_mod

    from repro.core.persist import LAYERS, PersistentStore

    directory = _cache_dir(args)
    if not directory:
        raise CliError("no cache directory: give --cache-dir or set "
                       "$FEAM_CACHE_DIR")
    try:
        store = PersistentStore(directory)
    except OSError as exc:
        raise CliError(f"cannot open cache {directory!r}: {exc}") \
            from None
    try:
        if args.action == "stats":
            stats = store.stats()
            if args.json:
                print(json_mod.dumps(stats, indent=2, sort_keys=True))
                return EXIT_OK
            print(f"cache: {stats['directory']} "
                  f"(schema {stats['schema']})")
            for layer in LAYERS:
                info = stats["layers"][layer]
                print(f"  {layer:<12} {info['entries']:>6} entries  "
                      f"{info['bytes']:>10} bytes")
            print(f"  {'total':<12} {stats['entries']:>6} entries  "
                  f"{stats['bytes']:>10} bytes "
                  f"(cap {stats['max_bytes']} bytes/segment)")
            return EXIT_OK
        if args.action == "verify":
            report = store.verify()
            if args.json:
                print(json_mod.dumps(report, indent=2, sort_keys=True))
            else:
                for layer in LAYERS:
                    info = report["layers"][layer]
                    issues = {k: v for k, v in info.items()
                              if k not in ("entries", "bytes") and v}
                    detail = (", ".join(f"{k}={v}" for k, v
                                        in sorted(issues.items()))
                              or "clean")
                    print(f"  {layer:<12} {info['entries']:>6} "
                          f"entries  {detail}")
                print("store: " + ("OK" if report["ok"] else "CORRUPT"))
            return EXIT_OK if report["ok"] else EXIT_FAILURE
        if args.action == "compact":
            summary = store.compact()
            if args.json:
                print(json_mod.dumps(summary, indent=2, sort_keys=True))
            else:
                for layer in LAYERS:
                    info = summary[layer]
                    print(f"  {layer:<12} kept {info['kept']}, "
                          f"evicted {info['evicted']}, "
                          f"{info['bytes']} bytes")
            return EXIT_OK
        dropped = store.clear()
        print(f"cleared {dropped} entries from {directory}")
        return EXIT_OK
    finally:
        store.close()


def _feam_matrix(args) -> int:
    from repro import obs

    with RunContext(args) as run:
        run.announce()
        # Always run under a collector: the run-ledger rollup distils
        # its phase latency digests and retry counters from the metrics
        # snapshot.  Stdout is unchanged, so determinism gates hold.
        with obs.capture() as collector:
            result = run.evaluate(wide_sink=run.wide_sink)
        if args.trace_out:
            obs.export.write_jsonl(args.trace_out, collector)
            print(f"trace written to {args.trace_out} "
                  f"({len(collector.spans)} spans)", file=sys.stderr)
        print(result.render(verbose=args.verbose))
        run.finish(result, collector, kind="matrix")
    return EXIT_OK


def _resolve_fault_plan(spec: str, seed: int):
    """A FaultPlan from a built-in name or a profile file."""
    from repro.sysmodel import faults as faults_mod

    if spec in faults_mod.PROFILES:
        return faults_mod.FaultPlan.profile(spec, seed=seed)
    if not os.path.exists(spec):
        raise CliError(
            f"unknown fault profile {spec!r}; built-in: "
            f"{', '.join(sorted(faults_mod.PROFILES))} (or give a "
            f"profile file)")
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            text = handle.read()
        return faults_mod.FaultPlan.parse(
            text, seed=seed, name=os.path.basename(spec))
    except OSError as exc:
        raise CliError(f"cannot read fault profile {spec!r}: {exc}") \
            from None
    except ValueError as exc:
        raise CliError(f"bad fault profile {spec!r}: {exc}") from None


def _chaos_summary(plan, engine, result, counters: dict) -> dict:
    """The JSON-ready fault/retry/breaker summary of one chaos run."""
    cells = list(result.cells)
    return {
        "plan": plan.summary(),
        "matrix": {
            "cells": len(cells),
            "faulted_cells": sum(1 for cell in cells if cell.faulted),
            "quarantined_sites": sorted(result.quarantined),
        },
        "retries": counters.get("resilience.retries.total", 0),
        "cells_degraded": counters.get("resilience.cells.faulted", 0),
        "quarantine_skips": counters.get(
            "resilience.cells.quarantined", 0),
        "rollbacks": counters.get("resolution.rollbacks", 0),
        "breakers": engine.site_health(),
    }


def _render_chaos_summary(summary: dict) -> str:
    plan = summary["plan"]
    matrix = summary["matrix"]
    lines = ["chaos summary",
             "-------------",
             f"profile: {plan['profile']} (seed {plan['seed']})",
             f"faults injected: {plan['injected']}"]
    for kind, count in sorted(plan["by_kind"].items()):
        lines.append(f"  {kind:<20} {count:>4}")
    lines.append(
        f"cells: {matrix['cells']} evaluated, "
        f"{matrix['faulted_cells']} degraded to unknown")
    lines.append(f"retries: {summary['retries']}")
    lines.append(f"quarantine skips: {summary['quarantine_skips']}")
    if summary["rollbacks"]:
        lines.append(f"staging rollbacks: {summary['rollbacks']}")
    lines.append("breakers:")
    for site, state in sorted(summary["breakers"].items()):
        lines.append(f"  {site:<12} {state}")
    return "\n".join(lines)


def _chaos_alerts(alert_feed, timeline) -> None:
    """Replay a chaos run's wide events through the alert engine.

    Injected faults must *visibly* trip alerts: the summary goes on
    stdout right after the chaos table.  The chaos determinism gate
    byte-compares same-seed stdout, so everything printed here is
    derived from the wide events alone (logical ticks, no wall
    clocks).
    """
    from repro.obs import alerts as alerts_mod

    engine = alerts_mod.AlertEngine(
        sinks=[timeline] if timeline is not None else [], emit_obs=False)
    alerts_mod.replay_wide(alert_feed.events(), engine)
    engine.close()
    print()
    print("alerts")
    print("------")
    print(alerts_mod.render_alerts(engine))
    if timeline is not None:
        print(f"timeline: {len(engine.transitions)} transition(s) "
              f"appended to {timeline.path}", file=sys.stderr)


def _feam_chaos(args) -> int:
    import json

    from repro import obs
    from repro.core.engine import injecting_faults
    from repro.obs.wide import WideEventSink

    plan = _resolve_fault_plan(args.profile, args.seed)
    with RunContext(args) as run:
        print(f"injecting fault profile {plan.name!r} "
              f"({len(plan.specs)} spec(s), seed {plan.seed}); "
              f"evaluating {len(run.binaries)} binaries x "
              f"{len(run.sites)} sites...", file=sys.stderr)
        # An internal in-memory wide sink feeds the post-run alert
        # replay when the user did not ask for --wide-out; the ledger
        # still sees only the user's sink, so manifests are unchanged.
        alert_feed = (run.wide_sink if run.wide_sink is not None
                      else WideEventSink())
        with obs.capture() as collector, \
                injecting_faults(plan, run.sites):
            result = run.evaluate(wide_sink=alert_feed)
        print(result.render(verbose=args.verbose))
        print()
        counters = collector.metrics.to_dict()["counters"]
        summary = _chaos_summary(plan, run.engine, result, counters)
        print(_render_chaos_summary(summary))
        _chaos_alerts(alert_feed, run.timeline)
        run.finish(result, collector, kind="chaos",
                   fault_profile=plan.name)
        if args.summary_out:
            with open(args.summary_out, "w", encoding="utf-8") as handle:
                json.dump(summary, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"summary written to {args.summary_out}",
                  file=sys.stderr)
    return EXIT_OK


def _feam_stats(args) -> int:
    from repro import obs

    with RunContext(args) as run:
        run.announce()
        with obs.capture() as collector:
            run.evaluate()
    print(collector.metrics.render(limit=max(1, args.top)))
    return EXIT_OK


def _feam_trace(args) -> int:
    from repro import obs
    from repro.core.feam import Feam
    from repro.sites.catalog import build_paper_sites
    from repro.toolchain.compilers import Language

    if args.trace_out:
        _open_output("trace file", args.trace_out)
    print("building the paper's five sites...", file=sys.stderr)
    sites = {s.name: s for s in build_paper_sites(args.seed)}
    for role, name in (("build", args.build_site),
                       ("target", args.target_site)):
        if name not in sites:
            raise CliError(f"unknown {role} site {name!r}; choose from "
                           f"{', '.join(sorted(sites))}")
    build_site = sites[args.build_site]
    target = sites[args.target_site]
    if args.stack is not None:
        stack = next((s for s in build_site.stacks
                      if s.spec.slug == args.stack), None)
        if stack is None:
            raise CliError(
                f"no stack {args.stack!r} at {build_site.name}; choose "
                f"from {', '.join(s.spec.slug for s in build_site.stacks)}")
    else:
        stack = build_site.stacks[0]
    name = f"traced-{build_site.name}-{stack.spec.slug}"
    linked = build_site.compile_mpi_program(name, Language.FORTRAN, stack)
    path = f"/home/user/{name}"
    build_site.machine.fs.write(path, linked.image, mode=0o755)

    feam = Feam()
    bundle = None
    if not args.basic:
        print(f"source phase at {build_site.name}...", file=sys.stderr)
        bundle = feam.run_source_phase(
            build_site, path, env=build_site.env_with_stack(stack))
    target.machine.fs.write(path, linked.image, mode=0o755)
    print(f"target phase at {target.name} "
          f"({'basic' if args.basic else 'extended'})...", file=sys.stderr)
    with obs.capture() as collector:
        report = feam.run_target_phase(
            target, binary_path=path, bundle=bundle)
    print(obs.export.render_span_tree(collector.spans))
    print()
    verdict = "READY" if report.ready else "NOT READY"
    print(f"verdict: {verdict} "
          f"({len(collector.spans)} spans, "
          f"{len(collector.events.events)} events)")
    for reason in report.prediction.reasons:
        print(f"  reason: {reason}")
    if args.trace_out:
        obs.export.write_jsonl(args.trace_out, collector)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    return EXIT_OK


def _load_trace_spans(path: str):
    """Spans from a JSONL trace."""
    from repro.obs.analyze import spans_from_jsonl_file

    try:
        return spans_from_jsonl_file(path)
    except OSError as exc:
        raise CliError(f"cannot read trace {path!r}: {exc}") from None
    except ValueError as exc:
        raise CliError(f"malformed trace {path!r}: {exc}") from None


def _feam_top(args) -> int:
    from repro.obs import analyze

    spans = _load_trace_spans(args.trace)
    prof = analyze.profile(spans)
    print(analyze.render_top(prof, sort=args.sort, limit=args.limit))
    if args.critical_path:
        print()
        print(analyze.render_critical_path(
            analyze.critical_path(spans, clock=args.clock),
            clock=args.clock))
    return EXIT_OK


def _feam_diff_trace(args) -> int:
    from repro.obs import analyze

    base = analyze.profile(_load_trace_spans(args.base))
    curr = analyze.profile(_load_trace_spans(args.curr))
    deltas = analyze.diff_profiles(base, curr)
    print(analyze.render_diff(deltas, limit=args.limit))
    if args.fail_above is None:
        return EXIT_OK

    regressions: list[str] = []
    base_wall = sum(f.wall_total for f in base.frames.values())
    curr_wall = sum(f.wall_total for f in curr.frames.values())
    if base_wall > 0 and curr_wall > base_wall * args.fail_above:
        regressions.append(
            f"total wall {base_wall:.4f}s -> {curr_wall:.4f}s "
            f"({curr_wall / base_wall:.2f}x > {args.fail_above:g}x)")
    for delta in deltas:
        ratio = delta.wall_ratio
        if (ratio is not None and delta.base is not None
                and delta.base.wall_total >= args.min_wall
                and ratio > args.fail_above):
            regressions.append(
                f"{delta.name}: {delta.base.wall_total:.4f}s -> "
                f"{delta.curr.wall_total if delta.curr else 0.0:.4f}s "
                f"({ratio:.2f}x > {args.fail_above:g}x)")
    if regressions:
        print(f"\nREGRESSION (gate {args.fail_above:g}x):",
              file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return EXIT_REGRESSION
    print(f"\nregression gate {args.fail_above:g}x: ok", file=sys.stderr)
    return EXIT_OK


def _load_slo_rules(path: Optional[str]):
    """Rules from *path*, or the built-in defaults for None."""
    from repro.obs import slo as slo_mod

    if path is None:
        return slo_mod.DEFAULT_RULES
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return slo_mod.parse_rules(handle.read())
    except OSError as exc:
        raise CliError(f"cannot read rules {path!r}: {exc}") from None
    except ValueError as exc:
        raise CliError(f"bad rules file {path!r}: {exc}") from None


def _feam_slo(args) -> int:
    import json

    from repro import obs
    from repro.obs import slo as slo_mod

    rules = _load_slo_rules(args.rules)
    if args.trace:
        try:
            with open(args.trace, "r", encoding="utf-8") as handle:
                parsed = obs.export.parse_jsonl(handle.read())
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read trace {args.trace!r}: {exc}") \
                from None
        report = slo_mod.evaluate(rules, parsed.metrics)
    else:
        rounds = max(1, args.rounds)
        with RunContext(args) as run, obs.capture():
            run.announce(rounds)
            for _ in range(rounds):
                run.evaluate()
            report = slo_mod.check(rules)

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return EXIT_OK if report.ok else EXIT_SLO_VIOLATION


def _feam_watch(args) -> int:
    import threading
    import time as time_mod

    from repro import obs
    from repro.obs import watch as watch_mod

    interval = max(0.1, args.interval)
    out = sys.stdout
    tty = out.isatty()
    renderer = watch_mod.InPlaceRenderer(out) if tty else None
    state = watch_mod.WatchState()

    def draw(snap: dict, total_cells=None) -> None:
        before = state.advance(snap, interval)
        if tty:
            renderer.draw(watch_mod.render_frame(
                snap, before, interval, state.elapsed, total_cells))
        else:
            print(watch_mod.render_line(
                snap, before, interval, state.elapsed, total_cells),
                flush=True)

    if args.attach:
        import json as json_mod
        from urllib.request import urlopen

        base = args.attach.rstrip("/")
        deadline = (time_mod.monotonic() + args.duration
                    if args.duration is not None else None)
        misses = 0
        connected = False
        print(f"watching {base}/snapshot every {interval:g}s",
              file=sys.stderr)
        try:
            while True:
                try:
                    with urlopen(f"{base}/snapshot", timeout=5) as resp:
                        snap = json_mod.load(resp)
                    misses = 0
                    connected = True
                except (OSError, ValueError) as exc:
                    if not connected:
                        # Never reached at all: fail immediately with
                        # one clean line instead of polling a server
                        # that was wrong to begin with.
                        raise CliError(f"cannot reach {base}: {exc}") \
                            from None
                    misses += 1
                    if misses >= 3:
                        raise CliError(f"lost {base}: {exc}") from None
                    snap = state.previous or {}
                draw(snap)
                if deadline is not None \
                        and time_mod.monotonic() >= deadline:
                    return EXIT_OK
                time_mod.sleep(interval)
        except KeyboardInterrupt:
            return EXIT_OK

    # Drive mode: run the matrix in a worker thread and render the
    # installed collector's snapshots until it finishes.
    results: list = []
    failures: list = []
    with RunContext(args) as run:
        total_cells = len(run.binaries) * len(run.sites)
        run.announce()

        def evaluate() -> None:
            try:
                results.append(run.evaluate())
            except BaseException as exc:  # surfaced on the main thread
                failures.append(exc)

        with obs.capture() as collector:
            thread = threading.Thread(target=evaluate,
                                      name="feam-watch-matrix",
                                      daemon=True)
            thread.start()
            try:
                while thread.is_alive():
                    thread.join(interval)
                    draw(watch_mod.sample(collector), total_cells)
            except KeyboardInterrupt:
                raise CliError("interrupted; abandoning the matrix run") \
                    from None
    if failures:
        raise CliError(f"matrix run failed: {failures[0]}")
    result = results[0]
    ready = sum(1 for c in result.cells if c.outcome_word == "ready")
    unknown = sum(1 for c in result.cells if c.outcome_word == "unknown")
    print(f"done: {len(result.cells)} cells, {ready} ready, "
          f"{unknown} unknown, {len(result.cells) - ready - unknown} no")
    return EXIT_OK


def _feam_query(args) -> int:
    import json as json_mod

    from repro.obs import store as store_mod
    from repro.obs import wide as wide_mod

    try:
        records = wide_mod.read_jsonl(args.events)
    except OSError as exc:
        raise CliError(f"cannot read wide events {args.events!r}: "
                       f"{exc}") from None
    except ValueError as exc:
        raise CliError(f"bad wide events {args.events!r}: {exc}") \
            from None
    try:
        where = [store_mod.parse_where(clause) for clause in args.where]
        aggs = [store_mod.parse_agg(spec) for spec in args.agg]
    except ValueError as exc:
        raise CliError(str(exc)) from None
    result = store_mod.run_query(records, where=where, by=args.by,
                                 aggs=aggs, top=max(1, args.top))
    if args.json:
        print(json_mod.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(store_mod.render_result(result, where=where))
    return EXIT_OK


def _render_runs_table(shown: list, matched: int, total: int,
                       ledger) -> str:
    """The ``feam runs`` listing (oldest first, newest last)."""
    from repro.obs.ledger import run_cells

    lines = [f"run ledger {ledger.path}: {matched}/{total} run(s) match"]
    if not shown:
        lines.append("(no runs)")
        return "\n".join(lines)
    rows = []
    for run in shown:
        rollup = run.get("rollup") or {}
        outcomes = rollup.get("outcomes") or {}
        cells = run_cells(run)
        summary = (f"{outcomes.get('ready', 0)}r/"
                   f"{outcomes.get('unknown', 0)}u/"
                   f"{outcomes.get('no', 0)}n" if outcomes else "-")
        sim = (rollup.get("sim") or {}).get("mean")
        rows.append((str(run.get("run_id", "?")),
                     str(run.get("kind", "?")),
                     str(run.get("ts", "?")),
                     str(run.get("seed", "-")),
                     "-" if cells is None else str(cells),
                     summary,
                     "-" if sim is None else f"{sim:.4g}"))
    headers = ("run_id", "kind", "ts", "seed", "cells", "outcomes",
               "sim_mean")
    widths = [max(len(headers[i]), max(len(row[i]) for row in rows))
              for i in range(len(headers))]
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _feam_runs(args) -> int:
    import json as json_mod

    from repro.obs import ledger as ledger_mod
    from repro.obs import store as store_mod

    ledger = ledger_mod.RunLedger(args.ledger)
    tokens = list(args.action)
    action = tokens[0] if tokens else "list"
    if action == "show":
        if len(tokens) != 2:
            raise CliError("usage: feam runs show REF")
        try:
            run = ledger.resolve(tokens[1])
        except (OSError, ValueError) as exc:
            raise CliError(str(exc)) from None
        print(json_mod.dumps(run, indent=2, sort_keys=True))
        return EXIT_OK
    if action != "list" or len(tokens) > 1:
        raise CliError(f"unknown feam runs action {tokens!r} (expected "
                       f"'list' or 'show REF')")
    try:
        where = [store_mod.parse_where(clause) for clause in args.where]
    except ValueError as exc:
        raise CliError(str(exc)) from None
    runs = ledger.runs()
    # --where reuses the wide-event predicate machinery over the
    # flattened manifest (kind=chaos, rollup.cells>=20, ...).
    matched = [run for run in runs
               if all(clause.matches(ledger_mod.flatten(run))
                      for clause in where)]
    shown = matched[-max(1, args.top):]
    if args.json:
        print(json_mod.dumps(shown, indent=2, sort_keys=True))
    else:
        print(_render_runs_table(shown, len(matched), len(runs), ledger))
    return EXIT_OK


def _feam_compare(args) -> int:
    import json as json_mod

    from repro.obs import compare as compare_mod
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger)
    try:
        base = ledger.resolve(args.base)
        curr = ledger.resolve(args.curr)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from None
    comparison = compare_mod.compare_runs(base, curr)
    regressions = (compare_mod.gate(comparison, args.fail_above)
                   if args.fail_above is not None else [])
    if args.json:
        payload = dict(comparison)
        if args.fail_above is not None:
            payload["fail_above"] = args.fail_above
            payload["regressions"] = regressions
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
    else:
        print(compare_mod.render_comparison(
            comparison, fail_above=args.fail_above))
    return EXIT_REGRESSION if regressions else EXIT_OK


def _feam_drift(args) -> int:
    import json as json_mod

    from repro.obs import compare as compare_mod
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger)
    rules = () if args.rules is None else _load_slo_rules(args.rules)
    try:
        report = compare_mod.drift(
            ledger.runs(), window=args.window,
            tolerance=args.tolerance, rules=rules)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.json:
        print(json_mod.dumps(report, indent=2, sort_keys=True))
    else:
        print(compare_mod.render_drift(report))
    return EXIT_OK if report["slo_ok"] else EXIT_SLO_VIOLATION


def _detect_anomalies(records, args, engine) -> int:
    """One anomaly-detector pass over wide events, folded into the
    alert engine; returns how many anomalies it raised."""
    from repro.core.engine import anomaly_features
    from repro.obs import anomaly as anomaly_mod

    threshold = (args.anomaly_threshold
                 if args.anomaly_threshold is not None
                 else anomaly_mod.DEFAULT_THRESHOLD)
    min_groups = (args.min_groups if args.min_groups is not None
                  else anomaly_mod.MIN_GROUPS)
    anomalies = anomaly_mod.detect(
        records, anomaly_features, threshold=threshold,
        seed=args.seed, min_groups=min_groups)
    engine.observe_anomalies(anomalies)
    return len(anomalies)


def _feam_alerts(args) -> int:
    import json as json_mod

    from repro import obs
    from repro.obs import alerts as alerts_mod
    from repro.obs import wide as wide_mod

    try:
        windows = (alerts_mod.BurnWindows.parse(args.burn)
                   if args.burn else alerts_mod.BurnWindows())
    except ValueError as exc:
        raise CliError(str(exc)) from None
    slos = None if args.rules is None else _load_slo_rules(args.rules)

    def alert_engine(default_slos, timeline):
        """An armed AlertEngine: the timeline (if any), then stderr."""
        rules = alerts_mod.alert_rules(
            default_slos if slos is None else slos, windows=windows,
            for_ticks=max(1, args.for_ticks))
        sinks = [] if timeline is None else [timeline]
        return alerts_mod.AlertEngine(
            rules, sinks=sinks + [alerts_mod.StderrSink()])

    if args.replay:
        try:
            records = wide_mod.read_jsonl(args.replay)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read {args.replay!r}: {exc}") \
                from None
        if not records:
            raise CliError(f"{args.replay}: no records to replay")
        timeline = (_open_output("timeline", args.timeline,
                                 alerts_mod.JsonlSink)
                    if args.timeline else None)
        if "rollup" in records[0]:
            # Ledger manifests: one run = one tick, rollup.* rules.
            engine = alert_engine(alerts_mod.DEFAULT_LEDGER_SLOS,
                                  timeline)
            ticks = alerts_mod.replay_ledger(records, engine)
            print(f"replayed {len(records)} ledger run(s) as "
                  f"{ticks} tick(s)", file=sys.stderr)
        else:
            engine = alert_engine(alerts_mod.DEFAULT_ALERT_SLOS,
                                  timeline)
            ticks = alerts_mod.replay_wide(records, engine,
                                           batch=max(1, args.batch))
            raised = _detect_anomalies(records, args, engine)
            print(f"replayed {len(records)} wide event(s) as {ticks} "
                  f"tick(s); anomaly detector raised {raised}",
                  file=sys.stderr)
    else:
        # Live drive mode: each matrix round is one evaluation tick;
        # an internal wide sink feeds the anomaly detector at the end.
        rounds = max(1, args.rounds)
        with RunContext(args) as run:
            engine = alert_engine(alerts_mod.DEFAULT_ALERT_SLOS,
                                  run.timeline)
            wide_sink = wide_mod.WideEventSink()
            run.announce(rounds)
            with obs.capture():
                for _ in range(rounds):
                    run.evaluate(wide_sink=wide_sink)
                    engine.observe(obs.metrics().to_dict())
            raised = _detect_anomalies(wide_sink.events(), args, engine)
            print(f"{engine.tick} evaluation tick(s); anomaly detector "
                  f"raised {raised}", file=sys.stderr)

    if args.timeline:
        print(f"timeline: {len(engine.transitions)} transition(s) "
              f"appended to {args.timeline}", file=sys.stderr)
    engine.close()
    if args.json:
        print(json_mod.dumps(engine.to_dict(), indent=2,
                             sort_keys=True))
    else:
        print(alerts_mod.render_alerts(engine))
    return EXIT_SLO_VIOLATION if engine.firing else EXIT_OK


def _feam_serve(args) -> int:
    import time as time_mod

    from repro import obs
    from repro.obs import slo as slo_mod
    from repro.obs.serve import TelemetryServer

    rules = _load_slo_rules(args.rules)
    rounds = max(1, args.rounds)
    with RunContext(args) as run, obs.capture() as collector:
        try:
            server = TelemetryServer(collector, host=args.host,
                                     port=args.port, rules=rules,
                                     ledger=run.ledger)
        except OSError as exc:
            raise CliError(f"cannot bind {args.host}:{args.port}: "
                           f"{exc}") from None
        with server:
            print(f"serving {server.url}/metrics (+ /healthz /trace "
                  f"/slo /alerts /snapshot /runs)", file=sys.stderr)
            run.announce(rounds)
            for _ in range(rounds):
                run.evaluate()
            report = slo_mod.check(rules)
            print(report.render(), file=sys.stderr)
            try:
                if args.linger < 0:
                    print("run finished; still serving -- Ctrl-C to "
                          "stop", file=sys.stderr)
                    while True:
                        time_mod.sleep(3600)
                elif args.linger:
                    time_mod.sleep(args.linger)
            except KeyboardInterrupt:
                pass
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "feam":
        return feam_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the FEAM paper's tables and figures.")
    parser.add_argument(
        "what", nargs="+",
        choices=sorted(_STATIC) + sorted(_EXPERIMENTAL) + ["all"],
        help="which artifact(s) to regenerate")
    parser.add_argument(
        "--seed", type=int, default=20130101,
        help="experiment seed (default: 20130101)")
    parser.add_argument(
        "--trace-out", metavar="FILE.jsonl", default=None,
        help="write the evaluation run's observability trace as JSONL")
    args = parser.parse_args(argv)

    wanted = list(args.what)
    if "all" in wanted:
        wanted = sorted(_STATIC) + sorted(_EXPERIMENTAL)
    if args.trace_out and any(what in _EXPERIMENTAL for what in wanted):
        try:
            _open_output("trace file", args.trace_out)
        except CliError as exc:
            print(exc, file=sys.stderr)
            return EXIT_FAILURE

    result: Optional[ExperimentResult] = None
    for what in wanted:
        if what in _STATIC:
            print(_STATIC[what]())
        else:
            if result is None:
                print("running the full evaluation "
                      "(compile matrix + 800+ migrations)...",
                      file=sys.stderr)
                from repro import obs
                from repro.evaluation.experiment import ExperimentConfig
                # The experiment always runs traced: the report's
                # observability section and --trace-out read from the
                # collector; the spans cost a few percent of a run that
                # is dominated by simulated compilation and execution.
                with obs.capture() as collector:
                    result = run_experiment(ExperimentConfig(seed=args.seed))
                if args.trace_out:
                    obs.export.write_jsonl(args.trace_out, collector)
                    print(f"trace written to {args.trace_out} "
                          f"({len(collector.spans)} spans)",
                          file=sys.stderr)
            print(_EXPERIMENTAL[what](result))
    return 0


def _run(entry: "Callable[[], int]") -> int:
    """Run a CLI entry point tolerating a closed stdout.

    ``feam top trace.jsonl | head`` closes the pipe early; dying with a
    BrokenPipeError traceback (and a nonzero status that would trip the
    exit-code contract) is wrong for a filter-friendly CLI.
    """
    try:
        return entry()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


def console_main() -> int:
    """``feam`` console-script entry point."""
    return _run(feam_main)


if __name__ == "__main__":
    raise SystemExit(_run(main))
