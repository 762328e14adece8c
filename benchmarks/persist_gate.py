"""The CI persist gate: prove the crash-safe cache contract.

Four clauses, run against one shared ``--cache-dir``:

1. **warm start** -- a second *fresh-process* paper matrix against the
   same cache directory must serve >= 90% of its evaluation cells from
   the persistent store and spend at least ``--speedup``x less wall
   time inside ``evaluate_matrix`` than the cold run that filled it.
   Fresh processes matter: an in-process rerun would be served by the
   engine's in-memory tier and prove nothing about the disk.
2. **byte identity** -- the warm run's rendered matrix (grid, summary,
   outcomes; everything except the run-shape ``cache:`` stats line)
   must be byte-identical to the cold run's.  A cache that changes
   answers is worse than no cache.
3. **quarantine** -- after a mid-file evaluation record is byte-flipped,
   the next fresh-process run must quarantine it (counted in
   ``persist.cache.quarantined``), recompute the cell, and still render
   the identical matrix.  Poison degrades to work, never to wrong.
4. **fsck** -- ``feam cache verify`` must exit nonzero on the corrupted
   store and 0 again after ``feam cache compact`` rewrites it.

Cold, warm and poisoned runs are each one fresh
``python -m repro feam matrix --cache-dir DIR --no-ledger --trace-out
FILE`` process, so every run crosses a real process boundary exactly
like consecutive CI jobs or separate developer runs would.  The gate reads
the grid and the ``cache:`` line from its stdout, and the
``engine.matrix`` span's wall time and the ``persist.*`` counters from
its trace.

Exit codes: 0 ok, 1 contract violation, 3 speedup budget blown.
Artifact: ``persist_gate.json``, uploaded by the ``persist-gate`` job.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

from repro.obs.export import parse_jsonl

SEED = 20130101

EXIT_OK = 0
EXIT_FAILURE = 1      # persistence contract violated
EXIT_REGRESSION = 3   # warm speedup budget blown

_CACHE_LINE = re.compile(
    r"^cache: description (\d+)/(\d+) hit, discovery (\d+)/(\d+) hit, "
    r"evaluation (\d+)/(\d+) hit$", re.MULTILINE)


def _feam(*argv: str, timeout: int = 120) -> subprocess.CompletedProcess:
    """One ``feam`` verb in a fresh interpreter, $FEAM_CACHE_DIR unset."""
    env = dict(os.environ)
    env.pop("FEAM_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", "feam", *argv],
        env=env, capture_output=True, text=True, timeout=timeout)


def _matrix_run(kind: str, cache_dir: str, workdir: str) -> dict:
    """One fresh-process paper matrix against *cache_dir*."""
    trace = os.path.join(workdir, f"persist_trace_{kind}.jsonl")
    proc = _feam("matrix", "--seed", str(SEED), "--cache-dir", cache_dir,
                 "--no-ledger", "--trace-out", trace, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} run failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    with open(trace, "r", encoding="utf-8") as handle:
        parsed = parse_jsonl(handle.read())
    (matrix,) = [span for span in parsed.spans
                 if span.name == "engine.matrix"]
    counts = [int(n) for n in _CACHE_LINE.search(proc.stdout).groups()]
    rows = proc.stdout.splitlines()[3:]
    return {
        "wall_seconds": matrix.wall_seconds,
        "cells": matrix.attrs["cells"],
        "rendered": proc.stdout,
        # Grid rows run binary-major, one word per site column.
        "outcomes": [word for row in rows[:rows.index("")]
                     for word in row.split()[1:]],
        "stats": {
            "evaluation_hits": counts[4],
            "evaluation_misses": counts[5] - counts[4],
            "discovery_hits": counts[2],
            "description_hits": counts[0],
        },
        "counters": {key: value for key, value
                     in parsed.metrics["counters"].items()
                     if key.startswith("persist.")},
    }


def _feam_cache(verb: str, cache_dir: str) -> int:
    return _feam("cache", verb, "--cache-dir", cache_dir).returncode


def _grid(rendered: str) -> list[str]:
    """The rendered matrix minus its run-varying ``cache:`` line."""
    return [line for line in rendered.splitlines()
            if not line.startswith("cache:")]


def _flip_midfile_record(cache_dir: str) -> bool:
    """Corrupt the first evaluation record in place (not the tail)."""
    path = os.path.join(cache_dir, "evaluation.jsonl")
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if len(lines) < 2:
        return False
    lines[0] = lines[0].replace('"payload"', '"pwnload"', 1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return True


def run_gate(cache_dir: str, report_out: str, speedup: float,
             min_hit_rate: float) -> int:
    failures: list[str] = []
    workdir = os.path.dirname(os.path.abspath(report_out)) or "."
    shutil.rmtree(cache_dir, ignore_errors=True)

    cold = _matrix_run("cold", cache_dir, workdir)
    warm = _matrix_run("warm", cache_dir, workdir)

    # 1. Warm start: hit rate and wall-time speedup.
    cells = warm["cells"]
    hit_rate = warm["stats"]["evaluation_hits"] / max(1, cells)
    if hit_rate < min_hit_rate:
        failures.append(
            f"warm start: evaluation hit rate {hit_rate:.2f} < "
            f"{min_hit_rate:.2f} "
            f"({warm['stats']['evaluation_hits']}/{cells} cells)")
    achieved = cold["wall_seconds"] / max(warm["wall_seconds"], 1e-9)
    blown = achieved < speedup

    # 2. Byte identity, warm vs cold.
    if _grid(warm["rendered"]) != _grid(cold["rendered"]):
        failures.append("byte identity: warm rendered matrix differs "
                        "from the cold run's")

    # 3 + 4. Poison the store: fsck flags it, the run shrugs it off.
    if not _flip_midfile_record(cache_dir):
        failures.append("quarantine: store too small to corrupt "
                        "mid-file")
    verify_corrupt = _feam_cache("verify", cache_dir)
    if verify_corrupt == 0:
        failures.append("fsck: feam cache verify exited 0 on a "
                        "corrupted store")

    poisoned = _matrix_run("poisoned", cache_dir, workdir)
    quarantined = poisoned["counters"].get("persist.cache.quarantined",
                                           0)
    if quarantined < 1:
        failures.append("quarantine: poisoned run quarantined nothing")
    if _grid(poisoned["rendered"]) != _grid(cold["rendered"]):
        failures.append("quarantine: poisoned run's rendered matrix "
                        "differs from the cold run's")
    if poisoned["outcomes"] != cold["outcomes"]:
        failures.append("quarantine: poisoned run changed cell "
                        "outcomes")

    compact_exit = _feam_cache("compact", cache_dir)
    if compact_exit != 0:
        failures.append(f"fsck: feam cache compact exited "
                        f"{compact_exit}")
    verify_clean = _feam_cache("verify", cache_dir)
    if verify_clean != 0:
        failures.append(f"fsck: feam cache verify exited "
                        f"{verify_clean} after compact, want 0")

    payload = {
        "seed": SEED,
        "cache_dir": cache_dir,
        "cells": cells,
        "cold": {"wall_seconds": round(cold["wall_seconds"], 4),
                 "stats": cold["stats"]},
        "warm": {"wall_seconds": round(warm["wall_seconds"], 4),
                 "stats": warm["stats"],
                 "hit_rate": round(hit_rate, 4),
                 "speedup": round(achieved, 2),
                 "speedup_budget": speedup,
                 "grid_identical":
                     _grid(warm["rendered"]) == _grid(cold["rendered"])},
        "poisoned": {"quarantined": quarantined,
                     "counters": poisoned["counters"],
                     "outcomes_identical":
                         poisoned["outcomes"] == cold["outcomes"]},
        "fsck": {"verify_corrupt_exit": verify_corrupt,
                 "compact_exit": compact_exit,
                 "verify_clean_exit": verify_clean},
        "failures": failures,
    }
    with open(report_out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"persist gate: warm hit rate {hit_rate:.2f}, speedup "
          f"x{achieved:.1f} (budget x{speedup:.1f}), quarantined "
          f"{quarantined}, fsck {verify_corrupt}->{verify_clean}  "
          f"-> {report_out}")
    for failure in failures:
        print(f"PERSIST GATE: {failure}")
    if failures:
        return EXIT_FAILURE
    if blown:
        print(f"PERSIST GATE: warm run only x{achieved:.1f} faster "
              f"than cold (budget x{speedup:.1f})")
        return EXIT_REGRESSION
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate the persistent-cache durability contract.")
    parser.add_argument("--cache-dir", default=".ci-persist-cache",
                        help="cache directory (wiped at start)")
    parser.add_argument("--report-out", default="persist_gate.json",
                        help="gate report artifact path")
    parser.add_argument("--speedup", type=float, default=5.0,
                        help="required cold/warm evaluate_matrix wall "
                             "ratio (default: 5.0)")
    parser.add_argument("--min-hit-rate", type=float, default=0.9,
                        help="required warm evaluation hit rate "
                             "(default: 0.9)")
    args = parser.parse_args(argv)
    return run_gate(args.cache_dir, args.report_out, args.speedup,
                    args.min_hit_rate)


if __name__ == "__main__":
    raise SystemExit(main())
