"""Run one workload of the FEAM readiness benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload fleet-cold --seed 7 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs one untraced and one traced cycle and prints the per-layer table
(and writes every span to ``.perfbench_out/``).  The human-readable
table goes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and pitfalls.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("fleet-cold", "fleet-warm", "paper-table3")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 7 for the fleet "
                             "workloads, 20130101 for paper-table3)")
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="measured time to repeat passes for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed outcomes into "
                             "perfbench/reference.json and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no FEAM sources under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    # Keep the run ledger and any cache the program opens by default
    # out of the checkout's tracked state.
    os.environ["FEAM_LEDGER_DIR"] = os.path.join(workdir, "ledger")
    os.environ["FEAM_CACHE_DIR"] = os.path.join(workdir, "cache")
    try:
        import workloads

        if args.write_reference:
            workloads.write_reference(workdir)
            print(f"wrote {workloads.REFERENCE_PATH}", file=sys.stderr)
            return 0
        seed = (workloads.DEFAULT_SEEDS[args.workload] if args.seed is None
                else args.seed)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-{seed}.tsv"
            metrics, attempted, failed = workloads.per_layer(
                args.workload, seed, workdir, str(trace_path))
            print(f"spans written to {trace_path}", file=sys.stderr)
        else:
            metrics, attempted, failed = workloads.end_to_end(
                args.workload, seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed={seed} trace={args.trace}: "
          f"{attempted - failed}/{attempted} cells ok")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
