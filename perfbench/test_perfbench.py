"""Self-test of the readiness benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests/``).  From the
repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

It runs every workload's traced run twice, each in a fresh process,
and takes about five minutes.

Why every workload uses ``workers=1``: with two workers, two workers
racing on one binary can both miss the description cache, both
describe it and both store the record.  Two runs of one fleet at
``workers=2`` have been seen writing ``description.jsonl`` at 4,164
and 5,225 bytes.  The race is rare (two runs of the 150-site fleet at
``workers=2`` both wrote 4,164 bytes), so it cannot be tested for;
only a serial evaluation makes every per-layer count repeat exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Count metrics each workload must drive above zero: the workload the
#: README's layer table names for each wrapped layer.  A zero here
#: means a wrapper missed an import binding.
EXERCISED = {
    "fleet-cold": (
        "sites.generator.templates", "corpus.binaries", "elf.writer.calls",
        "elf.reader.calls", "sysmodel.fs.read.calls",
        "sysmodel.machine.read_elf.calls", "sysmodel.loader.resolve.calls",
        "tools.toolbox.ldd.calls", "core.discovery.calls",
        "core.description.calls", "core.determinants.isa.calls",
        "core.determinants.libc.calls", "core.determinants.mpi.calls",
        "core.determinants.libraries.calls", "core.persist.load.calls",
        "core.persist.store.calls", "core.persist.bytes_on_disk",
        "obs.spans"),
    "fleet-warm": (
        "sites.generator.templates", "core.persist.load.calls",
        "core.persist.bytes_on_disk", "obs.spans"),
    "paper-table3": (
        "corpus.binaries", "elf.reader.calls",
        "sysmodel.loader.resolve.calls", "core.description.calls",
        "core.description.copies", "core.determinants.isa.calls",
        "core.determinants.libraries.calls", "core.resolution.calls",
        "core.resolution.copies", "mpi.runtime.run.calls",
        "evaluation.migrations"),
}


def _run(workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--trace", "1"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _result(workload: str) -> dict:
    done = _run(workload)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(EXERCISED))
def traced_pair(request):
    return request.param, _result(request.param), _result(request.param)


def _counts(result: dict) -> dict:
    """Every metric that is not a wall-clock reading."""
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] != "s"
            and name != "bench.trace_overhead_pct"}


def test_traced_runs_repeat_counts_exactly(traced_pair):
    workload, first, second = traced_pair
    assert first["correct"] and second["correct"], workload
    assert _counts(first) == _counts(second)


def test_every_layer_is_exercised(traced_pair):
    workload, first, _ = traced_pair
    values = _counts(first)
    idle = [name for name in EXERCISED[workload] if not values[name]]
    assert not idle, f"{workload}: no calls recorded for {idle}"
    assert values["core.resilience.retries"] == 0
    assert values["core.resilience.faults"] == 0
    assert "bench.trace_overhead_pct" in first["metrics"]


def test_workload_sanity(traced_pair):
    workload, first, _ = traced_pair
    values = _counts(first)
    if workload == "fleet-cold":
        self_s = {name: metric["value"]
                  for name, metric in first["metrics"].items()
                  if name.endswith(".self_s")}
        substrate = (self_s["elf.writer.self_s"]
                     + self_s["sysmodel.loader.resolve.self_s"])
        assert substrate > 0.5 * sum(self_s.values())
    if workload == "fleet-warm":
        assert values["elf.writer.calls"] == 0
        assert values["core.persist.disk_hit_pct"] == 100
        assert values["core.engine.cache.evaluation.misses"] == 0
    if workload == "paper-table3":
        assert values["core.engine.cache.evaluation.hit_pct"] == 0
        assert values["evaluation.migrations"] == 816


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("fleet-cold", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
