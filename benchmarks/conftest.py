"""Shared fixtures for the benchmark harness.

The full Section VI experiment (compile matrix + 800+ migrations) runs
once per session; every table/figure bench reads from it.  Micro-benches
build their own small inputs.
"""

from __future__ import annotations

import pytest

from repro.evaluation.experiment import ExperimentConfig, run_experiment
from repro.sites.catalog import build_paper_sites

BENCH_SEED = 20130101


@pytest.fixture(scope="session")
def experiment_result():
    """The full paper evaluation (one run per benchmark session)."""
    return run_experiment(ExperimentConfig(seed=BENCH_SEED))


@pytest.fixture(scope="session")
def paper_sites():
    return build_paper_sites(BENCH_SEED + 1)
