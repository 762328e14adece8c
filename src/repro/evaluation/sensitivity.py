"""Sensitivity analysis over the model's free parameters.

EXPERIMENTS.md documents three quantities the paper leaves unspecified:
the ABI/floating-point pair-failure rates, the per-suite persistent
system-error ("curse") rates, and the transient fault rate.  This module
sweeps them over reduced corpora and reports how the headline results
move -- establishing that the reproduction's conclusions (accuracy > 90%,
extended >= basic, resolution adds roughly a third) are *robust regions*,
not a knife-edge calibration.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.corpus.benchmarks import Suite
from repro.corpus.builder import CorpusConfig, build_corpus
from repro.evaluation.experiment import ExperimentConfig, run_experiment
from repro.evaluation.metrics import accuracy_table, resolution_table
from repro.sites.catalog import build_paper_sites


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """Headline metrics at one parameter setting."""

    parameter: str
    value: float
    basic_accuracy: dict[Suite, Optional[float]]
    extended_accuracy: dict[Suite, Optional[float]]
    before_success: dict[Suite, Optional[float]]
    after_success: dict[Suite, Optional[float]]


def _run_point(parameter: str, value: float, seed: int,
               corpus_size: int, abi_scale: float = 1.0,
               transient: float = 0.02,
               curse: Optional[dict] = None) -> SweepPoint:
    sites = build_paper_sites(seed)
    for site in sites:
        site.simulator.abi_scale = abi_scale
        site.simulator.transient_error_probability = transient
    corpus_config = CorpusConfig(
        seed=seed,
        target_counts={Suite.NPB: corpus_size, Suite.SPEC: corpus_size})
    if curse is not None:
        corpus_config = dataclasses.replace(
            corpus_config, curse_probability=curse)
    corpus = build_corpus(sites, corpus_config)
    result = run_experiment(
        ExperimentConfig(seed=seed, corpus=corpus_config),
        sites=sites, corpus=corpus)
    acc = accuracy_table(result.records)
    res = resolution_table(result.records)
    return SweepPoint(
        parameter=parameter, value=value,
        basic_accuracy={s: acc[s]["basic"] for s in Suite},
        extended_accuracy={s: acc[s]["extended"] for s in Suite},
        before_success={s: res[s]["before"] for s in Suite},
        after_success={s: res[s]["after"] for s in Suite})


def sweep_abi_scale(scales: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
                    seed: int = 20130101,
                    corpus_size: int = 25) -> list[SweepPoint]:
    """How do the headline numbers respond to the ABI-rate scale?"""
    return [_run_point("abi_scale", scale, seed, corpus_size,
                       abi_scale=scale)
            for scale in scales]


def sweep_curse(rates: Sequence[float] = (0.0, 0.03, 0.06, 0.12),
                seed: int = 20130101,
                corpus_size: int = 25) -> list[SweepPoint]:
    """How does the persistent system-error rate move the results?

    Applied to both suites simultaneously; extended accuracy should track
    ``1 - rate`` closely (system errors are the unpredictable class).
    """
    return [_run_point("curse", rate, seed, corpus_size,
                       curse={Suite.NPB: rate, Suite.SPEC: rate})
            for rate in rates]


def sweep_transient(rates: Sequence[float] = (0.0, 0.02, 0.10),
                    seed: int = 20130101,
                    corpus_size: int = 25) -> list[SweepPoint]:
    """Transient faults should be absorbed by the five retries."""
    return [_run_point("transient", rate, seed, corpus_size,
                       transient=rate)
            for rate in rates]


def render_sweep(points: list[SweepPoint]) -> str:
    """Human-readable sweep table."""
    if not points:
        return "(empty sweep)\n"
    header = (f"{'parameter':<12}{'value':>7}"
              f"{'basic N/S':>14}{'ext N/S':>14}"
              f"{'before N/S':>14}{'after N/S':>14}")
    lines = [f"SENSITIVITY SWEEP: {points[0].parameter}", "", header,
             "-" * len(header)]

    def pair(values: dict) -> str:
        nas = values.get(Suite.NPB)
        spec = values.get(Suite.SPEC)
        fmt = lambda v: f"{100 * v:.0f}" if v is not None else "--"
        return f"{fmt(nas)}/{fmt(spec)}"

    for point in points:
        lines.append(
            f"{point.parameter:<12}{point.value:>7.2f}"
            f"{pair(point.basic_accuracy):>14}"
            f"{pair(point.extended_accuracy):>14}"
            f"{pair(point.before_success):>14}"
            f"{pair(point.after_success):>14}")
    return "\n".join(lines) + "\n"
