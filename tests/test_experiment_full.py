"""The full Section VI evaluation: the headline reproduction claims.

One complete experiment run (module-scoped, ~30 s) backs every assertion
in this file.  The claims mirror the paper's published results; exact
decimals differ because the substrate is a simulation, but the shapes --
who wins, by roughly what factor, which failures dominate -- must hold.
"""

import pytest

from repro.corpus.benchmarks import Suite
from repro.evaluation.experiment import ExperimentConfig, run_experiment
from repro.evaluation.metrics import (
    accuracy_table,
    failure_breakdown,
    missing_library_share,
    resolution_table,
)


@pytest.fixture(scope="module")
def result():
    return run_experiment(ExperimentConfig())


def test_test_set_sizes(result):
    """Section VI.A: 110 NPB and 147 SPEC binaries."""
    assert result.corpus.counts() == {Suite.NPB: 110, Suite.SPEC: 147}


def test_every_reported_migration_has_matching_impl(result):
    """Only sites with matching MPI implementations are reported."""
    sites = {s.name: s for s in result.sites}
    for record in result.records:
        binary = result.corpus.find(record.binary_id)
        kinds = sites[record.target_site].stacks_of_kind(
            binary.stack_spec.kind)
        assert kinds, record.binary_id


def test_mpi_identification_100_percent(result):
    """Section VI.B: 100% accurate at identifying the MPI implementation."""
    from repro.core.description import identify_mpi_implementation
    from repro.elf import parse_elf
    for binary in result.corpus.binaries:
        needed = parse_elf(binary.image).dynamic.needed
        assert identify_mpi_implementation(needed) == \
            binary.stack_spec.kind.value


def test_table3_accuracy_over_90_percent(result):
    """Headline: >90% accuracy in every suite and mode (Table III)."""
    acc = accuracy_table(result.records)
    for suite in Suite:
        assert acc[suite]["basic"] > 0.90, (suite, acc)
        assert acc[suite]["extended"] > 0.90, (suite, acc)


def test_table3_extended_beats_basic(result):
    """Extended prediction adds accuracy (Table III: 94->99, 92->93)."""
    acc = accuracy_table(result.records)
    for suite in Suite:
        assert acc[suite]["extended"] >= acc[suite]["basic"], (suite, acc)


def test_table4_about_half_execute_before_resolution(result):
    """'Around half of the MPI application binaries were able to execute
    at target sites after migration' (paper: NAS 58%, SPEC 47%)."""
    table = resolution_table(result.records)
    for suite in Suite:
        assert 0.40 <= table[suite]["before"] <= 0.65, (suite, table)
    # NAS fares somewhat better than SPEC, as in the paper.
    assert table[Suite.NPB]["before"] >= table[Suite.SPEC]["before"] - 0.02


def test_table4_resolution_increases_successes_by_about_a_third(result):
    """Resolution enables roughly a third more successes (33% / 39%)."""
    table = resolution_table(result.records)
    for suite in Suite:
        assert 0.20 <= table[suite]["increase"] <= 0.55, (suite, table)
        assert table[suite]["after"] > table[suite]["before"]


def test_missing_libraries_dominate_failures(result):
    """'Of the failing jobs, more than half were missing shared
    libraries.'"""
    assert missing_library_share(result.records) > 0.5


def test_failure_taxonomy_complete(result):
    """The remaining failures are C-library, FP/ABI and system errors."""
    causes = set(failure_breakdown(result.records, "before"))
    assert "missing-shared-library" in causes
    assert "c-library-version" in causes
    assert "system-error" in causes
    assert causes <= {
        "missing-shared-library", "c-library-version", "system-error",
        "abi-incompatibility", "floating-point-exception",
        "mpi-stack-unusable"}


def test_extended_mispredictions_are_system_errors(result):
    """Section VI.C: 'Our model was unable to predict failures due to
    system errors' -- and (in this reproduction) nothing else."""
    for record in result.records:
        if not record.extended_correct:
            assert record.extended_ready  # never pessimistic
            assert record.actual_after_failure == "system-error", record


def test_feam_phases_under_five_minutes(result):
    """'Both FEAM's source and target phases always took less than five
    minutes to complete.'"""
    assert result.max_source_phase_seconds < 300
    assert result.max_target_phase_seconds < 300


def test_bundle_sizes_tens_of_megabytes(result):
    """'A bundle of shared library copies composed by FEAM's source phase
    averaged 45M in size' -- ours land in the same tens-of-MB regime."""
    sizes = list(result.bundle_bytes_by_site.values())
    assert len(sizes) == 5
    average = sum(sizes) / len(sizes)
    assert 10_000_000 < average < 100_000_000


def test_resolution_fixes_about_half_of_missing_lib_failures(result):
    """'Our resolution techniques automatically enabled execution for
    about half of the binaries that would have otherwise failed due to
    missing shared libraries.'"""
    missing_before = [r for r in result.records
                      if r.actual_before_failure == "missing-shared-library"]
    fixed = [r for r in missing_before if r.actual_after_ok]
    ratio = len(fixed) / len(missing_before)
    assert 0.35 <= ratio <= 0.75, ratio


def test_experiment_is_deterministic(result):
    again = run_experiment(ExperimentConfig())
    assert len(again.records) == len(result.records)
    for a, b in zip(again.records, result.records):
        assert a.binary_id == b.binary_id
        assert a.basic_ready == b.basic_ready
        assert a.extended_ready == b.extended_ready
        assert a.actual_before_ok == b.actual_before_ok
        assert a.actual_after_ok == b.actual_after_ok
