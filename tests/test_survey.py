"""The multi-site survey API."""

import pytest

from repro.core.survey import survey_sites
from repro.toolchain.compilers import Language


@pytest.fixture(scope="module")
def survey_world():
    from repro.sites.catalog import build_paper_sites
    sites = build_paper_sites(20202)
    by_name = {s.name: s for s in sites}
    india = by_name["india"]
    stack = india.find_stack("openmpi-1.4-gnu")
    app = india.compile_mpi_program("svapp", Language.C, stack,
                                    glibc_ceiling=(2, 4))
    india.machine.fs.write("/home/user/svapp", app.image, mode=0o755)
    result = survey_sites(
        india, "/home/user/svapp", sites,
        env=india.env_with_stack(stack))
    return sites, result


def test_one_verdict_per_target(survey_world):
    sites, result = survey_world
    assert len(result.verdicts) == len(sites) - 1  # home site excluded
    assert {v.site_name for v in result.verdicts} == {
        "ranger", "forge", "blacklight", "fir"}


def test_verdicts_have_both_modes(survey_world):
    _sites, result = survey_world
    for verdict in result.verdicts:
        assert verdict.basic is not None
        assert verdict.extended is not None


def test_ranger_rejected_on_libc(survey_world):
    """glibc-2.4-level binary from a 2.5 site cannot run on 2.3.4."""
    _sites, result = survey_world
    ranger = next(v for v in result.verdicts if v.site_name == "ranger")
    assert not ranger.ready
    assert any("C library" in reason for reason in ranger.reasons)


def test_fir_ready(survey_world):
    """india -> fir is the clean twin migration."""
    _sites, result = survey_world
    fir = next(v for v in result.verdicts if v.site_name == "fir")
    assert fir.ready
    assert "fir" in result.ready_sites


def test_render(survey_world):
    _sites, result = survey_world
    text = result.render()
    assert "site" in text and "extended" in text
    for verdict in result.verdicts:
        assert verdict.site_name in text


def test_undecided_verdict_reads_unknown():
    """A target whose C library version could not be discovered gets an
    optimistic verdict; the survey line says ``unknown``, as the grid
    does, never ``ready``."""
    import dataclasses

    from repro.core.feam import Feam
    from repro.sites.catalog import build_paper_sites
    by_name = {s.name: s for s in build_paper_sites(20202)}
    fir, india = by_name["fir"], by_name["india"]
    stack = fir.find_stack("openmpi-1.4-gnu")
    app = fir.compile_mpi_program("svapp", Language.C, stack,
                                  glibc_ceiling=(2, 4))
    fir.machine.fs.write("/home/user/svapp", app.image, mode=0o755)
    feam = Feam()
    tec = feam.engine.tec_for(india)
    tec.adopt_environment(
        dataclasses.replace(tec.environment(), libc_version=None))
    result = survey_sites(fir, "/home/user/svapp", [india],
                          env=fir.env_with_stack(stack), feam=feam)
    (verdict,) = result.verdicts
    assert verdict.extended.outcome_word == "unknown"
    assert verdict.summary_line().split() == [
        "india", "unknown", "unknown", "unknown"]
