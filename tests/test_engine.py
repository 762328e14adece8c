"""The batch evaluation engine: caching, invalidation, the matrix."""

import pytest

from repro.core import Feam
from repro.core import engine as engine_mod
from repro.core.engine import (
    EngineBinary,
    EvaluationEngine,
    compile_test_binaries,
    environment_fingerprint,
)
from repro.sites.catalog import build_paper_sites
from repro.toolchain.compilers import Language

from tests.conftest import TEST_SEED


@pytest.fixture
def compiled_app(make_site):
    """One MPI binary compiled at a throwaway donor site."""
    donor = make_site("engine-donor")
    stack = donor.find_stack("openmpi-1.4-intel")
    return donor.compile_mpi_program("e-app", Language.FORTRAN, stack)


class TestDescriptionCache:
    def test_identical_bytes_described_once(self, make_site, compiled_app):
        engine = EvaluationEngine()
        sites = [make_site("dc-a"), make_site("dc-b")]
        binary = EngineBinary(binary_id="e-app", image=compiled_app.image)
        engine.evaluate_matrix([binary], sites)
        assert engine.stats.description_misses == 1
        assert engine.stats.description_hits == 1

    def test_distinct_images_described_separately(self, make_site):
        donor = make_site("dc-donor")
        stack = donor.find_stack("openmpi-1.4-intel")
        apps = [donor.compile_mpi_program(f"dapp{i}", Language.FORTRAN, stack)
                for i in range(2)]
        engine = EvaluationEngine()
        site = make_site("dc-target")
        engine.evaluate_matrix(
            [EngineBinary(f"dapp{i}", app.image)
             for i, app in enumerate(apps)], [site])
        assert engine.stats.description_misses == 2
        assert engine.stats.description_hits == 0


class TestDiscoveryCache:
    def test_discovery_runs_once_per_site(self, make_site, compiled_app):
        engine = EvaluationEngine()
        sites = [make_site("di-a"), make_site("di-b")]
        binaries = [EngineBinary("e-app", compiled_app.image),
                    EngineBinary("e-app-2", compiled_app.image)]
        engine.evaluate_matrix(binaries, sites)
        # 4 cells over 2 sites: one discovery miss per site, then hits.
        assert engine.stats.discovery_misses == 2
        assert engine.stats.discovery_hits == 2


class TestEvaluationCache:
    def test_second_run_hits_every_cell(self, make_site, compiled_app):
        engine = EvaluationEngine()
        sites = [make_site("ev-a"), make_site("ev-b")]
        binaries = [EngineBinary("e-app", compiled_app.image)]
        first = engine.evaluate_matrix(binaries, sites)
        assert engine.stats.evaluation_misses == 2
        assert engine.stats.evaluation_hits == 0
        assert all(not c.report.cache.evaluation_hit for c in first.cells)

        second = engine.evaluate_matrix(binaries, sites)
        assert engine.stats.evaluation_misses == 2
        assert engine.stats.evaluation_hits == 2
        assert all(c.report.cache.evaluation_hit for c in second.cells)
        # Cached cells carry the same verdict.
        for cell in second.cells:
            mate = first.cell(cell.binary_id, cell.site_name)
            assert cell.ready == mate.ready

    def test_run_target_phase_reuses_the_cell(self, make_site, compiled_app):
        site = make_site("ev-feam")
        site.machine.fs.write("/home/user/e-app", compiled_app.image,
                              mode=0o755)
        feam = Feam()
        first = feam.run_target_phase(site, binary_path="/home/user/e-app")
        second = feam.run_target_phase(site, binary_path="/home/user/e-app")
        assert first.cache.evaluation_hit is False
        assert second.cache.evaluation_hit is True
        assert second.ready == first.ready
        assert feam.engine.stats.evaluation_hits == 1


class TestInvalidation:
    def test_unchanged_site_keeps_its_cells(self, make_site, compiled_app):
        engine = EvaluationEngine()
        site = make_site("inv-same")
        binaries = [EngineBinary("e-app", compiled_app.image)]
        engine.evaluate_matrix(binaries, [site])
        assert engine.refresh_site(site) is False
        engine.evaluate_matrix(binaries, [site])
        assert engine.stats.evaluation_hits == 1
        assert engine.stats.evaluation_misses == 1

    def test_changed_fingerprint_drops_only_that_site(
            self, make_site, compiled_app):
        engine = EvaluationEngine()
        changed = make_site("inv-changed")
        stable = make_site("inv-stable")
        binaries = [EngineBinary("e-app", compiled_app.image)]
        engine.evaluate_matrix(binaries, [changed, stable])
        before = engine.fingerprint_for(changed)

        # An OS upgrade lands on one site.
        changed.machine.fs.write_text(
            "/etc/redhat-release", "CentOS release 6.2 (Final)\n")
        assert engine.refresh_site(changed) is True
        assert engine.fingerprint_for(changed) != before

        engine.evaluate_matrix(binaries, [changed, stable])
        # The stable site's cell hits; the changed site's re-evaluates.
        assert engine.stats.evaluation_hits == 1
        assert engine.stats.evaluation_misses == 3

    def test_fingerprint_is_stable_across_twin_sites(self, make_site):
        a, b = make_site("twin"), make_site("twin")
        fa = environment_fingerprint(
            EvaluationEngine().tec_for(a).environment())
        fb = environment_fingerprint(
            EvaluationEngine().tec_for(b).environment())
        assert fa == fb


class TestMatrixShape:
    def test_cells_cover_the_cross_product(self, make_site, compiled_app):
        engine = EvaluationEngine()
        sites = [make_site("mx-a"), make_site("mx-b"), make_site("mx-c")]
        binaries = [EngineBinary("m-one", compiled_app.image),
                    EngineBinary("m-two", compiled_app.image)]
        result = engine.evaluate_matrix(binaries, sites)
        assert len(result.cells) == 6
        assert [(c.binary_id, c.site_name) for c in result.cells] == [
            (b.binary_id, s.name) for b in binaries for s in sites]
        assert all(cell.ready for cell in result.cells)

    def test_render_mentions_cells_and_cache(self, make_site, compiled_app):
        engine = EvaluationEngine()
        result = engine.evaluate_matrix(
            [EngineBinary("m-one", compiled_app.image)],
            [make_site("mr-a")])
        text = result.render()
        assert "m-one" in text
        assert "mr-a" in text
        assert "cache: description" in text


class TestImages:
    @pytest.fixture
    def world(self):
        """Fresh paper sites (cells stage files) and four binaries."""
        sites = build_paper_sites(TEST_SEED)
        return sites, compile_test_binaries(sites, 4)

    def test_a_reused_binary_id_evaluates_the_new_image(self, world):
        sites, binaries = world
        ranger = sites[0]
        images = [binaries[0].image, binaries[3].image]
        alone = [EvaluationEngine().evaluate_cell(
                     ranger, image=image, binary_id=f"alone-{index}").ready
                 for index, image in enumerate(images)]
        assert alone[0] != alone[1]
        engine = EvaluationEngine()
        for index in (0, 1, 0):
            report = engine.evaluate_cell(ranger, image=images[index],
                                          binary_id="reused")
            assert report.ready is alone[index]

    def test_each_image_is_hashed_once(self, world, monkeypatch):
        sites, binaries = world
        hashed = []
        original = engine_mod.content_digest

        def counting(data):
            hashed.append(data)
            return original(data)

        monkeypatch.setattr(engine_mod, "content_digest", counting)
        result = EvaluationEngine().evaluate_matrix(binaries, sites)
        assert len(result.cells) == 20
        assert len(hashed) == 4
