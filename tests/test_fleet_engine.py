"""Fleet-scale engine behaviour: the serial planner, content sharing.

Refactoring the engine must not change *what* it computes -- only how.
The anchor is a golden file rendered by an earlier engine
(``tests/golden/matrix_paper_5x4.txt``): the current engine must
reproduce it byte-for-byte, cache counters included.
"""

from pathlib import Path

import pytest

from repro.core.engine import EvaluationEngine, compile_test_binaries
from repro.core.persist import PersistentStore
from repro.obs.wide import WideEventSink
from repro.sites.catalog import build_paper_sites
from repro.sites.generator import resolve_sites

_GOLDEN = Path(__file__).parent / "golden" / "matrix_paper_5x4.txt"


def _paper_inputs(seed=20130101, count=4):
    sites = build_paper_sites(seed)
    return sites, compile_test_binaries(sites, count)


def _fleet_inputs(spec="fleet:n=10,seed=4", count=2):
    sites = resolve_sites(spec)
    return sites, compile_test_binaries(sites, count)


class TestGoldenMatrix:
    """Differential gate against the pre-refactor engine's output."""

    def test_paper_matrix_renders_byte_identically(self):
        sites, binaries = _paper_inputs()
        engine = EvaluationEngine(max_workers=1)
        result = engine.evaluate_matrix(binaries, sites)
        assert result.render(verbose=False) == _GOLDEN.read_text()


class TestSerialEngine:
    def test_max_workers_accepts_only_one(self):
        # The serial engine keeps the constructor argument for existing
        # callers: None and 1 evaluate, anything else is refused.
        sites, binaries = _fleet_inputs(spec="fleet:n=2,seed=4", count=1)
        result = EvaluationEngine(max_workers=1).evaluate_matrix(
            binaries, sites)
        assert len(result.cells) == len(sites)
        with pytest.raises(ValueError, match="max_workers=2"):
            EvaluationEngine(max_workers=2)

    def test_content_groups_run_whole_in_first_appearance_order(self):
        # Cells are produced unit by unit -- every member of a content
        # group right after the group's first site -- so the wide-event
        # stream has one order on every run.  This fleet interleaves
        # its groups, so unit order differs from site order.
        sites, binaries = _fleet_inputs(spec="fleet:n=12,seed=2")
        sink = WideEventSink()
        result = EvaluationEngine().evaluate_matrix(
            binaries, sites, wide_sink=sink)
        order = list(dict.fromkeys(e["site"] for e in sink.events()))
        groups = list(dict.fromkeys(s.content_key for s in sites))
        assert order == [s.name for g in groups for s in sites
                         if s.content_key == g]
        assert order != [s.name for s in sites]
        # The grid itself stays binary-major in the given site order.
        assert [c.site_name for c in result.cells[:len(sites)]] == \
            [s.name for s in sites]


class TestContentSharing:
    def test_discovery_runs_once_per_content_group(self):
        sites, binaries = _fleet_inputs()
        groups = {s.content_key for s in sites}
        engine = EvaluationEngine(max_workers=1)
        engine.evaluate_matrix(binaries, sites)
        stats = engine.stats
        assert stats.discovery_misses == len(groups)
        assert stats.evaluation_misses == len(groups) * len(binaries)
        assert (stats.evaluation_hits
                == (len(sites) - len(groups)) * len(binaries))

    def test_cached_cells_are_rehosted(self):
        sites, binaries = _fleet_inputs()
        engine = EvaluationEngine(max_workers=1)
        result = engine.evaluate_matrix(binaries, sites)
        for cell in result.cells:
            assert cell.report.environment.hostname == cell.site_name

    def test_disk_served_cells_are_rehosted(self, tmp_path):
        # Stored evaluations carry no environment: a fresh engine over a
        # warm store serves each cell with its own site's discovery.
        sites, binaries = _fleet_inputs()
        cold_engine = EvaluationEngine(
            max_workers=1, persist=PersistentStore(str(tmp_path)))
        cold = cold_engine.evaluate_matrix(binaries, sites)
        cold_engine.close()
        sites, binaries = _fleet_inputs()
        warm_engine = EvaluationEngine(
            max_workers=1, persist=PersistentStore(str(tmp_path)))
        warm = warm_engine.evaluate_matrix(binaries, sites)
        warm_engine.close()
        assert warm_engine.stats.evaluation_misses == 0
        assert {cell.report.cache.tier for cell in warm.cells} == \
            {"disk", "memory"}
        for cell in warm.cells:
            assert cell.report.environment.hostname == cell.site_name
        assert [cell.report.environment for cell in warm.cells] == \
            [cell.report.environment for cell in cold.cells]

    def test_refresh_divergence_drops_the_content_key(self):
        sites, _ = _fleet_inputs()
        site = sites[0]
        engine = EvaluationEngine(max_workers=1)
        engine.fingerprint_for(site)
        # An unchanged re-discovery keeps the site in its group ...
        assert engine.refresh_site(site) is False
        assert site.content_key is not None
        # ... a real environment change evicts it.
        site.machine.env["LOADEDMODULES"] = "ghost/1.0"
        site.machine.env["_LMFILES_"] = "/ghost"
        assert engine.refresh_site(site) is True
        assert site.content_key is None
