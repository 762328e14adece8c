"""Engine instrumentation: spans, parenting, metrics.

The trace of a matrix run must come out whole -- every cell span
parented under its site span, every site span under the single matrix
span, and the live metrics counters in exact agreement with the
engine's own ``CacheStats``.
"""

import pytest

from repro import obs
from repro.core.engine import (
    EngineBinary,
    EvaluationEngine,
    compile_test_binaries,
)
from repro.corpus.benchmarks import Suite
from repro.corpus.builder import CorpusConfig
from repro.evaluation.experiment import ExperimentConfig, run_experiment
from repro.sites.catalog import build_paper_sites
from repro.toolchain.compilers import Language


@pytest.fixture(scope="module")
def traced_matrix():
    """All five paper sites x two binaries, evaluated under a collector."""
    sites = build_paper_sites(424242)
    binaries = []
    for index, site_name in enumerate(["fir", "ranger"]):
        site = next(s for s in sites if s.name == site_name)
        stack = site.stacks[0]
        name = f"obs-{site_name}"
        linked = site.compile_mpi_program(name, Language.FORTRAN, stack)
        binaries.append(EngineBinary(binary_id=name, image=linked.image))
    engine = EvaluationEngine()
    with obs.capture() as collector:
        result = engine.evaluate_matrix(binaries, sites)
    return sites, binaries, engine, collector, result


class TestSpanCounts:
    def test_one_span_per_unit_of_work(self, traced_matrix):
        sites, binaries, engine, collector, result = traced_matrix
        cells = len(binaries) * len(sites)
        tracer = collector.tracer
        assert len(tracer.spans_named("engine.matrix")) == 1
        assert len(tracer.spans_named("engine.site")) == len(sites)
        assert len(tracer.spans_named("engine.cell")) == cells
        # One discovery probe per cell (hit or miss)...
        assert len(tracer.spans_named("engine.discover")) == cells
        # ...but describe spans only where the description cache missed.
        assert len(tracer.spans_named("engine.describe")) == \
            engine.stats.description_misses
        # Four determinants per evaluated cell (pass, fail or skipped).
        assert len(tracer.spans_named("determinant")) == 4 * cells

    def test_span_ids_unique_across_workers(self, traced_matrix):
        _, _, _, collector, _ = traced_matrix
        ids = [s.span_id for s in collector.spans]
        assert len(ids) == len(set(ids))


class TestParenting:
    def test_sites_under_matrix_cells_under_sites(self, traced_matrix):
        sites, _, _, collector, _ = traced_matrix
        tracer = collector.tracer
        (matrix,) = tracer.spans_named("engine.matrix")
        site_spans = tracer.spans_named("engine.site")
        assert {s.parent_id for s in site_spans} == {matrix.span_id}
        assert {s.attrs["site"] for s in site_spans} == \
            {site.name for site in sites}
        site_by_id = {s.span_id: s for s in site_spans}
        for cell in tracer.spans_named("engine.cell"):
            parent = site_by_id[cell.parent_id]
            assert cell.attrs["site"] == parent.attrs["site"]

    def test_determinants_nested_inside_their_cell(self, traced_matrix):
        _, _, _, collector, _ = traced_matrix
        by_id = {s.span_id: s for s in collector.spans}

        def ancestor_cell(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                if span.name == "engine.cell":
                    return span
            return None

        determinants = collector.tracer.spans_named("determinant")
        assert determinants
        for det in determinants:
            assert ancestor_cell(det) is not None
            assert "outcome" in det.attrs


class TestMetricsAgreement:
    def test_counters_equal_engine_cache_stats(self, traced_matrix):
        _, _, engine, collector, _ = traced_matrix
        stats = engine.stats
        for layer in ("description", "discovery", "evaluation"):
            hits = collector.metrics.counter(
                f"engine.cache.{layer}.hits").value
            misses = collector.metrics.counter(
                f"engine.cache.{layer}.misses").value
            assert hits == getattr(stats, f"{layer}_hits")
            assert misses == getattr(stats, f"{layer}_misses")

    def test_counters_equal_summed_per_cell_cache_info(self, traced_matrix):
        _, _, _, collector, result = traced_matrix
        for layer in ("description", "discovery", "evaluation"):
            cell_hits = sum(
                getattr(c.report.cache, f"{layer}_hit")
                for c in result.cells)
            cell_misses = len(result.cells) - cell_hits
            assert collector.metrics.counter(
                f"engine.cache.{layer}.hits").value == cell_hits
            assert collector.metrics.counter(
                f"engine.cache.{layer}.misses").value == cell_misses

    def test_refresh_counts_on_the_live_counter_too(self):
        # refresh_site's re-discovery is a discovery miss in both books.
        sites = build_paper_sites(7)
        binaries = compile_test_binaries(sites, 2)
        engine = EvaluationEngine()
        with obs.capture() as collector:
            engine.evaluate_matrix(binaries, sites)
            engine.refresh_site(sites[0])
            engine.evaluate_matrix(binaries, sites)
        stats = engine.stats
        assert stats.discovery_misses == len(sites) + 1
        for layer in ("description", "discovery", "evaluation"):
            for kind in ("hits", "misses"):
                assert collector.metrics.counter(
                    f"engine.cache.{layer}.{kind}").value == \
                    getattr(stats, f"{layer}_{kind}")

    def test_paper_run_publishes_the_matrix_gauges(self, traced_matrix):
        _, _, _, matrix_collector, _ = traced_matrix
        matrix_gauges = matrix_collector.metrics.to_dict()["gauges"]
        with obs.capture() as collector:
            result = run_experiment(ExperimentConfig(
                seed=7, corpus=CorpusConfig(target_counts={
                    Suite.NPB: 4, Suite.SPEC: 4})))
        gauges = collector.metrics.to_dict()["gauges"]
        assert set(matrix_gauges) <= set(gauges)
        assert gauges["matrix.cells.total"] == 2 * len(result.records)
        assert gauges["matrix.faulted_cells.pct"] == 0.0

    def test_cell_histogram_and_utilization_gauge(self, traced_matrix):
        _, _, _, collector, result = traced_matrix
        summary = collector.metrics.histogram(
            "engine.cell.wall_seconds").summary()
        assert summary["count"] == len(result.cells)
        (matrix,) = collector.tracer.spans_named("engine.matrix")
        assert matrix.attrs["cells"] == len(result.cells)


class TestOutcomeWords:
    """UNKNOWN cells must never render like a pass or a hard fail."""

    @staticmethod
    def _cell(site_name, *outcomes):
        from repro.core.engine import MatrixCell
        from repro.core.evaluation import TargetReport
        from repro.core.prediction import (
            Determinant,
            DeterminantResult,
            Prediction,
            PredictionMode,
        )
        determinants = tuple(
            DeterminantResult(det, outcome) for det, outcome in zip(
                (Determinant.ISA, Determinant.C_LIBRARY), outcomes))
        ready = all(r.passed is not False for r in determinants)
        report = TargetReport(
            prediction=Prediction(ready=ready, mode=PredictionMode.BASIC,
                                  determinants=determinants),
            environment=None)
        return MatrixCell(binary_id="synthetic", site_name=site_name,
                          report=report)

    def test_three_distinct_words(self):
        assert self._cell("a", True, True).outcome_word == "ready"
        assert self._cell("b", True, None).outcome_word == "unknown"
        assert self._cell("c", True, False).outcome_word == "no"

    def test_grid_renders_all_three(self):
        from repro.core.engine import CacheStats, MatrixResult
        result = MatrixResult(
            cells=[self._cell("a", True, True),
                   self._cell("b", True, None),
                   self._cell("c", True, False)],
            stats=CacheStats())
        rendered = result.render(verbose=True)
        for word in ("ready", "unknown", "no"):
            assert word in rendered
        # Verbose names the undecided determinant on the unknown cell.
        assert "c-library-compatibility=unknown" in rendered
        assert "[uncached]" in rendered


class TestRenderAndInvalidation:
    def test_verbose_render_has_cache_provenance(self, traced_matrix):
        _, _, _, _, result = traced_matrix
        rendered = result.render(verbose=True)
        assert "legend:" in rendered
        assert "description=" in rendered and "evaluation=" in rendered

    def test_refresh_emits_invalidation_event(self, make_site):
        site = make_site("obs-inval")
        engine = EvaluationEngine()
        stack = site.find_stack("openmpi-1.4-intel")
        app = site.compile_mpi_program("inv-app", Language.FORTRAN, stack)
        with obs.capture() as collector:
            engine.evaluate_matrix(
                [EngineBinary("inv-app", app.image)], [site])
            site.machine.fs.write_text(
                "/etc/redhat-release", "CentOS release 6.2 (Final)\n")
            engine.refresh_site(site)
        events = collector.events.named("engine.site_invalidated")
        assert len(events) == 1
        assert events[0].attrs["site"] == site.name
        assert collector.metrics.counter("engine.invalidations").value == 1
