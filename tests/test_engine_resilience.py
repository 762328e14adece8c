"""Faults meet the engine: degrade, quarantine, resume.

The integration contract: an injected fault never crashes a matrix
run -- the cell degrades to UNKNOWN carrying its failure provenance,
repeated failures open the site's circuit breaker, a crashed worker
loses only its own unfinished column, a failed staging plan rolls
back, and a rerun against the same persistent store resumes without
re-evaluating stored cells.  Everything is seeded, so two chaos runs
with one seed are byte-identical.
"""

from pathlib import Path

import pytest

from repro import obs
from repro.core.engine import EngineBinary, EvaluationEngine
from repro.core.evaluation import TargetEvaluationComponent
from repro.core.persist import PersistentStore
from repro.obs.wide import WideEventSink
from repro.sysmodel import faults
from repro.sysmodel.faults import FaultKind, FaultPlan, FaultSpec
from repro.sysmodel.fs import FsError
from repro.toolchain.compilers import Language


@pytest.fixture
def compiled_app(make_site):
    donor = make_site("res-donor")
    stack = donor.find_stack("openmpi-1.4-intel")
    return donor.compile_mpi_program("r-app", Language.FORTRAN, stack)


def _binaries(compiled_app, count=1):
    return [EngineBinary(binary_id=f"r-app-{i}", image=compiled_app.image)
            for i in range(count)]


def always(kind, sites=("*",), **kwargs):
    return FaultSpec(kind=kind, sites=sites, rate=1.0, **kwargs)


class TestDegradedCells:
    def test_persistent_discovery_fault_degrades_not_crashes(
            self, make_site, compiled_app):
        sites = [make_site("deg-a"), make_site("deg-b")]
        plan = FaultPlan([always(FaultKind.DISCOVERY_TIMEOUT,
                                 sites=("deg-a",))])
        engine = EvaluationEngine()
        with faults.injecting(plan):
            result = engine.evaluate_matrix(
                _binaries(compiled_app), sites)
        assert len(result.cells) == 2
        faulted = result.cell("r-app-0", "deg-a")
        clean = result.cell("r-app-0", "deg-b")
        assert faulted.faulted
        assert faulted.outcome_word == "unknown"
        provenance = faulted.report.failure
        assert provenance.kind == "discovery-timeout"
        assert provenance.attempts > 1          # retries were spent
        assert provenance.retry_seconds > 0.0
        assert not clean.faulted                # the other site is fine

    def test_transient_fault_is_absorbed_by_retries(
            self, make_site, compiled_app):
        site = make_site("transient")
        plan = FaultPlan([always(FaultKind.DISCOVERY_TIMEOUT,
                                 transient=True, fires=1)])
        engine = EvaluationEngine()
        with obs.capture() as collector:
            with faults.injecting(plan):
                result = engine.evaluate_matrix(
                    _binaries(compiled_app), [site])
        (cell,) = result.cells
        assert not cell.faulted                 # the retry succeeded
        counters = collector.metrics.to_dict()["counters"]
        assert counters["resilience.retries.total"] >= 1
        assert counters["resilience.faults.injected"] >= 1
        # The backoff is charged to the cell in simulated seconds.
        assert cell.report.feam_seconds > engine.config.feam_base_seconds

    def test_degraded_cells_are_never_cached(self, make_site,
                                             compiled_app):
        site = make_site("uncached")
        plan = FaultPlan([always(FaultKind.READ_ERROR)])
        engine = EvaluationEngine()
        with faults.injecting(plan):
            first = engine.evaluate_matrix(_binaries(compiled_app),
                                           [site])
        assert first.cells[0].faulted
        # Fault gone: the same engine re-evaluates instead of serving
        # the degraded report from cache.
        second = engine.evaluate_matrix(_binaries(compiled_app), [site])
        assert not second.cells[0].faulted
        assert not second.cells[0].report.cache.evaluation_hit

    def test_render_surfaces_faults_and_provenance(self, make_site,
                                                   compiled_app):
        site = make_site("rendered")
        plan = FaultPlan([always(FaultKind.READ_ERROR)])
        engine = EvaluationEngine()
        with faults.injecting(plan):
            result = engine.evaluate_matrix(_binaries(compiled_app),
                                            [site])
        text = result.render(verbose=True)
        assert "degraded to unknown" in text
        assert "fault:" in text
        assert "read-error" in text


class TestCircuitBreaker:
    def test_repeated_failures_quarantine_the_site(self, make_site,
                                                   compiled_app):
        sites = [make_site("quar-bad"), make_site("quar-ok")]
        plan = FaultPlan([always(FaultKind.READ_ERROR,
                                 sites=("quar-bad",))])
        engine = EvaluationEngine()
        with faults.injecting(plan):
            result = engine.evaluate_matrix(
                _binaries(compiled_app, count=6), sites)
        assert "quar-bad" in result.quarantined
        assert "quar-ok" not in result.quarantined
        assert engine.site_health()["quar-bad"] == "open"
        assert engine.site_health()["quar-ok"] == "closed"
        # Later cells short-circuited: quarantine provenance, zero
        # attempts, no retry budget burned.
        kinds = [c.report.failure.kind for c in result.cells
                 if c.site_name == "quar-bad"]
        assert "breaker-open" in kinds
        quarantined = next(c for c in result.cells
                           if c.site_name == "quar-bad"
                           and c.report.failure.kind == "breaker-open")
        assert quarantined.report.failure.attempts == 0
        assert "quarantined sites (circuit breaker open): quar-bad" \
            in result.render()
        # The healthy site's column is untouched.
        assert all(not c.faulted for c in result.cells
                   if c.site_name == "quar-ok")


class TestWorkerCrash:
    def test_one_dying_worker_degrades_only_its_column(
            self, make_site, compiled_app, monkeypatch):
        sites = [make_site("wk-bad"), make_site("wk-ok")]
        engine = EvaluationEngine()
        real = EvaluationEngine.evaluate_cell

        def crashing(self, site, *args, **kwargs):
            if site.name == "wk-bad":
                raise MemoryError("worker died outside the cell guard")
            return real(self, site, *args, **kwargs)

        monkeypatch.setattr(EvaluationEngine, "evaluate_cell", crashing)
        with obs.capture() as collector:
            result = engine.evaluate_matrix(
                _binaries(compiled_app, count=2), sites)
        # Every cell exists; the crashed column is UNKNOWN + provenance.
        assert len(result.cells) == 4
        for cell in result.cells:
            if cell.site_name == "wk-bad":
                assert cell.outcome_word == "unknown"
                assert cell.report.failure.operation == "worker"
                assert cell.report.failure.kind == "MemoryError"
            else:
                assert not cell.faulted
        counters = collector.metrics.to_dict()["counters"]
        assert counters["resilience.workers.failed"] == 1
        assert any(e.name == "resilience.worker_failed"
                   for e in collector.events.events)


class TestResolutionRollback:
    def test_mid_plan_copy_failure_rolls_back_staged_files(
            self, make_site, monkeypatch):
        # The scenario from test_core_resolution: Intel runtimes missing
        # at the target, so resolve() stages several copies; the second
        # write dies and the first staged file must not survive.
        from repro.core.discovery import EnvironmentDiscoveryComponent
        from repro.core.resolution import ResolutionModel
        from repro.mpi.implementations import open_mpi
        from repro.sites.site import StackRequest
        from repro.toolchain.compilers import CompilerFamily
        from tests.test_core_resolution import _bundle_for

        donor = make_site("rb-donor")
        target = make_site(
            "rb-target", vendor_compilers=(),
            stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU),))
        bundle = _bundle_for(donor)
        edc = EnvironmentDiscoveryComponent(target.toolbox())
        resolver = ResolutionModel(target.toolbox(), edc.discover())
        fs = target.machine.fs
        real_write = fs.write
        writes = {"n": 0}

        def dying_write(path, data, *args, **kwargs):
            if path.startswith("/home/user/stage"):
                writes["n"] += 1
                if writes["n"] == 2:
                    raise FsError("disk died mid-transfer")
            return real_write(path, data, *args, **kwargs)

        monkeypatch.setattr(fs, "write", dying_write)
        with obs.capture() as collector:
            with pytest.raises(FsError, match="disk died"):
                resolver.resolve(
                    ["libifcore.so.5", "libifport.so.5"], bundle,
                    target.machine.env.copy(), "/home/user/stage")
        # The first copy landed and was rolled back.
        assert writes["n"] == 2
        assert fs.listdir("/home/user/stage") == []
        rollbacks = [e for e in collector.events.events
                     if e.name == "resolution.rollback"]
        assert len(rollbacks) == 1
        assert rollbacks[0].attrs["rolled_back"] == 1
        assert "disk died" in rollbacks[0].attrs["reason"]
        counters = collector.metrics.to_dict()["counters"]
        assert counters["resolution.rollbacks"] == 1


class TestJournalAndResume:
    """Resume is a rerun against the same persistent store."""

    def test_resume_skips_completed_cells(self, make_site, compiled_app,
                                          tmp_path, monkeypatch):
        binaries = _binaries(compiled_app, count=2)
        engine = EvaluationEngine(persist=PersistentStore(str(tmp_path)))
        full = engine.evaluate_matrix(
            binaries, [make_site("jr-a"), make_site("jr-b")])
        engine.close()

        # Drop the segment's last record: one cell left to evaluate.
        segment = Path(tmp_path) / "evaluation.jsonl"
        lines = segment.read_text().splitlines()
        assert len(lines) == 4
        segment.write_text("\n".join(lines[:3]) + "\n")

        evaluated = []
        real = TargetEvaluationComponent.evaluate

        def spying(self, *args, **kwargs):
            evaluated.append(self.site.name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(TargetEvaluationComponent, "evaluate", spying)
        fresh = EvaluationEngine(persist=PersistentStore(str(tmp_path)))
        resumed = fresh.evaluate_matrix(
            binaries, [make_site("jr-a"), make_site("jr-b")])
        fresh.close()
        assert len(evaluated) == 1              # only the missing cell
        assert fresh.stats.evaluation_hits == 3
        # The resumed grid tells the same story as the full run's.
        for cell in resumed.cells:
            mate = full.cell(cell.binary_id, cell.site_name)
            assert cell.outcome_word == mate.outcome_word
            assert cell.ready == mate.ready
        # The store converged: the missing cell was written back.
        assert len(segment.read_text().splitlines()) == 4

    def test_restored_cells_report_no_wall_time_surprises(
            self, make_site, compiled_app, tmp_path):
        engine = EvaluationEngine(persist=PersistentStore(str(tmp_path)))
        first = engine.evaluate_matrix(_binaries(compiled_app),
                                       [make_site("jr-c")])
        engine.close()
        fresh = EvaluationEngine(persist=PersistentStore(str(tmp_path)))
        restored = fresh.evaluate_matrix(_binaries(compiled_app),
                                         [make_site("jr-c")])
        fresh.close()
        cell = restored.cells[0]
        assert cell.report.cache.tier == "disk"
        assert cell.report.feam_seconds == round(
            first.cells[0].report.feam_seconds, 6)
        assert cell.report.failure is None


class TestChaosDeterminism:
    def _run(self, make_site, compiled_app):
        """One full chaos run on fresh sites: (render, events, plan)."""
        sites = [make_site("chaos-a"), make_site("chaos-b")]
        plan = FaultPlan.profile("flaky", seed=7)
        plan.arm(sites)
        sink = WideEventSink()
        engine = EvaluationEngine(max_workers=1)
        try:
            with faults.injecting(plan):
                result = engine.evaluate_matrix(
                    _binaries(compiled_app, count=2), sites,
                    wide_sink=sink)
        finally:
            FaultPlan.disarm(sites)
        events = [{key: value for key, value in event.items()
                   if key != "wall_seconds"} for event in sink.events()]
        return result.render(verbose=True), events, plan

    def test_same_seed_runs_are_byte_identical(self, make_site,
                                               compiled_app):
        render_a, events_a, plan_a = self._run(make_site, compiled_app)
        render_b, events_b, plan_b = self._run(make_site, compiled_app)
        assert render_a == render_b
        assert events_a == events_b             # same wide events
        assert plan_a.summary() == plan_b.summary()
        assert plan_a.injected > 0              # the runs did fault
