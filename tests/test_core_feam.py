"""FEAM orchestration and TEC tests: source/target phases end-to-end."""

import pytest

from repro.core import Feam, FeamConfig
from repro.core.prediction import Determinant, PredictionMode
from repro.mpi.implementations import mpich2, open_mpi
from repro.sites.site import StackRequest
from repro.toolchain.compilers import CompilerFamily, Language


@pytest.fixture
def donor(make_site):
    return make_site("donor")


@pytest.fixture
def feam():
    return Feam()


def _build_app(site, stack_slug="openmpi-1.4-intel",
               language=Language.FORTRAN, name="app", **compile_kwargs):
    stack = site.find_stack(stack_slug)
    app = site.compile_mpi_program(name, language, stack, **compile_kwargs)
    path = f"/home/user/{name}"
    site.machine.fs.write(path, app.image, mode=0o755)
    return stack, app, path


class TestSourcePhase:
    def test_bundle_contents(self, donor, feam):
        stack, _app, path = _build_app(donor)
        bundle = feam.run_source_phase(donor, path,
                                       env=donor.env_with_stack(stack))
        assert bundle.created_at == "donor"
        assert bundle.description.mpi_implementation == "Open MPI"
        assert bundle.copied_count > 5
        assert bundle.copy_bytes > 1_000_000
        assert bundle.library("libc.so.6") is not None
        assert not bundle.library("libc.so.6").copied

    def test_hello_programs_compiled(self, donor, feam):
        stack, _app, path = _build_app(donor)
        bundle = feam.run_source_phase(donor, path,
                                       env=donor.env_with_stack(stack))
        assert bundle.hello is not None
        assert "c" in bundle.hello.images
        assert "fortran" in bundle.hello.images
        assert bundle.hello.best() == bundle.hello.images["c"]

    def test_summary_written(self, donor, feam):
        stack, _app, path = _build_app(donor)
        feam.run_source_phase(donor, path, env=donor.env_with_stack(stack))
        summary = donor.machine.fs.read_text(
            "/home/user/feam/out/source-app.txt")
        assert "Open MPI" in summary
        assert "libmpi.so.0" in summary

    def test_bundle_merging(self, donor, feam):
        stack, _app, path_a = _build_app(donor, name="app-a")
        _stack, _app, path_b = _build_app(
            donor, stack_slug="openmpi-1.4-gnu", name="app-b")
        env = donor.env_with_stack(stack)
        bundle_a = feam.run_source_phase(donor, path_a, env=env)
        bundle_b = feam.run_source_phase(
            donor, path_b, env=donor.env_with_stack(
                donor.find_stack("openmpi-1.4-gnu")))
        merged = bundle_a.merged_with(bundle_b)
        assert {r.soname for r in merged.libraries} == \
            {r.soname for r in bundle_a.libraries} | \
            {r.soname for r in bundle_b.libraries}


class TestTargetPhaseBasic:
    def test_ready_at_identical_site(self, donor, feam, make_site):
        twin = make_site("twin")
        _stack, app, _ = _build_app(donor)
        twin.machine.fs.write("/home/user/app", app.image, mode=0o755)
        report = feam.run_target_phase(twin, binary_path="/home/user/app")
        assert report.ready
        assert report.prediction.mode is PredictionMode.BASIC
        assert report.selected_stack_prefix == "/opt/openmpi-1.4-intel"

    def test_missing_intel_runtime_predicted(self, donor, feam, make_site):
        bare = make_site(
            "bare", vendor_compilers=(),
            stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU),))
        _stack, app, _ = _build_app(donor)
        bare.machine.fs.write("/home/user/app", app.image, mode=0o755)
        report = feam.run_target_phase(bare, binary_path="/home/user/app")
        assert not report.ready
        assert "libifcore.so.5" in report.prediction.missing_libraries
        shared = report.prediction.determinant(Determinant.SHARED_LIBRARIES)
        assert shared.passed is False

    def test_no_matching_mpi_predicted(self, donor, feam, make_site):
        mpich_only = make_site(
            "mpichonly",
            stacks=(StackRequest(mpich2("1.4"), CompilerFamily.GNU),))
        _stack, app, _ = _build_app(donor)
        mpich_only.machine.fs.write("/home/user/app", app.image, mode=0o755)
        report = feam.run_target_phase(mpich_only,
                                       binary_path="/home/user/app")
        assert not report.ready
        assert report.prediction.determinant(
            Determinant.MPI_STACK).passed is False

    def test_libc_too_old_predicted(self, feam, make_site):
        new = make_site("new", libc_version="2.12",
                        system_gnu_version="4.4.5")
        old = make_site("old", libc_version="2.3.4",
                        system_gnu_version="3.4.6")
        _stack, app, _ = _build_app(new, stack_slug="openmpi-1.4-gnu",
                                    language=Language.C,
                                    glibc_ceiling=(2, 7))
        old.machine.fs.write("/home/user/app", app.image, mode=0o755)
        report = feam.run_target_phase(old, binary_path="/home/user/app")
        assert not report.ready
        assert report.prediction.determinant(
            Determinant.C_LIBRARY).passed is False
        # Short-circuit: MPI determinant never evaluated.
        assert report.prediction.determinant(
            Determinant.MPI_STACK).passed is None

    def test_misconfigured_stack_detected(self, donor, feam, make_site):
        broken = make_site("broken",
                           misconfigured=("openmpi-1.4-intel",
                                          "openmpi-1.4-gnu"))
        _stack, app, _ = _build_app(donor)
        broken.machine.fs.write("/home/user/app", app.image, mode=0o755)
        report = feam.run_target_phase(broken, binary_path="/home/user/app")
        assert not report.ready
        assert report.prediction.determinant(
            Determinant.MPI_STACK).passed is False

    def test_output_file_written(self, donor, feam, make_site):
        twin = make_site("twin2")
        _stack, app, _ = _build_app(donor)
        twin.machine.fs.write("/home/user/app", app.image, mode=0o755)
        report = feam.run_target_phase(twin, binary_path="/home/user/app",
                                       staging_tag="t1")
        text = twin.machine.fs.read_text(report.output_path)
        assert "FEAM target phase report" in text
        assert "READY" in text

    def test_requires_binary_or_bundle(self, feam, make_site):
        site = make_site("empty-args")
        with pytest.raises(ValueError):
            feam.run_target_phase(site)


class TestTargetPhaseExtended:
    def test_resolution_enables_readiness(self, donor, feam, make_site):
        bare = make_site(
            "bare2", vendor_compilers=(),
            stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU),))
        stack, app, path = _build_app(donor)
        bundle = feam.run_source_phase(donor, path,
                                       env=donor.env_with_stack(stack))
        bare.machine.fs.write("/home/user/app", app.image, mode=0o755)
        report = feam.run_target_phase(bare, binary_path="/home/user/app",
                                       bundle=bundle, staging_tag="x1")
        assert report.prediction.mode is PredictionMode.EXTENDED
        assert report.ready
        assert report.prediction.requires_resolution
        assert report.resolution is not None and report.resolution.staged
        # And the binary genuinely loads in the produced environment.
        failure, _ = bare.machine.check_loadable(
            app.image, report.run_environment)
        assert failure is None

    def test_binary_not_needed_at_target(self, donor, feam, make_site):
        twin = make_site("twin3")
        stack, _app, path = _build_app(donor)
        bundle = feam.run_source_phase(donor, path,
                                       env=donor.env_with_stack(stack))
        report = feam.run_target_phase(twin, bundle=bundle,
                                       staging_tag="x2")
        assert report.ready

    def test_feam_cost_under_five_minutes(self, donor, feam, make_site):
        twin = make_site("twin4")
        stack, app, path = _build_app(donor)
        bundle = feam.run_source_phase(donor, path,
                                       env=donor.env_with_stack(stack))
        twin.machine.fs.write("/home/user/app", app.image, mode=0o755)
        report = feam.run_target_phase(twin, binary_path="/home/user/app",
                                       bundle=bundle, staging_tag="x3")
        assert report.feam_seconds < 300.0


class TestHelloProbeAttempts:
    def test_each_probe_kind_is_submitted_twice(self, donor, make_site,
                                                feam, monkeypatch):
        """Every hello probe gets two attempts, named and numbered per
        kind, and a probe that fails both reports the last failure."""
        from repro.core.evaluation import TargetEvaluationComponent
        stack, _app, path = _build_app(donor)
        bundle = feam.run_source_phase(donor, path,
                                       env=donor.env_with_stack(stack))
        target = make_site("flaky-target")
        target.simulator.transient_error_probability = 1.0
        submitted = []
        execute = target.execute

        def recording(name, *args, attempt=0, **kwargs):
            submitted.append((name, attempt))
            return execute(name, *args, attempt=attempt, **kwargs)

        monkeypatch.setattr(target, "execute", recording)
        tec = TargetEvaluationComponent(target)
        candidate = next(s for s in tec.environment().stacks
                         if s.label == "openmpi/1.4-intel")
        assessment = tec.assess_stack(candidate, bundle)
        retest = tec.run_imported_hello(
            candidate, bundle, tec.edc.env_for_stack(candidate),
            "/home/user/feam/stage")
        label = candidate.label
        assert submitted == [
            (f"feam:hello-{kind}:{label}", attempt)
            for kind in ("native", "imported", "retest")
            for attempt in (0, 1)]
        failure = "system-error: mpiexec: transient daemon spawn failure"
        assert assessment.native_hello_ok is False
        assert assessment.imported_hello_ok is False
        assert assessment.notes == (f"native hello failed: {failure}; "
                                    f"imported hello failed: {failure}")
        assert retest == (False, "mpiexec: transient daemon spawn failure")
