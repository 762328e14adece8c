"""FEAM configuration file and report rendering."""

import pytest

from repro.core.config import FeamConfig
from repro.core.prediction import (
    Determinant,
    DeterminantResult,
    Prediction,
    PredictionMode,
)


class TestConfig:
    def test_defaults(self):
        config = FeamConfig()
        assert config.serial_queue == "debug"
        assert config.mpiexec_for("Open MPI") == "mpiexec"
        assert "libc.so.6" in config.copy_excludes

    def test_mpiexec_override(self):
        config = FeamConfig(mpiexec_overrides={"MVAPICH2": "mpirun_rsh"})
        assert config.mpiexec_for("MVAPICH2") == "mpirun_rsh"
        assert config.mpiexec_for("Open MPI") == "mpiexec"
        assert config.mpiexec_for(None) == "mpiexec"

    def test_parse_roundtrip(self):
        original = FeamConfig(
            serial_queue="short", parallel_queue="devel",
            hello_nprocs=4, max_resolution_depth=3,
            staging_root="/scratch/stage", output_root="/scratch/out",
            mpiexec_overrides={"MVAPICH2": "mpirun_rsh"})
        parsed = FeamConfig.parse(original.render())
        assert parsed == original

    def test_parse_comments_and_blanks(self):
        config = FeamConfig.parse(
            "# a comment\n\nserial_queue = fast\n")
        assert config.serial_queue == "fast"

    def test_parse_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            FeamConfig.parse("no equals sign here")
        # Operational knobs are not configuration: worker-pool, span
        # sampling, retry, breaker, deadline, ring, ledger and cache
        # keys fail loudly, naming the line, instead of being ignored.
        for line in ("unknown_key = 1", "matrix_workers = 2",
                     "cache_shards = 16", "sampling_head_n = 100",
                     "sampling_latency_slo_seconds = 2.0",
                     "retry_max_attempts = 5", "retry_base_seconds = 1.5",
                     "retry_backoff_multiplier = 3.0",
                     "retry_max_delay_seconds = 10.0",
                     "retry_jitter = 0.1",
                     "breaker_failure_threshold = 5",
                     "breaker_probe_after = 4",
                     "cell_deadline_seconds = 60.0",
                     "wide_ring_size = 1024", "ledger_dir = runs",
                     "ledger_max_runs = 8", "cache_dir = cache",
                     "persist = false"):
            with pytest.raises(ValueError,
                               match="config line 2: unknown key"):
                FeamConfig.parse(f"serial_queue = fast\n{line}\n")


class TestPredictionTypes:
    def _prediction(self):
        return Prediction(
            ready=False, mode=PredictionMode.BASIC,
            determinants=(
                DeterminantResult(Determinant.ISA, True, "ok"),
                DeterminantResult(Determinant.C_LIBRARY, False, "too old"),
            ),
            reasons=("C library too old",))

    def test_determinant_lookup(self):
        prediction = self._prediction()
        assert prediction.determinant(Determinant.ISA).passed is True
        missing = prediction.determinant(Determinant.MPI_STACK)
        assert missing.passed is None

    def test_failed_determinants(self):
        assert self._prediction().failed_determinants == (
            Determinant.C_LIBRARY,)


class TestReportRendering:
    def test_not_ready_report_lists_reasons(self, make_site, mini_site):
        from repro.core import Feam
        from repro.mpi.implementations import open_mpi
        from repro.sites.site import StackRequest
        from repro.toolchain.compilers import CompilerFamily, Language

        stack = mini_site.find_stack("openmpi-1.4-intel")
        app = mini_site.compile_mpi_program("r-app", Language.FORTRAN, stack)
        bare = make_site(
            "bare-report", vendor_compilers=(),
            stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU),))
        bare.machine.fs.write("/home/user/r-app", app.image, mode=0o755)
        report = Feam().run_target_phase(
            bare, binary_path="/home/user/r-app", staging_tag="rr")
        text = bare.machine.fs.read_text(report.output_path)
        assert "NOT READY" in text
        assert "missing shared libraries" in text
        assert "[FAIL] shared-library-compatibility" in text
        assert "feam cpu time" in text
