"""Cross-ISA scenarios: the determinant the paper's evaluation never
exercises (all five sites were x86-64) but the model defines."""

import pytest

from repro.core import Feam
from repro.core.evaluation import isa_compatible
from repro.sysmodel.errors import FailureKind
from repro.toolchain.compilers import Language


class TestIsaCompatibilityRule:
    @pytest.mark.parametrize("binary_isa,bits,target,ok", [
        ("x86-64", 64, "x86_64", True),
        ("i386", 32, "x86_64", True),   # 64-bit x86 runs 32-bit x86
        ("x86-64", 64, "i686", False),  # not the other way around
        ("i386", 32, "i686", True),
        ("powerpc64", 64, "ppc64", True),
        ("powerpc", 32, "ppc64", True),
        ("x86-64", 64, "ppc64", False),
        ("ia64", 64, "x86_64", False),
    ])
    def test_rule(self, binary_isa, bits, target, ok):
        assert isa_compatible(binary_isa, bits, target) is ok


class TestI686Site:
    @pytest.fixture
    def i686_site(self, make_site):
        return make_site("oldbox", arch="i686")

    def test_site_builds_32bit(self, i686_site):
        fs = i686_site.machine.fs
        assert fs.is_symlink("/lib/libc.so.6")
        from repro.elf import parse_elf
        assert parse_elf(fs.read("/lib/libc.so.6")).header.bits == 32

    def test_local_32bit_app_runs(self, i686_site):
        stack = i686_site.find_stack("openmpi-1.4-gnu")
        app = i686_site.compile_mpi_program("app32", Language.C, stack)
        from repro.elf import parse_elf
        assert parse_elf(app.image).header.bits == 32
        result = i686_site.run_with_retries("app32", app.image, stack)
        assert result.ok

    def test_64bit_binary_rejected(self, i686_site, mini_site):
        stack64 = mini_site.find_stack("openmpi-1.4-gnu")
        app64 = mini_site.compile_mpi_program("app64", Language.C, stack64)
        failure, _ = i686_site.machine.check_loadable(app64.image)
        assert failure.failure.kind is FailureKind.EXEC_FORMAT

    def test_feam_predicts_isa_failure(self, i686_site, mini_site):
        stack64 = mini_site.find_stack("openmpi-1.4-gnu")
        app64 = mini_site.compile_mpi_program("app64b", Language.C, stack64)
        i686_site.machine.fs.write("/home/user/app64b", app64.image,
                                   mode=0o755)
        report = Feam().run_target_phase(
            i686_site, binary_path="/home/user/app64b", staging_tag="isa")
        assert not report.ready
        from repro.core.prediction import Determinant
        assert report.prediction.determinant(
            Determinant.ISA).passed is False
        # Short-circuits: no MPI stack testing happens.
        assert report.prediction.stack_assessments == ()

    def test_32bit_binary_runs_on_64bit_site(self, i686_site, make_site):
        """Multi-arch: an i386 binary loads on x86_64 when 32-bit
        libraries are present (here: migrated via FEAM staging)."""
        stack32 = i686_site.find_stack("openmpi-1.4-gnu")
        app32 = i686_site.compile_mpi_program("app32m", Language.C, stack32)
        target = make_site("target64")
        # FEAM's ISA determinant accepts it...
        target.machine.fs.write("/home/user/app32m", app32.image,
                                mode=0o755)
        from repro.core.prediction import Determinant
        report = Feam().run_target_phase(
            target, binary_path="/home/user/app32m", staging_tag="isa32")
        assert report.prediction.determinant(Determinant.ISA).passed is True
        # ...but the 64-bit site has no 32-bit libraries, so the
        # shared-library determinant correctly fails.
        assert not report.ready
