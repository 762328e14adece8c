"""MPI implementation, stack and runtime model tests."""

import pytest

from repro.elf import parse_elf
from repro.mpi.implementations import (
    MpiImplementationKind,
    mpich2,
    mvapich2,
    open_mpi,
)
from repro.mpi.runtime import AbiPairRates, classify_pair
from repro.mpi.stack import Interconnect, MpiStackSpec
from repro.toolchain.compilers import Language, gnu, intel


class TestImplementations:
    def test_version_tuple_handles_prereleases(self):
        assert mvapich2("1.7rc1").version_tuple == (1, 7)
        assert mvapich2("1.7a2").version_tuple == (1, 7)
        assert open_mpi("1.4").version_tuple == (1, 4)

    def test_openmpi_app_deps_table1_identifiers(self):
        sonames = [d.soname for d in open_mpi("1.4").app_deps(Language.C)]
        assert "libmpi.so.0" in sonames
        assert "libnsl.so.1" in sonames and "libutil.so.1" in sonames

    def test_openmpi_fortran_adds_f77_f90(self):
        sonames = [d.soname
                   for d in open_mpi("1.4").app_deps(Language.FORTRAN)]
        assert sonames[0] == "libmpi_f77.so.0"
        assert "libmpi_f90.so.0" in sonames

    def test_mvapich_identifiers(self):
        sonames = [d.soname for d in mvapich2("1.7a").app_deps(Language.C)]
        assert "libibverbs.so.1" in sonames
        assert "libibumad.so.3" in sonames
        assert any(s.startswith("libmpich.so") for s in sonames)

    def test_mpich2_lacks_ib_identifiers(self):
        sonames = [d.soname for d in mpich2("1.4").app_deps(Language.C)]
        assert not any("ibverbs" in s or "ibumad" in s for s in sonames)
        assert "libmpich.so.3" in sonames

    def test_mvapich_soname_changed_at_1_7(self):
        old = [d.soname for d in mvapich2("1.2").app_deps(Language.C)]
        new = [d.soname for d in mvapich2("1.7a2").app_deps(Language.C)]
        assert "libmpich.so.1.0" in old
        assert "libmpich.so.3" in new

    def test_products_cover_app_deps(self):
        """Every MPI-owned soname an app links must be shipped."""
        system_libs = {"libnsl.so.1", "libutil.so.1", "libm.so.6",
                       "librt.so.1", "libdl.so.2", "libibverbs.so.1",
                       "libibumad.so.3", "librdmacm.so.1"}
        for release in (open_mpi("1.3"), open_mpi("1.4"), mpich2("1.3"),
                        mpich2("1.4"), mvapich2("1.2"), mvapich2("1.7a")):
            shipped = {p.soname for p in release.products()}
            for lang in (Language.C, Language.FORTRAN):
                for dep in release.app_deps(lang):
                    if dep.soname not in system_libs:
                        assert dep.soname in shipped, (release, dep.soname)

    def test_factories_cache(self):
        assert open_mpi("1.4") is open_mpi("1.4")


class TestStackSpec:
    def test_slug_and_fingerprint(self):
        spec = MpiStackSpec(open_mpi("1.4"), intel("12.0"),
                            Interconnect.INFINIBAND)
        assert spec.slug == "openmpi-1.4-intel"
        assert spec.fingerprint == ("Open MPI", "1.4", "intel", "12.0")

    def test_str(self):
        spec = MpiStackSpec(mvapich2("1.7a"), gnu("4.1.2"),
                            Interconnect.INFINIBAND)
        assert "MVAPICH2 1.7a" in str(spec)
        assert "gnu" in str(spec)


class TestStackInstall:
    @pytest.fixture
    def installed(self, mini_site):
        return mini_site.find_stack("openmpi-1.4-intel")

    def test_layout(self, mini_site, installed):
        fs = mini_site.machine.fs
        assert fs.is_file(installed.wrapper_path("mpicc"))
        assert fs.is_file(installed.wrapper_path("mpif90"))
        assert fs.is_file(installed.mpiexec_path)
        assert fs.is_file(installed.prefix + "/include/mpi.h")
        assert fs.is_file(installed.libdir + "/libmpi.so.0")

    def test_wrapper_reveals_compiler(self, mini_site, installed):
        text = mini_site.machine.fs.read_text(
            installed.wrapper_path("mpicc"))
        assert "CC=" in text
        assert "icc" in text

    def test_installed_library_is_valid_elf(self, mini_site, installed):
        fs = mini_site.machine.fs
        real = fs.realpath(installed.libdir + "/libmpi.so.0")
        elf = parse_elf(fs.read(real))
        assert elf.dynamic.soname == "libmpi.so.0"
        assert "libopen-rte.so.0" in elf.dynamic.needed

    def test_env_additions_include_vendor_compiler(self, installed):
        additions = dict()
        for var, path in installed.env_additions():
            additions.setdefault(var, []).append(path)
        assert installed.libdir in additions["LD_LIBRARY_PATH"]
        assert any("intel" in p for p in additions["LD_LIBRARY_PATH"])

    def test_gnu_stack_omits_system_compiler_dirs(self, mini_site):
        stack = mini_site.find_stack("openmpi-1.4-gnu")
        lib_additions = [p for var, p in stack.env_additions()
                         if var == "LD_LIBRARY_PATH"]
        assert lib_additions == [stack.libdir]

    def test_module_name(self, installed):
        assert installed.module_name == "openmpi/1.4-intel"


class TestAbiPairClassification:
    def spec(self, release, compiler):
        return MpiStackSpec(release, compiler, Interconnect.INFINIBAND)

    def test_identical_pair_is_clean(self):
        a = self.spec(open_mpi("1.4"), intel("12.0"))
        assert classify_pair(a, a) == AbiPairRates(0.0, 0.0)

    def test_same_release_other_compiler_version_is_clean(self):
        a = self.spec(open_mpi("1.4"), intel("12.0"))
        b = self.spec(open_mpi("1.4"), intel("11.1"))
        assert classify_pair(a, b).total == 0.0

    def test_compiler_family_mismatch(self):
        a = self.spec(open_mpi("1.4"), intel("12.0"))
        b = self.spec(open_mpi("1.4"), gnu("4.4.5"))
        rates = classify_pair(a, b)
        assert rates.total > 0

    def test_version_mismatch_worse_than_series_mismatch(self):
        base = self.spec(mvapich2("1.7a"), gnu("4.1.2"))
        series = self.spec(mvapich2("1.7a2"), gnu("4.1.2"))
        version = self.spec(mvapich2("1.2"), gnu("4.1.2"))
        assert classify_pair(base, series).total < \
            classify_pair(base, version).total

    def test_compiler_mismatch_adds_risk(self):
        a = self.spec(open_mpi("1.3"), gnu("3.4.6"))
        same_family = self.spec(open_mpi("1.4"), gnu("4.1.2"))
        cross_family = self.spec(open_mpi("1.4"), intel("11.1"))
        assert classify_pair(a, cross_family).total > \
            classify_pair(a, same_family).total
