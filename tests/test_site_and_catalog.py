"""Site assembly and the Table II catalog."""

import pytest

from repro.elf import parse_elf
from repro.mpi.implementations import MpiImplementationKind
from repro.sites.catalog import PAPER_SITE_SPECS, site_spec
from repro.toolchain.compilers import Language


class TestSiteAssembly:
    def test_libc_installed(self, mini_site):
        fs = mini_site.machine.fs
        assert fs.is_symlink("/lib64/libc.so.6")
        elf = parse_elf(fs.read("/lib64/libc.so.6"))
        assert "GLIBC_2.5" in [d.name.name for d in elf.version_definitions]

    def test_system_compiler_runtimes_on_loader_path(self, mini_site):
        assert mini_site.machine.fs.is_file("/usr/lib64/libgcc_s.so.1")
        assert mini_site.machine.fs.is_file("/usr/lib64/libgfortran.so.1")

    def test_vendor_compiler_under_opt(self, mini_site):
        fs = mini_site.machine.fs
        assert fs.is_file("/opt/intel-11.1/bin/icc")
        assert fs.is_file("/opt/intel-11.1/lib/libimf.so")

    def test_ib_libraries_present(self, mini_site):
        assert mini_site.machine.fs.is_file("/usr/lib64/libibverbs.so.1")

    def test_module_files_written(self, mini_site):
        assert mini_site.modules is not None
        assert mini_site.modules.avail() == [
            "openmpi/1.4-gnu", "openmpi/1.4-intel"]

    def test_env_with_stack(self, mini_site):
        stack = mini_site.find_stack("openmpi-1.4-intel")
        env = mini_site.env_with_stack(stack)
        assert "/opt/openmpi-1.4-intel/bin" in env.path
        assert "/opt/openmpi-1.4-intel/lib" in env.ld_library_path
        assert "/opt/intel-11.1/lib" in env.ld_library_path

    def test_stacks_of_kind(self, mini_site):
        stacks = mini_site.stacks_of_kind(MpiImplementationKind.OPEN_MPI)
        assert len(stacks) == 2
        assert mini_site.stacks_of_kind(MpiImplementationKind.MPICH2) == []

    def test_find_stack_unknown(self, mini_site):
        with pytest.raises(KeyError):
            mini_site.find_stack("missing-stack")

    def test_stack_by_prefix(self, mini_site):
        stack = mini_site.find_stack("openmpi-1.4-gnu")
        assert mini_site.stack_by_prefix(stack.prefix) is stack
        with pytest.raises(KeyError):
            mini_site.stack_by_prefix("/opt/nothing")

    def test_compile_and_run_locally(self, mini_site):
        stack = mini_site.find_stack("openmpi-1.4-gnu")
        app = mini_site.compile_mpi_program("hello", Language.C, stack)
        result = mini_site.run_with_retries("hello", app.image, stack)
        assert result.ok

    def test_compile_with_wrapper(self, mini_site):
        stack = mini_site.find_stack("openmpi-1.4-intel")
        linked = mini_site.compile_with_wrapper(
            stack.wrapper_path("mpicc"), "probe", Language.C)
        assert "libimf.so" in linked.needed

    def test_toolbox_honours_missing_tools(self, make_site):
        from repro.tools.toolbox import ToolUnavailable
        site = make_site("notools", missing_tools=("locate", "objdump"))
        toolbox = site.toolbox()
        with pytest.raises(ToolUnavailable):
            toolbox.locate("libc.so.6")
        with pytest.raises(ToolUnavailable):
            toolbox.objdump_p("/lib64/libc.so.6")


class TestCatalog:
    def test_five_sites(self, paper_spec_names):
        assert paper_spec_names == [
            "ranger", "forge", "blacklight", "india", "fir"]

    def test_site_spec_lookup(self):
        assert site_spec("ranger").libc_version == "2.3.4"
        with pytest.raises(KeyError):
            site_spec("lonestar")

    def test_table2_row_data(self):
        by_name = {spec.name: spec for spec in PAPER_SITE_SPECS}
        assert by_name["ranger"].cores == 62_976
        assert by_name["forge"].libc_version == "2.12"
        assert by_name["blacklight"].site_type == "SMP"
        assert by_name["india"].libc_version == "2.5"
        assert len(by_name["fir"].stacks) == 9

    def test_stack_counts_match_table2(self):
        counts = {spec.name: len(spec.stacks) for spec in PAPER_SITE_SPECS}
        assert counts == {"ranger": 6, "forge": 3, "blacklight": 2,
                          "india": 6, "fir": 9}

    def test_mpi_availability_matches_paper(self, paper_sites):
        """Open MPI at 5 sites, MVAPICH2 at 4, MPICH2 at 2 (Section VI.A)."""
        availability = {kind: 0 for kind in MpiImplementationKind}
        for site in paper_sites:
            for kind in MpiImplementationKind:
                if site.stacks_of_kind(kind):
                    availability[kind] += 1
        assert availability[MpiImplementationKind.OPEN_MPI] == 5
        assert availability[MpiImplementationKind.MVAPICH2] == 4
        assert availability[MpiImplementationKind.MPICH2] == 2

    def test_paper_sites_have_expected_env_tools(self, paper_sites_by_name):
        assert paper_sites_by_name["ranger"].modules is not None
        assert paper_sites_by_name["blacklight"].softenv is not None
        fir = paper_sites_by_name["fir"]
        assert fir.modules is None and fir.softenv is None

    def test_compat_packages(self, paper_sites_by_name):
        forge = paper_sites_by_name["forge"].machine.fs
        assert forge.is_file("/usr/lib64/libgfortran.so.1")
        assert forge.is_file("/usr/lib64/libg2c.so.0")
        india = paper_sites_by_name["india"].machine.fs
        assert india.is_file("/usr/lib64/libg2c.so.0")
        ranger = paper_sites_by_name["ranger"].machine.fs
        assert not ranger.is_file("/usr/lib64/libgfortran.so.3")

    def test_ranger_is_oldest_libc(self, paper_sites):
        versions = {site.name: site.libc.version for site in paper_sites}
        assert min(versions.values()) == versions["ranger"]
