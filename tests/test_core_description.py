"""Binary Description Component tests (paper Section V.A, Figure 3)."""

import pytest

from repro.core.description import (
    BinaryDescriptionComponent,
    DescriptionError,
    identify_mpi_implementation,
    required_glibc_from_versions,
)
from repro.elf import BinarySpec, write_elf
from repro.toolchain.compilers import Language
from repro.tools.toolbox import Toolbox


@pytest.fixture
def site(make_site):
    return make_site("bdcsite")


@pytest.fixture
def stack(site):
    return site.find_stack("openmpi-1.4-intel")


@pytest.fixture
def app_path(site, stack):
    app = site.compile_mpi_program("bdc-app", Language.FORTRAN, stack,
                                   glibc_ceiling=(2, 4))
    site.machine.fs.write("/home/user/app", app.image, mode=0o755)
    return "/home/user/app"


@pytest.fixture
def bdc(site, stack):
    return BinaryDescriptionComponent(site.toolbox(),
                                      site.env_with_stack(stack))


class TestIdentification:
    """Table I's identification scheme."""

    def test_open_mpi(self):
        assert identify_mpi_implementation(
            ("libmpi.so.0", "libnsl.so.1", "libutil.so.1",
             "libc.so.6")) == "Open MPI"

    def test_open_mpi_fortran(self):
        assert identify_mpi_implementation(
            ("libmpi_f77.so.0", "libmpi.so.0", "libc.so.6")) == "Open MPI"

    def test_mvapich2(self):
        assert identify_mpi_implementation(
            ("libmpich.so.1.0", "libibverbs.so.1", "libibumad.so.3",
             "libc.so.6")) == "MVAPICH2"

    def test_mpich2_without_ib(self):
        assert identify_mpi_implementation(
            ("libmpich.so.3", "librt.so.1", "libc.so.6")) == "MPICH2"

    def test_mpichf90_counts(self):
        assert identify_mpi_implementation(
            ("libmpichf90.so.3", "libc.so.6")) == "MPICH2"

    def test_non_mpi(self):
        assert identify_mpi_implementation(
            ("libc.so.6", "libm.so.6")) is None


class TestRequiredGlibc:
    def test_from_references(self):
        refs = (("libc.so.6", "GLIBC_2.2.5"), ("libc.so.6", "GLIBC_2.7"),
                ("libm.so.6", "GLIBC_2.3.4"))
        assert required_glibc_from_versions(refs, ()) == "2.7"

    def test_numeric_not_lexicographic(self):
        refs = (("libc.so.6", "GLIBC_2.10"), ("libc.so.6", "GLIBC_2.9"))
        assert required_glibc_from_versions(refs, ()) == "2.10"

    def test_definitions_counted(self):
        assert required_glibc_from_versions(
            (), ("GLIBC_2.5", "OTHER_1.0")) == "2.5"

    def test_private_ignored(self):
        refs = (("libc.so.6", "GLIBC_PRIVATE"),)
        assert required_glibc_from_versions(refs, ()) is None
        refs += (("libc.so.6", "GLIBC_ABI_DT_RELR"),
                 ("libc.so.6", "GLIBC_2.34"))
        assert required_glibc_from_versions(refs, ()) == "2.34"

    def test_none_when_no_glibc(self):
        assert required_glibc_from_versions(
            (("libfoo.so.1", "FOO_1.0"),), ()) is None

    def test_simulated_binary_naming_abi_dt_relr(self, paper_sites):
        """A binary whose references name glibc 2.36's
        ``GLIBC_ABI_DT_RELR`` is described by its numbered versions."""
        machine = paper_sites[0].machine.clone("relr-host")
        machine.fs.write("/home/user/relr-app", write_elf(BinarySpec(
            needed=("libc.so.6",),
            version_requirements={"libc.so.6": (
                "GLIBC_2.3.4", "GLIBC_ABI_DT_RELR", "GLIBC_PRIVATE")})),
            mode=0o755)
        description = BinaryDescriptionComponent(Toolbox(machine)).describe(
            "/home/user/relr-app")
        assert description.required_glibc == "2.3.4"


class TestDescribe:
    def test_figure3_fields(self, bdc, app_path):
        d = bdc.describe(app_path)
        assert d.file_format == "elf64-x86-64"
        assert d.isa_name == "x86-64" and d.bits == 64
        assert d.is_dynamic and not d.is_shared_library
        assert d.mpi_implementation == "Open MPI"
        assert d.required_glibc == "2.4"
        assert d.build_compiler_hint.startswith("Intel")
        assert d.gathered_via == "objdump"

    def test_describe_shared_library(self, bdc, site):
        d = bdc.describe("/usr/lib64/libgfortran.so.1")
        assert d.is_shared_library
        assert d.soname == "libgfortran.so.1"
        assert d.library_version == (1,)

    def test_fallback_to_ldd_without_objdump(self, site, stack, app_path):
        toolbox = Toolbox(site.machine,
                          Toolbox.ALL_TOOLS - frozenset({"objdump"}))
        bdc = BinaryDescriptionComponent(toolbox,
                                         site.env_with_stack(stack))
        d = bdc.describe(app_path)
        assert d.gathered_via == "ldd"
        assert d.mpi_implementation == "Open MPI"
        assert "libmpi.so.0" in d.needed
        assert d.required_glibc == "2.4"

    def test_no_tools_at_all_raises(self, site, app_path):
        toolbox = Toolbox(site.machine, frozenset({"cat"}))
        bdc = BinaryDescriptionComponent(toolbox)
        with pytest.raises((DescriptionError, Exception)):
            bdc.describe(app_path)


class TestLocateAndCopy:
    def test_locate_via_ldd(self, bdc, app_path):
        locations = bdc.locate_libraries(bdc.describe(app_path))
        assert all(path is not None for path in locations.values())
        assert locations["libmpi.so.0"].startswith("/opt/openmpi-1.4-intel")

    def test_locate_falls_back_to_search(self, site, stack, app_path):
        # Without a stack environment ldd reports missing; the search
        # still locates the files on disk (Section V.A).
        bdc = BinaryDescriptionComponent(site.toolbox(), site.machine.env)
        locations = bdc.locate_libraries(bdc.describe(app_path))
        assert locations["libmpi.so.0"] is not None

    def test_gather_copies_excludes_libc(self, bdc, app_path):
        records = bdc.gather_library_copies(bdc.describe(app_path))
        by_soname = {r.soname: r for r in records}
        assert not by_soname["libc.so.6"].copied
        assert by_soname["libmpi.so.0"].copied
        assert by_soname["libifcore.so.5"].copied

    def test_gather_copies_recursive(self, bdc, app_path):
        records = bdc.gather_library_copies(bdc.describe(app_path))
        sonames = {r.soname for r in records}
        # libmpi needs libopen-rte which needs libopen-pal: transitive
        # dependencies are described too.
        assert "libopen-pal.so.0" in sonames

    def test_copies_are_real_images(self, bdc, app_path):
        from repro.elf import parse_elf
        records = bdc.gather_library_copies(bdc.describe(app_path))
        record = next(r for r in records if r.soname == "libmpi.so.0")
        assert parse_elf(record.copy_data()).dynamic.soname == "libmpi.so.0"

    def test_library_records_carry_glibc_requirement(self, bdc, app_path):
        records = bdc.gather_library_copies(bdc.describe(app_path))
        record = next(r for r in records if r.soname == "libmpi.so.0")
        assert record.description.required_glibc is not None

    def test_describe_library_missing_path(self, bdc):
        record = bdc.describe_library("libghost.so.1", None)
        assert not record.located and not record.copied


def test_matrix_bundles_describe_libraries_as_binaries():
    """Every library a ``feam matrix --extended`` source phase describes
    carries the description the BDC gives a binary at that path."""
    from repro.core.engine import compile_test_binaries
    from repro.core.feam import Feam
    from repro.sites.catalog import build_paper_sites
    sites = build_paper_sites(20130101)
    binaries = compile_test_binaries(sites, 4, feam=Feam())
    described = 0
    for site, binary in zip(sites, binaries):
        bdc = BinaryDescriptionComponent(site.toolbox())
        for record in binary.bundle.libraries:
            if record.description is None:
                assert not record.copied
                continue
            assert record.description == bdc.describe(record.located_path)
            described += 1
    assert described >= 4 * 5
