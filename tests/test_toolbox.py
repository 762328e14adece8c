"""Unix tool emulation tests."""

import pytest

from repro.elf.reader import ElfError
from repro.toolchain.compilers import Language
from repro.tools.toolbox import ObjdumpInfo, Toolbox, ToolUnavailable


@pytest.fixture
def site(make_site):
    return make_site("toolsite")


@pytest.fixture
def toolbox(site):
    return Toolbox(site.machine)


@pytest.fixture
def app_path(site):
    stack = site.find_stack("openmpi-1.4-intel")
    app = site.compile_mpi_program("tool-test-app", Language.FORTRAN, stack)
    site.machine.fs.write("/home/user/app", app.image, mode=0o755)
    return "/home/user/app"


class TestObjdump:
    def test_basic_fields(self, toolbox, app_path):
        info = toolbox.objdump_p(app_path)
        assert info.file_format == "elf64-x86-64"
        assert info.bits == 64
        assert info.is_dynamic
        assert "libmpi.so.0" in info.needed
        assert info.needed[-1] == "libc.so.6"

    def test_version_references(self, toolbox, app_path):
        info = toolbox.objdump_p(app_path)
        refs = dict()
        for filename, version in info.version_references:
            refs.setdefault(filename, []).append(version)
        assert any(v.startswith("GLIBC_") for v in refs["libc.so.6"])
        assert "GFORTRAN_1.0" in refs.get("libifcore.so.5", []) or \
            "libgfortran.so.1" not in info.needed

    def test_shared_library_soname(self, toolbox, site):
        info = toolbox.objdump_p("/usr/lib64/libgfortran.so.1")
        assert info.soname == "libgfortran.so.1"
        assert "GFORTRAN_1.0" in info.version_definitions

    def test_missing_file(self, toolbox):
        from repro.sysmodel.fs import FsError
        with pytest.raises(FsError):
            toolbox.objdump_p("/nonexistent")

    def test_unavailable(self, site, app_path):
        limited = Toolbox(site.machine, frozenset({"ldd"}))
        with pytest.raises(ToolUnavailable):
            limited.objdump_p(app_path)


class TestReadelfComment:
    def test_compiler_banner(self, toolbox, app_path):
        comment = toolbox.readelf_comment(app_path)
        assert any(c.startswith("Intel") for c in comment)


class TestLdd:
    def test_resolves_with_stack_env(self, site, toolbox, app_path):
        stack = site.find_stack("openmpi-1.4-intel")
        env = site.env_with_stack(stack)
        result = toolbox.ldd(app_path, env)
        assert result.recognised
        assert result.missing == ()
        resolved = {e.soname: e.path for e in result.entries}
        assert resolved["libmpi.so.0"].startswith(stack.libdir)

    def test_reports_missing_without_env(self, toolbox, app_path, site):
        result = toolbox.ldd(app_path, site.machine.env)
        assert "libmpi.so.0" in result.missing
        assert "not found" in result.render()

    def test_version_information_present(self, site, toolbox, app_path):
        env = site.env_with_stack(site.find_stack("openmpi-1.4-intel"))
        result = toolbox.ldd(app_path, env)
        versions = {v for _req, v, _lib, _path in result.version_info}
        assert any(v.startswith("GLIBC_") for v in versions)

    def test_static_binary_not_dynamic(self, site, toolbox):
        from repro.elf import BinarySpec, write_elf
        site.machine.fs.write("/home/user/static",
                              write_elf(BinarySpec(statically_linked=True)),
                              mode=0o755)
        result = toolbox.ldd("/home/user/static")
        assert not result.recognised
        assert "not a dynamic executable" in result.render()

    def test_pgi_binary_quirk(self, make_site):
        """Section V.A: ldd cannot be relied on for every binary."""
        from repro.mpi.implementations import open_mpi
        from repro.sites.site import StackRequest
        from repro.toolchain.compilers import CompilerFamily, pgi
        site = make_site(
            "pgisite", vendor_compilers=(pgi("10.3"),),
            stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.PGI),))
        stack = site.find_stack("openmpi-1.4-pgi")
        app = site.compile_mpi_program("papp", Language.FORTRAN, stack)
        site.machine.fs.write("/home/user/papp", app.image, mode=0o755)
        result = Toolbox(site.machine).ldd("/home/user/papp")
        assert not result.recognised


class TestSearch:
    def test_locate_finds_everywhere(self, toolbox):
        hits = toolbox.locate("libimf.so")
        assert "/opt/intel-11.1/lib/libimf.so" in hits

    def test_search_falls_back_to_find(self, site):
        limited = Toolbox(site.machine,
                          Toolbox.ALL_TOOLS - frozenset({"locate"}))
        hits = limited.search_library("libimf.so")
        assert any("intel" in h for h in hits)

    def test_loader_visible_respects_env(self, site, toolbox):
        from repro.sysmodel.env import Environment
        assert toolbox.loader_visible_library(
            "libimf.so", site.machine.env) is None  # /opt not loaded
        env = Environment({"LD_LIBRARY_PATH": "/opt/intel-11.1/lib"})
        assert toolbox.loader_visible_library("libimf.so", env) == \
            "/opt/intel-11.1/lib/libimf.so"

    def test_loader_visible_trusted_dirs(self, toolbox):
        assert toolbox.loader_visible_library("libz.so.1") == \
            "/usr/lib64/libz.so.1"

    def test_search_library_stem(self, toolbox):
        hits = toolbox.search_library_stem("libmpi")
        assert any(h.endswith("libmpi.so.0") for h in hits)


class TestSystemQueries:
    def test_uname(self, toolbox):
        assert toolbox.uname_p() == "x86_64"

    def test_cat_proc_version(self, toolbox):
        assert "Linux version" in toolbox.cat("/proc/version")

    def test_list_glob(self, toolbox):
        releases = toolbox.list_glob("/etc", "release")
        assert "/etc/redhat-release" in releases

    def test_run_libc_binary(self, toolbox):
        banner = toolbox.run_libc_binary("/lib64/libc.so.6")
        assert banner is not None and "2.5" in banner

    def test_run_libc_binary_missing(self, toolbox):
        assert toolbox.run_libc_binary("/nope") is None

    def test_libc_version_via_api(self, toolbox):
        assert toolbox.libc_version_via_api("/lib64/libc.so.6") == "2.5"


class TestWrapperInspection:
    def test_wrapper_compiler(self, site, toolbox):
        stack = site.find_stack("openmpi-1.4-intel")
        driver = toolbox.wrapper_compiler(stack.wrapper_path("mpicc"))
        assert driver == "/opt/intel-11.1/bin/icc"

    def test_wrapper_compiler_on_elf_returns_none(self, site, toolbox):
        stack = site.find_stack("openmpi-1.4-intel")
        assert toolbox.wrapper_compiler(stack.mpiexec_path) is None

    def test_compiler_banner(self, toolbox):
        banner = toolbox.compiler_banner("/opt/intel-11.1/bin/icc")
        assert banner is not None and "11.1" in banner


def test_tool_output_matches_the_binary_description(paper_sites):
    """``objdump -p`` and ``readelf -p .comment`` print, for every ELF
    file of a paper site, what its parse says."""
    machine = paper_sites[0].machine
    toolbox = Toolbox(machine)
    checked = 0
    for path in machine.fs.find_files("/"):
        try:
            elf = machine.read_elf(path)
        except ElfError:
            continue
        isa_name = elf.header.machine.display_name
        dynamic = elf.dynamic
        assert toolbox.objdump_p(path) == ObjdumpInfo(
            file_format=f"elf{elf.header.bits}-{isa_name}",
            machine=isa_name, bits=elf.header.bits,
            is_dynamic=elf.is_dynamic, needed=dynamic.needed,
            soname=dynamic.soname, rpath=dynamic.rpath,
            runpath=dynamic.runpath,
            version_references=tuple(
                (req.filename, v.name)
                for req in elf.version_requirements for v in req.versions),
            version_definitions=tuple(
                d.name.name for d in elf.version_definitions))
        assert toolbox.readelf_comment(path) == elf.comment
        checked += 1
    assert checked > 50
