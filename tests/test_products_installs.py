"""Library products, compiler installs, and the errors taxonomy."""

import pytest

from repro.elf import parse_elf
from repro.sysmodel.errors import (
    ExecutionFailure,
    ExecutionResult,
    FailureKind,
)
from repro.sysmodel.fs import VirtualFilesystem
from repro.sysmodel.machine import Machine
from repro.sysmodel.distro import RHEL_6_1
from repro.toolchain.compilers import gnu, intel, pgi, Language
from repro.toolchain.installs import CompilerInstall
from repro.toolchain.libc import glibc
from repro.toolchain.products import LibraryProduct
from tests.conftest import required_glibc


class TestLibraryProduct:
    def test_install_writes_soname_symlink(self):
        fs = VirtualFilesystem()
        product = LibraryProduct("libdemo.so.2",
                                 filename="libdemo.so.2.0.1", size=1000)
        path = product.install(fs, "/usr/lib64", glibc("2.5"))
        assert path == "/usr/lib64/libdemo.so.2"
        assert fs.is_symlink(path)
        assert fs.is_file("/usr/lib64/libdemo.so.2.0.1")

    def test_glibc_requirement_capped_by_ceiling(self):
        fs = VirtualFilesystem()
        LibraryProduct("liba.so.1", glibc_ceiling=(2, 3, 4)).install(
            fs, "/usr/lib64", glibc("2.12"))
        elf = parse_elf(fs.read("/usr/lib64/liba.so.1"))
        assert required_glibc(elf) == "2.3.4"

    def test_glibc_requirement_capped_by_site_libc(self):
        fs = VirtualFilesystem()
        LibraryProduct("libb.so.1", glibc_ceiling=(2, 7)).install(
            fs, "/usr/lib64", glibc("2.5"))
        elf = parse_elf(fs.read("/usr/lib64/libb.so.1"))
        assert required_glibc(elf) == "2.5"

    def test_verdefs_written(self):
        fs = VirtualFilesystem()
        LibraryProduct("libf.so.3", verdefs=("F_1.0", "F_2.0")).install(
            fs, "/usr/lib64", glibc("2.5"))
        elf = parse_elf(fs.read("/usr/lib64/libf.so.3"))
        assert tuple(d.name.name for d in elf.version_definitions) == (
            "libf.so.3", "F_1.0", "F_2.0")

    def test_needed_includes_libc(self):
        fs = VirtualFilesystem()
        LibraryProduct("libg.so.1", needed=("libm.so.6",)).install(
            fs, "/usr/lib64", glibc("2.5"))
        elf = parse_elf(fs.read("/usr/lib64/libg.so.1"))
        assert elf.dynamic.needed == ("libm.so.6", "libc.so.6")

    def test_size_is_realistic(self):
        fs = VirtualFilesystem()
        LibraryProduct("libh.so.1", size=2_000_000).install(
            fs, "/usr/lib64", glibc("2.5"))
        assert fs.size("/usr/lib64/libh.so.1") > 2_000_000


class TestCompilerInstall:
    @pytest.fixture
    def machine(self):
        return Machine("host", "x86_64", RHEL_6_1)

    def test_system_gnu_layout(self, machine):
        install = CompilerInstall.system_gnu(gnu("4.4.5"))
        install.install(machine, glibc("2.12"))
        assert install.on_default_loader_path
        assert machine.fs.is_executable("/usr/bin/gcc")
        assert machine.fs.is_executable("/usr/bin/gfortran")
        assert machine.fs.is_file("/usr/lib64/libstdc++.so.6")

    def test_system_gnu_requires_gnu(self):
        with pytest.raises(ValueError):
            CompilerInstall.system_gnu(intel("12.0"))

    def test_vendor_intel_layout(self, machine):
        install = CompilerInstall.vendor(intel("12.0"))
        install.install(machine, glibc("2.12"))
        assert not install.on_default_loader_path
        assert machine.fs.is_executable("/opt/intel-12.0/bin/icc")
        assert machine.fs.is_executable("/opt/intel-12.0/bin/ifort")
        assert machine.fs.is_file("/opt/intel-12.0/lib/libimf.so")

    def test_pgi_libso_dir(self, machine):
        install = CompilerInstall.vendor(pgi("10.3"))
        install.install(machine, glibc("2.12"))
        assert install.libdir == "/opt/pgi-10.3/libso"
        assert machine.fs.is_file("/opt/pgi-10.3/libso/libpgf90.so")

    def test_driver_path(self):
        install = CompilerInstall.vendor(intel("11.1"))
        assert install.driver_path(Language.FORTRAN) == \
            "/opt/intel-11.1/bin/ifort"

    def test_driver_binaries_carry_banner(self, machine):
        install = CompilerInstall.vendor(pgi("7.2"))
        install.install(machine, glibc("2.12"))
        elf = parse_elf(machine.fs.read("/opt/pgi-7.2/bin/pgcc"))
        assert any("PGI" in c for c in elf.comment)


class TestErrorTaxonomy:
    def test_predictability(self):
        assert not FailureKind.SYSTEM_ERROR.predictable
        for kind in FailureKind:
            if kind is not FailureKind.SYSTEM_ERROR:
                assert kind.predictable

    def test_result_constructors(self):
        ok = ExecutionResult.success(stdout="done", elapsed_seconds=3.0)
        assert ok.ok and ok.failure is None
        bad = ExecutionResult.fail(FailureKind.MISSING_LIBRARY, "libx")
        assert not bad.ok
        assert bad.failure == ExecutionFailure(
            FailureKind.MISSING_LIBRARY, "libx")
        assert "missing-shared-library" in str(bad.failure)
