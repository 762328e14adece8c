"""Dynamic loader simulation tests."""

import pytest

from repro.elf import BinarySpec, write_elf
from repro.elf.constants import ElfClass, ElfMachine, ElfType
from repro.sysmodel.distro import CENTOS_5_6
from repro.sysmodel.env import Environment
from repro.sysmodel.errors import FailureKind
from repro.sysmodel.loader import read_ld_so_conf
from repro.sysmodel.machine import Machine


def lib_image(soname, needed=(), verdefs=(), verneed=None,
              machine=ElfMachine.X86_64, elf_class=ElfClass.ELF64):
    return write_elf(BinarySpec(
        machine=machine, elf_class=elf_class, etype=ElfType.DYN,
        soname=soname, needed=tuple(needed),
        version_definitions=tuple(verdefs),
        version_requirements=verneed or {},
        payload_size=64))


def app_image(needed, verneed=None, machine=ElfMachine.X86_64,
              elf_class=ElfClass.ELF64, rpath=None):
    return write_elf(BinarySpec(
        machine=machine, elf_class=elf_class, etype=ElfType.EXEC,
        needed=tuple(needed), version_requirements=verneed or {},
        rpath=rpath, payload_size=64))


@pytest.fixture
def machine():
    m = Machine("testhost", "x86_64", CENTOS_5_6)
    m.fs.write("/lib64/libc.so.6", lib_image(
        "libc.so.6", verdefs=("libc.so.6", "GLIBC_2.0", "GLIBC_2.5")),
        mode=0o755)
    return m


def test_resolves_from_trusted_dir(machine):
    report = machine.loader.resolve(app_image(["libc.so.6"]), machine.env)
    assert report.ok
    assert report.entries[0].path == "/lib64/libc.so.6"


def test_missing_library_reported(machine):
    report = machine.loader.resolve(
        app_image(["libmissing.so.1", "libc.so.6"]), machine.env)
    assert not report.ok
    assert report.missing_sonames == ["libmissing.so.1"]
    assert report.first_failure_kind() is FailureKind.MISSING_LIBRARY


def test_ld_library_path_precedes_trusted(machine):
    machine.fs.write("/custom/libc.so.6", lib_image(
        "libc.so.6", verdefs=("libc.so.6", "GLIBC_2.0", "GLIBC_2.5")),
        mode=0o755)
    env = Environment({"LD_LIBRARY_PATH": "/custom"})
    report = machine.loader.resolve(app_image(["libc.so.6"]), env)
    assert report.entries[0].path == "/custom/libc.so.6"


def test_rpath_precedes_ld_library_path(machine):
    machine.fs.write("/rp/libx.so.1", lib_image("libx.so.1"), mode=0o755)
    machine.fs.write("/llp/libx.so.1", lib_image("libx.so.1"), mode=0o755)
    env = Environment({"LD_LIBRARY_PATH": "/llp"})
    report = machine.loader.resolve(
        app_image(["libx.so.1", "libc.so.6"], rpath="/rp"), env)
    assert report.entries[0].path == "/rp/libx.so.1"


def test_recursive_dependency_resolution(machine):
    machine.fs.write("/usr/lib64/libb.so.1", lib_image("libb.so.1"),
                     mode=0o755)
    machine.fs.write("/usr/lib64/liba.so.1",
                     lib_image("liba.so.1", needed=["libb.so.1"]),
                     mode=0o755)
    report = machine.loader.resolve(
        app_image(["liba.so.1", "libc.so.6"]), machine.env)
    assert report.ok
    resolved = {e.soname: e.path for e in report.entries}
    assert resolved["libb.so.1"] == "/usr/lib64/libb.so.1"
    # The recursive requirement records who asked for it.
    b_entry = next(e for e in report.entries if e.soname == "libb.so.1")
    assert b_entry.requested_by == "/usr/lib64/liba.so.1"


def test_missing_transitive_dependency(machine):
    machine.fs.write("/usr/lib64/liba.so.1",
                     lib_image("liba.so.1", needed=["libgone.so.9"]),
                     mode=0o755)
    report = machine.loader.resolve(
        app_image(["liba.so.1", "libc.so.6"]), machine.env)
    assert report.missing_sonames == ["libgone.so.9"]


def test_version_satisfied(machine):
    report = machine.loader.resolve(
        app_image(["libc.so.6"],
                  verneed={"libc.so.6": ("GLIBC_2.0", "GLIBC_2.5")}),
        machine.env)
    assert report.ok


def test_version_not_found_is_libc_failure(machine):
    report = machine.loader.resolve(
        app_image(["libc.so.6"], verneed={"libc.so.6": ("GLIBC_2.7",)}),
        machine.env)
    assert not report.ok
    assert report.first_failure_kind() is FailureKind.LIBC_VERSION
    err = report.version_errors[0]
    assert err.version == "GLIBC_2.7"
    assert "GLIBC_2.7" in err.message()


def test_non_glibc_version_error_is_abi_failure(machine):
    machine.fs.write("/usr/lib64/libstdc++.so.6", lib_image(
        "libstdc++.so.6", verdefs=("libstdc++.so.6", "GLIBCXX_3.4")),
        mode=0o755)
    report = machine.loader.resolve(
        app_image(["libstdc++.so.6", "libc.so.6"],
                  verneed={"libstdc++.so.6": ("GLIBCXX_3.4.9",)}),
        machine.env)
    assert report.first_failure_kind() is FailureKind.ABI_MISMATCH


def test_wrong_arch_library_skipped(machine):
    # A 32-bit library earlier in the path must not shadow the 64-bit one.
    machine.fs.write("/lib32first/libw.so.1", lib_image(
        "libw.so.1", machine=ElfMachine.X86, elf_class=ElfClass.ELF32),
        mode=0o755)
    machine.fs.write("/usr/lib64/libw.so.1", lib_image("libw.so.1"),
                     mode=0o755)
    env = Environment({"LD_LIBRARY_PATH": "/lib32first"})
    report = machine.loader.resolve(
        app_image(["libw.so.1", "libc.so.6"]), env)
    entry = next(e for e in report.entries if e.soname == "libw.so.1")
    assert entry.path == "/usr/lib64/libw.so.1"
    assert "/lib32first" in entry.arch_skipped


def test_symlinked_soname_resolves_to_real_file(machine):
    machine.fs.write("/usr/lib64/libv.so.1.0.0", lib_image("libv.so.1"),
                     mode=0o755)
    machine.fs.symlink("/usr/lib64/libv.so.1", "libv.so.1.0.0")
    report = machine.loader.resolve(
        app_image(["libv.so.1", "libc.so.6"]), machine.env)
    entry = next(e for e in report.entries if e.soname == "libv.so.1")
    assert entry.path == "/usr/lib64/libv.so.1.0.0"


def test_static_binary_resolves_trivially(machine):
    static = write_elf(BinarySpec(statically_linked=True))
    report = machine.loader.resolve(static, machine.env)
    assert report.ok
    assert report.entries == []


def test_dependency_cycle_terminates(machine):
    machine.fs.write("/usr/lib64/libp.so.1",
                     lib_image("libp.so.1", needed=["libq.so.1"]),
                     mode=0o755)
    machine.fs.write("/usr/lib64/libq.so.1",
                     lib_image("libq.so.1", needed=["libp.so.1"]),
                     mode=0o755)
    report = machine.loader.resolve(
        app_image(["libp.so.1", "libc.so.6"]), machine.env)
    assert report.ok


def test_ld_so_conf_extra_dirs(machine):
    machine.fs.write_text("/etc/ld.so.conf",
                          "include /etc/ld.so.conf.d/*.conf\n")
    machine.fs.write_text("/etc/ld.so.conf.d/custom.conf", "/srv/libs\n")
    machine.fs.write("/srv/libs/libextra.so.2", lib_image("libextra.so.2"),
                     mode=0o755)
    assert read_ld_so_conf(machine.fs) == ["/srv/libs"]
    report = machine.loader.resolve(
        app_image(["libextra.so.2", "libc.so.6"]), machine.env)
    assert report.ok


def test_fragment_including_its_own_pattern_is_read_once(machine):
    # A fragment that includes its own pattern: the walk ends, each file
    # contributes its lines once, and a nested include is still followed.
    machine.fs.write_text("/etc/ld.so.conf",
                          "include /etc/ld.so.conf.d/*.conf\n")
    machine.fs.write_text("/etc/ld.so.conf.d/loop.conf",
                          "include /etc/ld.so.conf.d/*.conf\n/srv/libs\n")
    machine.fs.write_text("/etc/ld.so.conf.d/nested.conf",
                          "include /etc/nested.d/*.conf\n")
    machine.fs.write_text("/etc/nested.d/deep.conf", "/srv/deep\n")
    machine.fs.write("/srv/libs/libextra.so.2", lib_image("libextra.so.2"),
                     mode=0o755)
    machine.fs.write("/srv/deep/libdeep.so.1", lib_image("libdeep.so.1"),
                     mode=0o755)
    assert sorted(read_ld_so_conf(machine.fs)) == ["/srv/deep", "/srv/libs"]
    report = machine.loader.resolve(
        app_image(["libextra.so.2", "libdeep.so.1", "libc.so.6"]),
        machine.env)
    assert report.ok
    assert [report.search_order.count(d)
            for d in ("/srv/libs", "/srv/deep")] == [1, 1]
    failure, _report = machine.check_loadable(
        app_image(["libextra.so.2", "libc.so.6"]))
    assert failure is None


def test_verneed_for_unloaded_file_ignored(machine):
    # A verneed whose file never loads is not checked (real ld.so
    # behaviour: only loaded objects' definitions are consulted).
    report = machine.loader.resolve(
        app_image(["libc.so.6"], verneed={"libghost.so.1": ("V_1.0",)}),
        machine.env)
    assert report.ok
