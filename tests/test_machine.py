"""Machine aggregate tests: ISA support, loadability checks, ELF cache."""

import pytest

from repro.elf import BinarySpec, write_elf
from repro.elf.constants import ElfClass, ElfMachine, ElfType
from repro.sysmodel.distro import CENTOS_5_6, RHEL_6_1, SLES_11
from repro.sysmodel.errors import FailureKind
from repro.sysmodel.machine import Machine


@pytest.fixture
def machine():
    m = Machine("node1", "x86_64", CENTOS_5_6)
    m.fs.write("/lib64/libc.so.6", write_elf(BinarySpec(
        etype=ElfType.DYN, soname="libc.so.6",
        version_definitions=("libc.so.6", "GLIBC_2.0", "GLIBC_2.5"))),
        mode=0o755)
    return m


def test_unknown_arch_rejected():
    with pytest.raises(ValueError):
        Machine("x", "vax", CENTOS_5_6)


def test_isa_support_x86_64(machine):
    assert machine.supports_isa(ElfMachine.X86_64, ElfClass.ELF64)
    assert machine.supports_isa(ElfMachine.X86, ElfClass.ELF32)
    assert not machine.supports_isa(ElfMachine.PPC64, ElfClass.ELF64)
    assert not machine.supports_isa(ElfMachine.X86_64, ElfClass.ELF32)


def test_uname(machine):
    assert machine.uname_processor() == "x86_64"
    assert machine.uname_machine() == "x86_64"


def test_distro_files_materialised(machine):
    assert "Linux version 2.6.18-238.el5" in \
        machine.fs.read_text("/proc/version")
    assert "CentOS release 5.6" in machine.fs.read_text("/etc/redhat-release")


def test_distro_variants():
    rhel = Machine("r", "x86_64", RHEL_6_1)
    assert "Red Hat Enterprise Linux" in \
        rhel.fs.read_text("/etc/redhat-release")
    sles = Machine("s", "x86_64", SLES_11)
    assert "SUSE" in sles.fs.read_text("/etc/SuSE-release")


def test_check_loadable_success(machine):
    app = write_elf(BinarySpec(needed=("libc.so.6",)))
    failure, report = machine.check_loadable(app)
    assert failure is None
    assert report is not None and report.ok


def test_check_loadable_wrong_isa(machine):
    app = write_elf(BinarySpec(machine=ElfMachine.PPC64,
                               needed=("libc.so.6",)))
    failure, report = machine.check_loadable(app)
    assert failure is not None
    assert failure.failure.kind is FailureKind.EXEC_FORMAT
    assert report is None


def test_check_loadable_not_elf(machine):
    failure, _report = machine.check_loadable(b"#!/bin/sh\necho hi\n")
    assert failure is not None
    assert failure.failure.kind is FailureKind.EXEC_FORMAT


def test_check_loadable_missing_library(machine):
    app = write_elf(BinarySpec(needed=("libnope.so.1", "libc.so.6")))
    failure, report = machine.check_loadable(app)
    assert failure.failure.kind is FailureKind.MISSING_LIBRARY
    assert "libnope.so.1" in failure.failure.detail
    assert report is not None


def test_check_loadable_libc_version(machine):
    app = write_elf(BinarySpec(
        needed=("libc.so.6",),
        version_requirements={"libc.so.6": ("GLIBC_2.12",)}))
    failure, _ = machine.check_loadable(app)
    assert failure.failure.kind is FailureKind.LIBC_VERSION
    assert "GLIBC_2.12" in failure.failure.detail


def test_elf_cache_hits(machine):
    first = machine.read_elf("/lib64/libc.so.6")
    second = machine.read_elf("/lib64/libc.so.6")
    assert first is second
    assert first.data == b""  # detached


def test_elf_cache_invalidated_on_size_change(machine):
    machine.fs.write("/f.so", write_elf(BinarySpec(
        etype=ElfType.DYN, soname="liba.so.1", payload_size=100)),
        mode=0o755)
    a = machine.read_elf("/f.so")
    machine.fs.write("/f.so", write_elf(BinarySpec(
        etype=ElfType.DYN, soname="libb.so.1", payload_size=5000)),
        mode=0o755)
    b = machine.read_elf("/f.so")
    assert a is not b
    assert b.dynamic.soname == "libb.so.1"


def test_elf_cache_invalidated_on_equal_size_rewrite(machine):
    images = {soname: write_elf(BinarySpec(etype=ElfType.DYN,
                                           needed=(soname,)))
              for soname in ("liba.so.1", "libb.so.1")}
    assert len(set(map(len, images.values()))) == 1
    for soname, image in images.items():
        machine.fs.write("/f.so", image, mode=0o755)
        assert machine.read_elf("/f.so").dynamic.needed == (soname,)


def test_elf_cache_hits_carry_over_to_clones(machine):
    parsed = machine.read_elf("/lib64/libc.so.6")
    assert machine.clone("node2").read_elf("/lib64/libc.so.6") is parsed


def test_elf_cache_follows_symlinks(machine):
    machine.fs.write("/lib64/libx.so.1.0", write_elf(BinarySpec(
        etype=ElfType.DYN, soname="libx.so.1")), mode=0o755)
    machine.fs.symlink("/lib64/libx.so.1", "libx.so.1.0")
    via_link = machine.read_elf("/lib64/libx.so.1")
    direct = machine.read_elf("/lib64/libx.so.1.0")
    assert via_link is direct
