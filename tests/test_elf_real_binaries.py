"""Cross-validation against real system binaries and binutils.

These tests only run where real ELF binaries / binutils exist; they pin
the reader to reality rather than to our own writer.
"""

import os
import shutil
import subprocess

import pytest

from repro.elf import parse_elf, write_elf, BinarySpec
from repro.elf.reader import is_elf
from tests.conftest import required_glibc


def _read_real_binary():
    for candidate in ("/bin/ls", "/usr/bin/env", "/bin/cat"):
        try:
            with open(candidate, "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        if is_elf(data):
            return candidate, data
    return None, None


REAL_PATH, REAL_DATA = _read_real_binary()

needs_real = pytest.mark.skipif(REAL_DATA is None,
                                reason="no real ELF binary found")
needs_binutils = pytest.mark.skipif(
    shutil.which("readelf") is None, reason="binutils not installed")


@needs_real
def test_parse_real_binary():
    elf = parse_elf(REAL_DATA)
    assert elf.is_dynamic
    assert "libc.so.6" in elf.dynamic.needed
    assert elf.header.bits in (32, 64)


@needs_real
def test_real_binary_glibc_requirement():
    version = required_glibc(parse_elf(REAL_DATA))
    assert version is not None
    assert tuple(map(int, version.split("."))) >= (2,)


@needs_real
@needs_binutils
def test_needed_matches_real_readelf():
    out = subprocess.run(
        ["readelf", "-d", REAL_PATH], capture_output=True, text=True,
        check=True).stdout
    expected = []
    for line in out.splitlines():
        if "(NEEDED)" in line and "[" in line:
            expected.append(line.split("[", 1)[1].rstrip("]").strip())
    assert list(parse_elf(REAL_DATA).dynamic.needed) == expected


@needs_real
def test_parse_real_shared_library():
    # Find the real libc via the binary's interpreter environment.
    for root in ("/lib/x86_64-linux-gnu", "/usr/lib/x86_64-linux-gnu",
                 "/lib64", "/usr/lib64"):
        path = os.path.join(root, "libc.so.6")
        if os.path.exists(path):
            with open(os.path.realpath(path), "rb") as fh:
                elf = parse_elf(fh.read())
            defs = {d.name.name for d in elf.version_definitions}
            assert any(name.startswith("GLIBC_2.") for name in defs)
            return
    pytest.skip("no system libc found")


@needs_binutils
def test_our_images_accepted_by_real_readelf(tmp_path):
    spec = BinarySpec(
        needed=("libmpi.so.0", "libc.so.6"),
        version_requirements={"libc.so.6": ("GLIBC_2.2.5", "GLIBC_2.3.4")},
        comment=("GCC: (GNU) 4.1.2",))
    path = tmp_path / "synthetic.elf"
    path.write_bytes(write_elf(spec))
    dyn = subprocess.run(["readelf", "-d", str(path)],
                         capture_output=True, text=True, check=True).stdout
    assert "libmpi.so.0" in dyn
    assert "libc.so.6" in dyn
    versions = subprocess.run(["readelf", "-V", str(path)],
                              capture_output=True, text=True, check=True
                              ).stdout
    assert "GLIBC_2.3.4" in versions


@needs_binutils
def test_our_verdefs_accepted_by_real_readelf(tmp_path):
    from repro.elf.constants import ElfType
    spec = BinarySpec(
        etype=ElfType.DYN, soname="libdemo.so.1",
        version_definitions=("libdemo.so.1", "DEMO_1.0"))
    path = tmp_path / "libdemo.so.1"
    path.write_bytes(write_elf(spec))
    out = subprocess.run(["readelf", "-V", str(path)],
                         capture_output=True, text=True, check=True).stdout
    assert "DEMO_1.0" in out
