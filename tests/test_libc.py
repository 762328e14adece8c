"""glibc release model tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.elf import parse_elf
from repro.sysmodel.fs import VirtualFilesystem
from repro.toolchain.libc import (
    GLIBC_HISTORY,
    GlibcRelease,
    glibc,
    glibc_symbol,
    parse_banner,
    version_str,
)
from tests.conftest import required_glibc


def test_history_is_sorted():
    assert list(GLIBC_HISTORY) == sorted(GLIBC_HISTORY)


def test_lookup_by_string_and_tuple():
    assert glibc("2.5") is glibc((2, 5))
    assert glibc("2.3.4").version == (2, 3, 4)


def test_unknown_release_rejected():
    with pytest.raises(ValueError):
        GlibcRelease((9, 9))


def test_defined_versions_monotone():
    old = glibc("2.3.4").defined_versions
    new = glibc("2.12").defined_versions
    assert set(old) < set(new)
    assert old[-1] == "GLIBC_2.3.4"
    assert new[-1] == "GLIBC_2.12"


def test_defines():
    release = glibc("2.5")
    assert release.defines("GLIBC_2.5")
    assert release.defines("GLIBC_2.3.4")
    assert not release.defines("GLIBC_2.7")


def test_highest_at_most():
    release = glibc("2.12")
    assert release.highest_at_most((2, 7)) == (2, 7)
    assert release.highest_at_most((2, 6)) == (2, 6)
    old = glibc("2.3.4")
    assert old.highest_at_most((2, 7)) == (2, 3, 4)  # capped by release


def test_highest_at_most_below_floor_rejected():
    with pytest.raises(ValueError):
        glibc("2.5").highest_at_most((1, 0))


def test_banner_and_parse_roundtrip():
    release = glibc("2.11.1")
    assert parse_banner(release.banner) == "2.11.1"


def test_parse_banner_rejects_noise():
    assert parse_banner("hello world") is None
    assert parse_banner("release version soon") is None


def test_symbols():
    assert glibc_symbol((2, 3, 4)) == "GLIBC_2.3.4"
    assert version_str((2, 12)) == "2.12"


def test_install_writes_members_and_symlinks():
    fs = VirtualFilesystem()
    glibc("2.5").install(fs, "/lib64")
    assert fs.is_symlink("/lib64/libc.so.6")
    assert fs.is_file("/lib64/libc-2.5.so")
    assert fs.is_symlink("/lib64/libm.so.6")
    assert fs.is_symlink("/lib64/libpthread.so.0")


def test_installed_libc_elf_contents():
    fs = VirtualFilesystem()
    glibc("2.5").install(fs, "/lib64")
    elf = parse_elf(fs.read("/lib64/libc.so.6"))
    definitions = [d.name.name for d in elf.version_definitions]
    assert elf.dynamic.soname == "libc.so.6"
    assert "GLIBC_2.5" in definitions
    assert "GLIBC_2.7" not in definitions
    assert "GLIBC_PRIVATE" in definitions
    assert any("GNU C Library" in c for c in elf.comment)


def test_installed_member_depends_on_libc():
    fs = VirtualFilesystem()
    glibc("2.12").install(fs, "/lib64")
    elf = parse_elf(fs.read("/lib64/libnsl.so.1"))
    assert elf.dynamic.needed == ("libc.so.6",)
    # A glibc member's copy requires its own release level: this is why
    # copies of libnsl from a 2.12 site fail on a 2.5 site.
    assert required_glibc(elf) == "2.12"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GLIBC_HISTORY), st.sampled_from(GLIBC_HISTORY))
def test_highest_at_most_properties(release_version, ceiling):
    release = GlibcRelease(release_version)
    result = release.highest_at_most(ceiling)
    assert result <= release_version
    assert result <= ceiling
    assert result in GLIBC_HISTORY
