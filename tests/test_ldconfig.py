"""ldconfig / ld.so.cache emulation tests."""

import pytest

from repro.sysmodel.ldconfig import (
    CACHE_PATH,
    read_cache,
    render_ldconfig_p,
    run_ldconfig,
    scan_trusted_directories,
)
from repro.tools.toolbox import Toolbox, ToolUnavailable


def test_site_build_runs_ldconfig(mini_site):
    assert mini_site.machine.fs.is_file(CACHE_PATH)
    entries = read_cache(mini_site.machine.fs)
    assert entries is not None
    sonames = {e.soname for e in entries}
    assert "libc.so.6" in sonames
    assert "libgfortran.so.1" in sonames
    assert "libz.so.1" in sonames


def test_cache_indexes_only_trusted_dirs(mini_site):
    entries = read_cache(mini_site.machine.fs)
    sonames = {e.soname for e in entries}
    # /opt libraries (Intel, MPI stacks) are NOT in the cache.
    assert "libimf.so" not in sonames
    assert "libmpi.so.0" not in sonames
    assert all(e.path.startswith(("/lib", "/usr/lib")) for e in entries)


def test_cache_entries_carry_arch(mini_site):
    entries = read_cache(mini_site.machine.fs)
    libc = next(e for e in entries if e.soname == "libc.so.6")
    assert libc.arch == "x86-64"
    assert libc.bits == 64
    assert libc.path == "/lib64/libc-2.5.so"  # realpath through symlink


def test_rerun_after_install(mini_site):
    from repro.toolchain.products import LibraryProduct
    before = len(read_cache(mini_site.machine.fs))
    LibraryProduct("libnew.so.1", size=1000).install(
        mini_site.machine.fs, "/usr/lib64", mini_site.libc)
    count = run_ldconfig(mini_site.machine)
    assert count == before + 1
    sonames = {e.soname for e in read_cache(mini_site.machine.fs)}
    assert "libnew.so.1" in sonames


def test_scan_skips_non_elf_files(mini_site):
    mini_site.machine.fs.write_text("/usr/lib64/libfake.so.9", "not elf")
    entries = scan_trusted_directories(mini_site.machine)
    assert not any(e.soname == "libfake.so.9" for e in entries)


def test_fragment_repeating_a_trusted_directory_leaves_the_index(mini_site):
    """The scan takes the loader's search order, deduplicated by
    spelling: ``/lib64/`` in a fragment is ``/lib64``, scanned once."""
    machine = mini_site.machine
    run_ldconfig(machine)
    before = machine.fs.read_text(CACHE_PATH)
    machine.fs.write_text("/etc/ld.so.conf.d/repeat.conf", "/lib64/\n")
    run_ldconfig(machine)
    assert machine.fs.read_text(CACHE_PATH) == before


def test_read_cache_absent_and_corrupt(mini_site):
    fs = mini_site.machine.fs
    fs.write_text(CACHE_PATH, "garbage header\nmore garbage")
    assert read_cache(fs) is None
    fs.remove(CACHE_PATH)
    assert read_cache(fs) is None


def test_render_ldconfig_p(mini_site):
    run_ldconfig(mini_site.machine)
    text = render_ldconfig_p(read_cache(mini_site.machine.fs))
    assert "libs found in cache" in text
    assert "libc.so.6 (libc6,x86-64) =>" in text


class TestToolboxIntegration:
    def test_ldconfig_p(self, mini_site):
        toolbox = Toolbox(mini_site.machine)
        entries = toolbox.ldconfig_p()
        assert entries and any(e.soname == "libm.so.6" for e in entries)

    def test_cache_lookup(self, mini_site):
        toolbox = Toolbox(mini_site.machine)
        assert toolbox.cache_lookup("libc.so.6") == "/lib64/libc-2.5.so"
        assert toolbox.cache_lookup("libnothing.so.1") is None

    def test_unavailable(self, mini_site):
        toolbox = Toolbox(mini_site.machine,
                          Toolbox.ALL_TOOLS - frozenset({"ldconfig"}))
        with pytest.raises(ToolUnavailable):
            toolbox.ldconfig_p()
        assert toolbox.cache_lookup("libc.so.6") is None  # degrades quietly

    def test_edc_uses_cache_for_libc(self, mini_site):
        from repro.core.discovery import EnvironmentDiscoveryComponent
        edc = EnvironmentDiscoveryComponent(mini_site.toolbox())
        env = edc.discover()
        assert env.libc_version == "2.5"
        assert env.libc_path == "/lib64/libc-2.5.so"
