"""SymbolVersion semantics, dynamic-symbol rendering, distro files."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.elf.structs import DynamicSymbol, SymbolVersion, newest_glibc
from repro.sysmodel import distro as distros
from repro.sysmodel.fs import VirtualFilesystem


class TestSymbolVersion:
    @pytest.mark.parametrize("name,namespace,components", [
        ("GLIBC_2.3.4", "GLIBC", (2, 3, 4)),
        ("GLIBC_2.12", "GLIBC", (2, 12)),
        ("GFORTRAN_1.0", "GFORTRAN", (1, 0)),
        ("GLIBCXX_3.4.13", "GLIBCXX", (3, 4, 13)),
        ("CXXABI_1.3", "CXXABI", (1, 3)),
    ])
    def test_parsing(self, name, namespace, components):
        version = SymbolVersion(name)
        assert version.namespace == namespace
        assert version.components == components

    def test_non_version_names(self):
        assert SymbolVersion("GLIBC_PRIVATE").namespace is None
        assert SymbolVersion("GLIBC_PRIVATE").components == ()
        assert SymbolVersion("justtext").components == ()

    def test_is_glibc(self):
        assert SymbolVersion("GLIBC_2.5").is_glibc()
        assert not SymbolVersion("GLIBCXX_3.4").is_glibc()
        assert not SymbolVersion("GLIBC_PRIVATE").is_glibc()
        assert not SymbolVersion("GLIBC_ABI_DT_RELR").is_glibc()

    def test_ordering_numeric(self):
        assert SymbolVersion("GLIBC_2.9") < SymbolVersion("GLIBC_2.10")
        assert SymbolVersion("GLIBC_2.3.4") < SymbolVersion("GLIBC_2.4")

    def test_ordering_across_namespaces_is_stable(self):
        a, b = SymbolVersion("AAA_1.0"), SymbolVersion("BBB_1.0")
        assert (a < b) != (b < a)

    def test_newest_glibc_counts_numbered_names_only(self):
        assert newest_glibc(["GLIBC_2.9", "GLIBC_ABI_DT_RELR", "GLIBC_2.10",
                             "GLIBC_PRIVATE", "GLIBCXX_3.4.21"]) == "2.10"
        assert newest_glibc(["GLIBC_PRIVATE", "GLIBC_ABI_DT_RELR"]) is None
        assert newest_glibc([]) is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 99), st.integers(0, 99),
           st.integers(0, 99), st.integers(0, 99))
    def test_ordering_matches_tuples(self, a1, a2, b1, b2):
        a = SymbolVersion(f"GLIBC_{a1}.{a2}")
        b = SymbolVersion(f"GLIBC_{b1}.{b2}")
        assert (a < b) == ((a1, a2) < (b1, b2))


class TestDynamicSymbolRender:
    def test_import(self):
        line = DynamicSymbol("printf", False, "GLIBC_2.0").render()
        assert "U printf@GLIBC_2.0" in line

    def test_export(self):
        line = DynamicSymbol("main", True).render()
        assert "T main" in line
        assert line.startswith("0" * 16)


class TestDistros:
    def test_pretty_names(self):
        assert "CentOS release 4.9" in distros.CENTOS_4_9.pretty_name
        assert "Santiago" in distros.RHEL_6_1.pretty_name
        assert "Tikanga" in distros.RHEL_5_6.pretty_name
        assert "SUSE" in distros.SLES_11.pretty_name

    def test_release_file_paths(self):
        assert distros.CENTOS_5_6.release_file == "/etc/redhat-release"
        assert distros.SLES_11.release_file == "/etc/SuSE-release"

    def test_materialise(self):
        fs = VirtualFilesystem()
        distros.SLES_11.materialise(fs)
        assert "VERSION = 11" in fs.read_text("/etc/SuSE-release")
        assert "PATCHLEVEL = 1" in fs.read_text("/etc/SuSE-release")
        proc = fs.read_text("/proc/version")
        assert proc.startswith("Linux version 2.6.32.59")
        assert fs.is_file("/etc/system-release")

    def test_proc_version_carries_gcc_banner(self):
        text = distros.CENTOS_4_9.proc_version_text()
        assert "gcc version 3.4.6" in text
