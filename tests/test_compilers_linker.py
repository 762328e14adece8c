"""Compiler models and the link step."""

import pytest

from repro.elf import parse_elf
from repro.elf.constants import ElfMachine
from repro.toolchain.compilers import (
    Compiler,
    CompilerFamily,
    Language,
    gnu,
    intel,
    pgi,
)
from repro.toolchain.libc import glibc
from repro.toolchain.linker import LinkInput, link_program
from tests.conftest import required_glibc


class TestCompilerModels:
    def test_short_codes(self):
        assert CompilerFamily.GNU.short_code == "g"
        assert CompilerFamily.INTEL.short_code == "i"
        assert CompilerFamily.PGI.short_code == "p"

    def test_gnu_fortran_runtime_by_version(self):
        assert gnu("3.4.6")._gnu_fortran_runtime().soname == "libg2c.so.0"
        assert gnu("4.1.2")._gnu_fortran_runtime().soname == "libgfortran.so.1"
        assert gnu("4.4.5")._gnu_fortran_runtime().soname == "libgfortran.so.3"

    def test_gnu_cxx_levels_grow(self):
        assert gnu("3.4.6")._gnu_cxx_level() == "GLIBCXX_3.4"
        assert gnu("4.1.2")._gnu_cxx_level() == "GLIBCXX_3.4.8"
        assert gnu("4.4.5")._gnu_cxx_level() == "GLIBCXX_3.4.13"

    def test_gnu_runtime_deps_fortran(self):
        sonames = [d.soname for d in gnu("4.1.2").runtime_deps(
            Language.FORTRAN)]
        assert sonames[0] == "libgfortran.so.1"
        assert "libgcc_s.so.1" in sonames
        assert "libm.so.6" in sonames

    def test_intel_runtime_deps(self):
        c_deps = [d.soname for d in intel("12.0").runtime_deps(Language.C)]
        assert "libimf.so" in c_deps and "libsvml.so" in c_deps
        f_deps = [d.soname for d in intel("12.0").runtime_deps(
            Language.FORTRAN)]
        assert "libifcore.so.5" in f_deps and "libifport.so.5" in f_deps

    def test_pgi_runtime_deps(self):
        f_deps = [d.soname for d in pgi("10.3").runtime_deps(
            Language.FORTRAN)]
        assert "libpgf90.so" in f_deps and "libpgc.so" in f_deps

    def test_unsupported_language_rejected(self):
        c_only = Compiler(CompilerFamily.GNU, "4.1.2",
                          languages=(Language.C,))
        with pytest.raises(ValueError):
            c_only.runtime_deps(Language.FORTRAN)

    def test_products_define_expected_versions(self):
        products = {p.soname: p for p in gnu("4.4.5").products()}
        stdcxx = products["libstdc++.so.6"]
        assert "GLIBCXX_3.4.13" in stdcxx.verdefs
        assert "CXXABI_1.3" in stdcxx.verdefs
        fortran = products["libgfortran.so.3"]
        assert "GFORTRAN_1.0" in fortran.verdefs

    def test_banners(self):
        assert gnu("4.1.2").comment_banner().startswith("GCC")
        assert intel("11.1").comment_banner().startswith("Intel")
        assert pgi("7.2").comment_banner().startswith("PGI")

    def test_driver_names(self):
        assert "gcc" in gnu("4.1.2").driver_names(Language.C)
        assert gnu("3.4.6").driver_names(Language.FORTRAN) == ("g77",)
        assert gnu("4.1.2").driver_names(Language.FORTRAN) == ("gfortran",)
        assert intel("12.0").driver_names(Language.FORTRAN) == ("ifort",)
        assert pgi("10.3").driver_names(Language.C) == ("pgcc",)

    def test_factories_cache(self):
        assert gnu("4.1.2") is gnu("4.1.2")


class TestLinker:
    def _link(self, **kwargs):
        defaults = dict(name="app", language=Language.C,
                        compiler=gnu("4.1.2"), libc=glibc("2.5"),
                        payload_size=500)
        defaults.update(kwargs)
        return link_program(LinkInput(**defaults))

    def test_libc_is_last_needed(self):
        linked = self._link()
        assert linked.needed[-1] == "libc.so.6"

    def test_required_glibc_capped_by_ceiling(self):
        linked = self._link(libc=glibc("2.12"), glibc_ceiling=(2, 7))
        assert linked.required_glibc == (2, 7)

    def test_required_glibc_capped_by_build_libc(self):
        linked = self._link(libc=glibc("2.3.4"), glibc_ceiling=(2, 7))
        assert linked.required_glibc == (2, 3, 4)

    def test_image_encodes_requirement(self):
        linked = self._link(libc=glibc("2.12"), glibc_ceiling=(2, 7))
        assert required_glibc(parse_elf(linked.image)) == "2.7"

    def test_mpi_deps_come_first(self):
        from repro.toolchain.compilers import RuntimeDep
        linked = self._link(mpi_deps=(RuntimeDep("libmpi.so.0"),))
        assert linked.needed[0] == "libmpi.so.0"

    def test_comment_carries_compiler_banner(self):
        linked = self._link(compiler=intel("12.0"))
        elf = parse_elf(linked.image)
        assert any(c.startswith("Intel") for c in elf.comment)

    def test_fortran_links_runtime(self):
        linked = self._link(language=Language.FORTRAN)
        assert "libgfortran.so.1" in linked.needed
        elf = parse_elf(linked.image)
        refs = {v.name for req in elf.version_requirements
                for v in req.versions}
        assert "GFORTRAN_1.0" in refs

    def test_cxx_links_stdcxx_with_version(self):
        linked = self._link(language=Language.CXX, compiler=gnu("4.4.5"))
        assert "libstdc++.so.6" in linked.needed
        elf = parse_elf(linked.image)
        refs = {v.name for req in elf.version_requirements
                for v in req.versions}
        assert "GLIBCXX_3.4.13" in refs

    def test_static_link(self):
        linked = self._link(static=True)
        assert linked.needed == ()
        assert not parse_elf(linked.image).is_dynamic

    def test_unsupported_language_raises(self):
        c_only = Compiler(CompilerFamily.GNU, "4.1.2",
                          languages=(Language.C,))
        with pytest.raises(ValueError):
            self._link(compiler=c_only, language=Language.FORTRAN)

    def test_build_tag_differentiates_images(self):
        a = self._link(build_tag="siteA/stack1")
        b = self._link(build_tag="siteB/stack1")
        assert a.image != b.image
        assert parse_elf(a.image).dynamic.needed == \
            parse_elf(b.image).dynamic.needed

    def test_machine_passthrough(self):
        linked = self._link(machine=ElfMachine.PPC64)
        assert parse_elf(linked.image).header.machine is ElfMachine.PPC64
