"""Symbol-level diagnostics (the ldd -r layer)."""

import pytest

from repro.elf import BinarySpec, write_elf
from repro.elf.constants import ElfType
from repro.elf.structs import DynamicSymbol
from repro.sysmodel.distro import CENTOS_5_6
from repro.sysmodel.loader import undefined_symbols
from repro.sysmodel.machine import Machine
from repro.toolchain.compilers import Language


@pytest.fixture
def machine():
    m = Machine("symhost", "x86_64", CENTOS_5_6)
    m.fs.write("/lib64/libc.so.6", write_elf(BinarySpec(
        etype=ElfType.DYN, soname="libc.so.6",
        version_definitions=("libc.so.6", "GLIBC_2.0", "GLIBC_2.5"),
        symbols=(DynamicSymbol("printf", True, "GLIBC_2.0"),
                 DynamicSymbol("malloc", True, "GLIBC_2.0")))),
        mode=0o755)
    m.fs.write("/usr/lib64/libwidget.so.1", write_elf(BinarySpec(
        etype=ElfType.DYN, soname="libwidget.so.1",
        needed=("libc.so.6",),
        symbols=(DynamicSymbol("widget_new", True),
                 DynamicSymbol("widget_free", True)))), mode=0o755)
    return m


def _resolve(machine, **spec_kwargs):
    binary = write_elf(BinarySpec(**spec_kwargs))
    return machine.loader.resolve(binary, machine.env)


def test_all_imports_satisfied(machine):
    report = _resolve(
        machine, needed=("libwidget.so.1", "libc.so.6"),
        version_requirements={"libc.so.6": ("GLIBC_2.0",)},
        symbols=(DynamicSymbol("main", True),
                 DynamicSymbol("widget_new", False),
                 DynamicSymbol("printf", False, "GLIBC_2.0")))
    assert undefined_symbols(report) == []


def test_missing_symbol_detected(machine):
    report = _resolve(
        machine, needed=("libwidget.so.1", "libc.so.6"),
        symbols=(DynamicSymbol("widget_resize", False),))
    missing = undefined_symbols(report)
    assert [s.name for s in missing] == ["widget_resize"]


def test_versioned_import_needs_matching_version(machine):
    # libc only exports printf@GLIBC_2.0; a GLIBC_2.5-versioned import of
    # a symbol it never exported is unsatisfied.
    report = _resolve(
        machine, needed=("libc.so.6",),
        version_requirements={"libc.so.6": ("GLIBC_2.5",)},
        symbols=(DynamicSymbol("posix_fadvise64", False, "GLIBC_2.5"),))
    missing = undefined_symbols(report)
    assert [s.name for s in missing] == ["posix_fadvise64"]


def test_versioned_import_satisfied_by_unversioned_export(machine):
    machine.fs.write("/usr/lib64/libold.so.1", write_elf(BinarySpec(
        etype=ElfType.DYN, soname="libold.so.1",
        symbols=(DynamicSymbol("legacy_fn", True),))), mode=0o755)
    report = _resolve(
        machine, needed=("libold.so.1", "libc.so.6"),
        version_requirements={"libc.so.6": ("GLIBC_2.0",)},
        symbols=(DynamicSymbol("legacy_fn", False, "GLIBC_2.0"),))
    # Old-style unversioned libraries satisfy versioned references.
    assert undefined_symbols(report) == []


def test_corpus_binaries_have_no_undefined_symbols(mini_site):
    """Soundness: every symbol a simulated application imports is
    exported by the libraries the toolchain links it against."""
    for slug in ("openmpi-1.4-gnu", "openmpi-1.4-intel"):
        stack = mini_site.find_stack(slug)
        for language in (Language.C, Language.FORTRAN, Language.CXX):
            app = mini_site.compile_mpi_program(
                f"sym-{slug}-{language.value}", language, stack)
            env = mini_site.env_with_stack(stack)
            report = mini_site.machine.loader.resolve(app.image, env)
            assert report.ok
            assert undefined_symbols(report) == [], (slug, language)


def test_compat_resolved_fortran_has_no_undefined_symbols(
        paper_sites_by_name):
    """A g77 binary resolved through forge's compat-libf2c exports the
    right symbols (s_wsfe and friends)."""
    ranger = paper_sites_by_name["ranger"]
    forge = paper_sites_by_name["forge"]
    stack = ranger.find_stack("openmpi-1.3-gnu")
    app = ranger.compile_mpi_program("g77app", Language.FORTRAN, stack)
    target_stack = forge.find_stack("openmpi-1.4-gnu")
    env = forge.env_with_stack(target_stack)
    report = forge.machine.loader.resolve(app.image, env)
    assert report.ok
    assert undefined_symbols(report) == []


def test_toolbox_ldd_r(mini_site):
    stack = mini_site.find_stack("openmpi-1.4-gnu")
    app = mini_site.compile_mpi_program("lddr-app", Language.C, stack)
    mini_site.machine.fs.write("/home/user/lddr-app", app.image, mode=0o755)
    toolbox = mini_site.toolbox()
    result, missing = toolbox.ldd_r(
        "/home/user/lddr-app", mini_site.env_with_stack(stack))
    assert result.recognised and result.missing == ()
    assert missing == []


def test_toolbox_ldd_r_matches_the_loader_and_reuses_ldds_closure(
        machine, monkeypatch):
    """``ldd -r`` reports what :func:`undefined_symbols` finds over the
    loader's own resolution, and after an ``ldd`` of the same path its
    report comes from the closure memo: no further loader resolution."""
    from repro.sysmodel.loader import DynamicLoader
    from repro.tools.toolbox import Toolbox

    path = "/home/user/widget-app"
    binary = write_elf(BinarySpec(
        needed=("libwidget.so.1", "libc.so.6"),
        version_requirements={"libc.so.6": ("GLIBC_2.0",)},
        symbols=(DynamicSymbol("widget_new", False),
                 DynamicSymbol("widget_resize", False),
                 DynamicSymbol("printf", False, "GLIBC_2.0"))))
    machine.fs.write(path, binary, mode=0o755)
    oracle = undefined_symbols(
        machine.loader.resolve(binary, machine.env, origin=path),
        origin=path)
    assert [s.name for s in oracle] == ["widget_resize"]

    toolbox = Toolbox(machine)
    toolbox.ldd(path)
    calls = []
    resolve = DynamicLoader.resolve

    def counting(self, *args, **kwargs):
        calls.append(args)
        return resolve(self, *args, **kwargs)

    monkeypatch.setattr(DynamicLoader, "resolve", counting)
    result, missing = toolbox.ldd_r(path)
    assert result.recognised and result.missing == ()
    assert missing == oracle
    assert calls == []
