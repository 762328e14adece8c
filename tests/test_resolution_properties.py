"""Property-based tests of the resolution model.

Invariants over randomly generated bundles and targets:

* a copy judged usable has a fully satisfiable dependency chain;
* everything staged came from the bundle's copies, never the C library;
* decisions are deterministic;
* when the plan says resolved_all, the loader-visible re-check passes.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.core.bundle import SourceBundle
from repro.core.config import FeamConfig
from repro.core.description import (
    BinaryDescription,
    BinaryDescriptionComponent,
    LibraryRecord,
)
from repro.core.discovery import EnvironmentDiscoveryComponent
from repro.core.resolution import ResolutionModel
from repro.elf import BinarySpec, write_elf
from repro.elf.constants import ElfType
from repro.sysmodel.distro import CENTOS_5_6
from repro.sysmodel.machine import Machine
from repro.tools.toolbox import Toolbox

_STEMS = ["aaa", "bbb", "ccc", "ddd", "eee"]


def _lib_image(soname: str, needed, glibc_req: str) -> bytes:
    return write_elf(BinarySpec(
        etype=ElfType.DYN, soname=soname, needed=tuple(needed) + ("libc.so.6",),
        version_requirements={"libc.so.6": (f"GLIBC_{glibc_req}",)},
        version_definitions=(soname,),
        payload_size=48))


_SOURCE_BDC = BinaryDescriptionComponent(
    Toolbox(Machine("res-src", "x86_64", CENTOS_5_6)))


def _record(soname: str, needed, glibc_req: str, copied=True) -> LibraryRecord:
    """The BDC's record of the library, gathered at a source machine."""
    path = f"/somewhere/{soname}"
    _SOURCE_BDC.toolbox.machine.fs.write(
        path, _lib_image(soname, needed, glibc_req))
    return _SOURCE_BDC.describe_library(soname, path, copy=copied)


@st.composite
def bundles(draw):
    """A random dependency forest of copied libraries."""
    count = draw(st.integers(1, 5))
    sonames = [f"lib{_STEMS[i]}.so.1" for i in range(count)]
    records = []
    for i, soname in enumerate(sonames):
        # Dependencies only on later sonames: acyclic by construction.
        deps = [s for s in sonames[i + 1:]
                if draw(st.booleans())]
        glibc_req = draw(st.sampled_from(["2.3.4", "2.5", "2.7", "2.12"]))
        copied = draw(st.booleans())
        records.append(_record(soname, deps, glibc_req, copied=copied))
    return records


def _make_world():
    machine = Machine("res-prop", "x86_64", CENTOS_5_6)
    from repro.toolchain.libc import glibc
    glibc("2.5").install(machine.fs, "/lib64")
    from repro.sysmodel.ldconfig import run_ldconfig
    run_ldconfig(machine)
    toolbox = Toolbox(machine)
    edc = EnvironmentDiscoveryComponent(toolbox)
    environment = edc.discover()
    return machine, toolbox, environment


_MACHINE, _TOOLBOX, _ENVIRONMENT = _make_world()
_COUNTER = [0]

_DESCRIPTION = BinaryDescription(
    path="/app", file_format="elf64-x86-64", isa_name="x86-64", bits=64,
    is_dynamic=True, is_shared_library=False, soname=None,
    library_version=(), needed=(), version_references=(),
    version_definitions=(), required_glibc=None, comment=(),
    mpi_implementation=None, build_compiler_hint=None,
    build_libc_hint=None, gathered_via="objdump")


def _bundle(records) -> SourceBundle:
    return SourceBundle(
        description=_DESCRIPTION, libraries=tuple(records), hello=None,
        guaranteed_environment=_ENVIRONMENT, created_at="elsewhere")


@settings(max_examples=60, deadline=None)
@given(bundles())
def test_usable_copies_have_satisfiable_chains(records):
    bundle = _bundle(records)
    resolver = ResolutionModel(_TOOLBOX, _ENVIRONMENT, FeamConfig())
    env = _MACHINE.env.copy()
    by_soname = {r.soname: r for r in records}
    for record in records:
        decision = resolver.copy_usable(record, bundle, env)
        if decision.usable:
            assert record.copied
            assert record.description.required_glibc_tuple <= (2, 5)
            # Every dependency is either target-present (libc) or a
            # usable copy itself.
            for dep in record.description.needed:
                if dep == "libc.so.6":
                    continue
                sub = resolver.copy_usable(by_soname[dep], bundle, env)
                assert sub.usable, (record.soname, dep, sub.reason)


@settings(max_examples=40, deadline=None)
@given(bundles())
def test_decisions_are_deterministic(records):
    bundle = _bundle(records)
    resolver = ResolutionModel(_TOOLBOX, _ENVIRONMENT, FeamConfig())
    env = _MACHINE.env.copy()
    for record in records:
        first = resolver.copy_usable(record, bundle, env)
        second = resolver.copy_usable(record, bundle, env)
        assert first.usable == second.usable
        assert first.reason == second.reason


@settings(max_examples=40, deadline=None)
@given(bundles())
def test_staging_invariants(records):
    bundle = _bundle(records)
    resolver = ResolutionModel(_TOOLBOX, _ENVIRONMENT, FeamConfig())
    env = _MACHINE.env.copy()
    _COUNTER[0] += 1
    staging_dir = f"/home/user/propstage/{_COUNTER[0]}"
    wanted = [r.soname for r in records]
    plan = resolver.resolve(wanted, bundle, env, staging_dir)
    copied_sonames = {r.soname for r in records if r.copied}
    fs = _MACHINE.fs
    staged_files = (set(fs.listdir(staging_dir))
                    if fs.is_dir(staging_dir) else set())
    # Only bundle copies are staged; libc never is.
    assert staged_files <= copied_sonames
    assert "libc.so.6" not in staged_files
    # Every usable decision's copy is on disk.
    for decision in plan.staged:
        assert decision.soname in staged_files
        assert decision.staged_path.startswith(staging_dir)
    if plan.resolved_all:
        for var, path in plan.env_additions:
            env.prepend_path(var, path)
        for soname in wanted:
            assert _TOOLBOX.loader_visible_library(soname, env), soname
