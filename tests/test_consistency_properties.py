"""Cross-layer consistency properties (hypothesis).

The reproduction's central soundness invariant: the tools FEAM consumes
(ldd emulation, loader-visible checks) must agree with the ground-truth
dynamic loader over arbitrary library layouts and environments.  If these
drift, prediction accuracy becomes an artefact of inconsistent models
rather than of FEAM's design.
"""

import os
import string

from hypothesis import given, settings, strategies as st

from repro.elf import BinarySpec, write_elf
from repro.elf.constants import ElfType
from repro.sysmodel.distro import CENTOS_5_6
from repro.sysmodel.env import Environment
from repro.sysmodel.machine import Machine
from repro.tools.toolbox import Toolbox

_DIRS = ("/usr/lib64", "/opt/a/lib", "/opt/b/lib", "/srv/libs")

_stems = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
_sonames = st.builds(lambda stem, major: f"lib{stem}.so.{major}",
                     _stems, st.integers(0, 2))


def _lib_image(soname: str, verdefs=()) -> bytes:
    return write_elf(BinarySpec(
        etype=ElfType.DYN, soname=soname,
        version_definitions=(soname,) + tuple(verdefs),
        needed=("libc.so.6",), payload_size=32))


@st.composite
def worlds(draw):
    """A random library layout, environment and binary."""
    placements = draw(st.dictionaries(
        _sonames, st.sampled_from(_DIRS), min_size=0, max_size=8))
    env_dirs = draw(st.lists(st.sampled_from(_DIRS), max_size=3,
                             unique=True))
    needed = draw(st.lists(_sonames, min_size=1, max_size=5, unique=True))
    return placements, env_dirs, needed


@settings(max_examples=60, deadline=None)
@given(worlds())
def test_ldd_agrees_with_loader(world):
    placements, env_dirs, needed = world
    machine = Machine("prop", "x86_64", CENTOS_5_6)
    machine.fs.write("/lib64/libc.so.6",
                     _lib_image("libc.so.6", ("GLIBC_2.5",)), mode=0o755)
    for soname, directory in placements.items():
        machine.fs.write(f"{directory}/{soname}", _lib_image(soname),
                         mode=0o755)
    env = Environment({"LD_LIBRARY_PATH": ":".join(env_dirs)})
    binary = write_elf(BinarySpec(needed=tuple(needed) + ("libc.so.6",),
                                  payload_size=32))
    machine.fs.write("/home/app", binary, mode=0o755)

    report = machine.loader.resolve(binary, env)
    toolbox = Toolbox(machine)
    ldd = toolbox.ldd("/home/app", env)

    assert ldd.recognised
    assert set(ldd.missing) == set(report.missing_sonames)
    ldd_resolved = {e.soname: e.path for e in ldd.entries if e.path}
    loader_resolved = {e.soname: e.path for e in report.entries if e.path}
    assert ldd_resolved == loader_resolved


@settings(max_examples=60, deadline=None)
@given(worlds())
def test_loader_visible_agrees_with_loader(world):
    placements, env_dirs, needed = world
    machine = Machine("prop2", "x86_64", CENTOS_5_6)
    machine.fs.write("/lib64/libc.so.6",
                     _lib_image("libc.so.6", ("GLIBC_2.5",)), mode=0o755)
    for soname, directory in placements.items():
        machine.fs.write(f"{directory}/{soname}", _lib_image(soname),
                         mode=0o755)
    env = Environment({"LD_LIBRARY_PATH": ":".join(env_dirs)})
    binary = write_elf(BinarySpec(needed=tuple(needed) + ("libc.so.6",),
                                  payload_size=32))
    report = machine.loader.resolve(binary, env)
    toolbox = Toolbox(machine)
    loader_missing = set(report.missing_sonames)
    for soname in needed:
        visible = toolbox.loader_visible_library(soname, env)
        assert (visible is None) == (soname in loader_missing), soname


@settings(max_examples=40, deadline=None)
@given(worlds())
def test_check_loadable_consistent_with_report(world):
    placements, env_dirs, needed = world
    machine = Machine("prop3", "x86_64", CENTOS_5_6)
    machine.fs.write("/lib64/libc.so.6",
                     _lib_image("libc.so.6", ("GLIBC_2.5",)), mode=0o755)
    for soname, directory in placements.items():
        machine.fs.write(f"{directory}/{soname}", _lib_image(soname),
                         mode=0o755)
    env = Environment({"LD_LIBRARY_PATH": ":".join(env_dirs)})
    binary = write_elf(BinarySpec(needed=tuple(needed) + ("libc.so.6",),
                                  payload_size=32))
    failure, report = machine.check_loadable(binary, env)
    assert (failure is None) == report.ok


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_DIRS), min_size=1, max_size=4))
def test_loader_honours_env_order(env_dirs):
    """The first directory on LD_LIBRARY_PATH wins."""
    machine = Machine("prop4", "x86_64", CENTOS_5_6)
    machine.fs.write("/lib64/libc.so.6",
                     _lib_image("libc.so.6", ("GLIBC_2.5",)), mode=0o755)
    for directory in _DIRS:
        machine.fs.write(f"{directory}/libx.so.1", _lib_image("libx.so.1"),
                         mode=0o755)
    env = Environment({"LD_LIBRARY_PATH": ":".join(env_dirs)})
    binary = write_elf(BinarySpec(needed=("libx.so.1", "libc.so.6"),
                                  payload_size=32))
    report = machine.loader.resolve(binary, env)
    entry = next(e for e in report.entries if e.soname == "libx.so.1")
    assert entry.path == f"{env_dirs[0]}/libx.so.1"


def _dotdot_machine(name: str) -> Machine:
    """``/a/link -> /b/c`` with ``libz.so.1`` in ``/b``."""
    machine = Machine(name, "x86_64", CENTOS_5_6)
    machine.fs.write("/lib64/libc.so.6",
                     _lib_image("libc.so.6", ("GLIBC_2.5",)), mode=0o755)
    machine.fs.makedirs("/a")
    machine.fs.makedirs("/b/c")
    machine.fs.symlink("/a/link", "/b/c")
    machine.fs.write("/b/libz.so.1", _lib_image("libz.so.1"), mode=0o755)
    return machine


def test_dotdot_after_symlink_in_search_path(tmp_path):
    """``LD_LIBRARY_PATH=/a/link/..`` is searched where the kernel's
    walk lands (``/b``), not where a lexical ``normpath`` would
    (``/a``).  The same tree on disk is the oracle; the loader, ``ldd``
    and the loader-visible check must all agree with it."""
    root = os.path.realpath(tmp_path)
    os.makedirs(root + "/a")
    os.makedirs(root + "/b/c")
    os.symlink(root + "/b/c", root + "/a/link")
    (tmp_path / "b" / "libz.so.1").write_bytes(_lib_image("libz.so.1"))
    expected = os.path.realpath(root + "/a/link/../libz.so.1")[len(root):]
    assert expected == "/b/libz.so.1"

    machine = _dotdot_machine("dotdot")
    env = Environment({"LD_LIBRARY_PATH": "/a/link/.."})
    binary = write_elf(BinarySpec(needed=("libz.so.1", "libc.so.6"),
                                  payload_size=32))
    machine.fs.write("/home/app", binary, mode=0o755)
    report = machine.loader.resolve(binary, env)
    toolbox = Toolbox(machine)
    ldd = toolbox.ldd("/home/app", env)
    visible = toolbox.loader_visible_library("libz.so.1", env)

    loader_resolved = {e.soname: e.path for e in report.entries}
    assert loader_resolved["libz.so.1"] == expected
    assert not report.missing_sonames
    assert {e.soname: e.path for e in ldd.entries} == loader_resolved
    assert not ldd.missing
    assert visible is not None
    assert machine.fs.realpath(visible) == expected


def test_trailing_slash_spellings_are_searched_once():
    machine = _dotdot_machine("slashes")
    env = Environment({"LD_LIBRARY_PATH": "/b/:/b:/lib64/"})
    binary = write_elf(BinarySpec(needed=("libz.so.1", "libc.so.6"),
                                  payload_size=32))
    order = machine.loader.resolve(binary, env).search_order
    assert order[:2] == ["/b", "/lib64"]
    assert len(order) == len(set(order))
