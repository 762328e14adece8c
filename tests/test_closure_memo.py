"""The closure memo behind ``Machine.check_loadable`` and ``Toolbox.ldd``.

Each closure is resolved once per directory state: an entry is keyed by
the root's dynamic view plus ``LD_LIBRARY_PATH`` and served while none
of the directories its walks looked into has changed.  Served results
must equal a fresh ``DynamicLoader.resolve``, whatever the filesystem
went through in between, and ``ldd`` must print what it prints with
the memo bypassed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.elf import BinarySpec, write_elf
from repro.elf.constants import ElfClass, ElfMachine, ElfType
from repro.elf.reader import ElfError, parse_elf
from repro.elf.writer import lazy_image
from repro.sysmodel.distro import CENTOS_5_6
from repro.sysmodel.env import Environment
from repro.sysmodel.errors import FailureKind
from repro.sysmodel.fs import FsError, VirtualFilesystem
from repro.sysmodel.loader import DynamicLoader
from repro.sysmodel.machine import Machine
from repro.tools.toolbox import Toolbox


def _lib(soname, needed=(), verdefs=(), elf_class=ElfClass.ELF64,
         machine=ElfMachine.X86_64, seed="", verneed=None):
    return BinarySpec(machine=machine, elf_class=elf_class,
                      etype=ElfType.DYN, soname=soname, needed=tuple(needed),
                      version_definitions=tuple(verdefs),
                      version_requirements=verneed or {}, payload_size=64,
                      payload_seed=seed)


def _app(needed, verneed=None, rpath=None, runpath=None, seed="",
         static=False):
    return write_elf(BinarySpec(
        etype=ElfType.EXEC, needed=tuple(needed),
        version_requirements=verneed or {}, rpath=rpath, runpath=runpath,
        payload_size=64, payload_seed=seed, statically_linked=static))


LIBC = _lib("libc.so.6", verdefs=("libc.so.6", "GLIBC_2.0", "GLIBC_2.5"))

#: Library images the mutations install, as specs (for lazy writes).
LIB_SPECS = (
    _lib("liba.so.1", needed=("libb.so.1",)),
    _lib("libb.so.1", verdefs=("libb.so.1", "B_1.0")),
    _lib("libb.so.1", verdefs=("libb.so.1", "B_2.0")),
    _lib("libb.so.1", verdefs=("libb.so.1", "B_1.0"),
         elf_class=ElfClass.ELF32, machine=ElfMachine.X86),
    _lib("libc.so.6", verdefs=("libc.so.6", "GLIBC_2.0")),
    LIBC,
    # A dependency cycle with a version only liba defines: ``ldd`` of
    # this liba by its canonical path is a root inside its own closure.
    _lib("liba.so.1", needed=("libb.so.1",), verdefs=("liba.so.1", "A_1.0")),
    _lib("libb.so.1", needed=("liba.so.1",), verdefs=("libb.so.1", "B_1.0"),
         verneed={"liba.so.1": ("A_1.0",)}),
)
LIB_IMAGES = tuple(write_elf(spec) for spec in LIB_SPECS)

_NEEDS_A = ["liba.so.1", "libc.so.6"]
_WANTS_B1 = {"libb.so.1": ("B_1.0",)}

#: Roots.  The first two share one dynamic view; each of the next
#: three differs from the first in one field of it (verneed, rpath,
#: runpath); the last two differ only in linkage (a dynamic root with
#: no DT_NEEDED still has a search order).
APPS = (
    _app(_NEEDS_A, verneed=_WANTS_B1),
    _app(_NEEDS_A, verneed=_WANTS_B1, seed="other build"),
    _app(_NEEDS_A, verneed={"libb.so.1": ("B_2.0",)}),
    _app(_NEEDS_A, verneed=_WANTS_B1, rpath="/opt/y/lib"),
    _app(_NEEDS_A, verneed=_WANTS_B1, runpath="/opt/y/lib"),
    _app(["libb.so.1", "libc.so.6"],
         verneed={"libc.so.6": ("GLIBC_2.5",)}),
    _app([]),
    _app([], static=True),
)

ENVS = (
    Environment(),
    Environment({"LD_LIBRARY_PATH": "/opt/x/lib:/home/user/stage"}),
    Environment({"LD_LIBRARY_PATH": "/opt/link:/opt/missing/lib"}),
    Environment({"LD_LIBRARY_PATH": "/opt/link/../y/lib:/opt/x/lib"}),
    Environment({"LD_LIBRARY_PATH": "/home/user/stage:/opt/link:/opt/x/lib"}),
)
#: Resolves APPS[0] (see :func:`_machine`).
STAGED = ENVS[-1]

#: Search directories and their parents, plus an unrelated one.
DIRS = ("/opt/x/lib", "/opt/y/lib", "/opt/x", "/opt", "/lib64",
        "/home/user/stage", "/opt/missing/lib", "/var/other")
NAMES = ("liba.so.1", "libb.so.1", "libc.so.6", "lib")
LINK_TARGETS = ("/opt/x/lib", "/opt/y/lib", "/opt/y", "y/lib", "../y/lib",
                "/nowhere")
CONF_LINES = ("/opt/y/lib", "/opt/x/lib", "include /etc/ld.so.conf.d/*.conf",
              "# comment", "/opt/missing/lib")
#: Where ``ldd`` is pointed: roots written outside the search path and
#: inside it, library paths, and a library reached through a symlinked
#: directory (an origin that is no library's canonical path).
LDD_PATHS = ("/home/user/app", "/opt/x/lib/app", "/opt/y/lib/liba.so.1",
             "/opt/x/lib/libb.so.1", "/opt/link/liba.so.1")


def _machine():
    machine = Machine("memo", "x86_64", CENTOS_5_6)
    machine.fs.write("/lib64/libc.so.6", write_elf(LIBC), mode=0o755)
    machine.fs.makedirs("/opt/x/lib")
    machine.fs.makedirs("/opt/y/lib")
    machine.fs.write("/opt/y/lib/liba.so.1", LIB_IMAGES[0])
    machine.fs.write("/opt/x/lib/libb.so.1", LIB_IMAGES[1])
    machine.fs.symlink("/opt/link", "/opt/y/lib")
    return machine


def _expected_failure(report):
    """How the loader's first failure reads (the kernel's derivation)."""
    kind = report.first_failure_kind()
    if kind is FailureKind.MISSING_LIBRARY:
        return kind, (f"error while loading shared libraries: "
                      f"{', '.join(report.missing_sonames)}: cannot open "
                      f"shared object file: No such file or directory")
    if kind is not None:
        return kind, report.version_errors[0].message()
    return None


def _assert_exact(machine, app, env):
    """check_loadable agrees with a fresh resolution; returns what it
    reported."""
    failure, report = machine.check_loadable(app, env)
    oracle = machine.loader.resolve(parse_elf(app), env)
    assert report.entries == oracle.entries
    assert report.version_errors == oracle.version_errors
    assert report.search_order == oracle.search_order
    assert list(report.loaded) == list(oracle.loaded)
    got = (None if failure is None
           else (failure.failure.kind, failure.failure.detail))
    assert got == _expected_failure(oracle)
    return got, tuple(report.entries), tuple(report.search_order)


def _assert_ldd_exact(machine, path, env):
    """``ldd`` agrees with itself with a no-op fault hook armed, which
    resolves afresh and stores nothing."""
    toolbox = Toolbox(machine)

    def ldd():
        try:
            return toolbox.ldd(path, env)
        except (FsError, ElfError) as exc:
            return type(exc)

    served = ldd()
    machine.fs.fault_hook = lambda _path, data: data
    try:
        assert served == ldd()
    finally:
        machine.fs.fault_hook = None


def _apply(fs, op):
    kind, *args = op
    try:
        if kind == "root":
            path, index = args
            fs.write(path, APPS[index], mode=0o755)
        elif kind == "cycle":
            liba_dir, libb_dir = args
            fs.write(f"{liba_dir}/liba.so.1", LIB_IMAGES[-2])
            fs.write(f"{libb_dir}/libb.so.1", LIB_IMAGES[-1])
        elif kind == "write":
            directory, name, index = args
            fs.write(f"{directory}/{name}", LIB_IMAGES[index])
        elif kind == "lazy":
            directory, name, index = args
            image = lazy_image(LIB_SPECS[index])
            fs.write_lazy(f"{directory}/{name}", image, image.size)
        elif kind == "symlink":
            directory, name, target = args
            fs.symlink(f"{directory}/{name}", target)
        elif kind == "remove":
            directory, name = args
            fs.remove(f"{directory}/{name}")
        elif kind == "dirlink":
            fs.symlink("/opt/link", args[0])
        elif kind == "makedirs":
            fs.makedirs(args[0])
        elif kind == "conf":
            path, lines = args
            fs.write_text(path, "\n".join(lines) + "\n")
    except FsError:
        pass  # an impossible mutation (a file in the way) changes nothing


_ops = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(DIRS),
              st.sampled_from(NAMES),
              st.integers(0, len(LIB_IMAGES) - 1)),
    st.tuples(st.just("lazy"), st.sampled_from(DIRS),
              st.sampled_from(NAMES),
              st.integers(0, len(LIB_SPECS) - 1)),
    st.tuples(st.just("symlink"), st.sampled_from(DIRS),
              st.sampled_from(NAMES[:3]),
              st.sampled_from(("libb.so.1", "../lib/liba.so.1",
                               "/opt/y/lib/liba.so.1", "/lib64/libc.so.6"))),
    st.tuples(st.just("remove"),
              st.sampled_from(("/opt/x/lib", "/opt/y/lib", "/lib64")),
              st.sampled_from(NAMES[:3])),
    st.tuples(st.just("dirlink"), st.sampled_from(LINK_TARGETS)),
    st.tuples(st.just("makedirs"),
              st.sampled_from(("/home/user/stage", "/opt/missing/lib",
                               "/var/other/deep", "/etc/ld.so.conf.d"))),
    st.tuples(st.just("conf"), st.just("/etc/ld.so.conf"),
              st.lists(st.sampled_from(CONF_LINES), max_size=3)),
    # A fragment may include its own pattern: each file is read once.
    st.tuples(st.just("conf"),
              st.sampled_from(("/etc/ld.so.conf.d/extra.conf",
                               "/etc/ld.so.conf.d/extra.txt")),
              st.lists(st.sampled_from(CONF_LINES), max_size=2)),
    st.tuples(st.just("root"), st.sampled_from(LDD_PATHS[:2]),
              st.integers(0, len(APPS) - 1)),
    st.tuples(st.just("cycle"), st.sampled_from(("/opt/y/lib", "/opt/x/lib")),
              st.sampled_from(("/opt/x/lib", "/opt/y/lib",
                               "/home/user/stage"))),
)
_checks = st.one_of(
    st.tuples(st.just("check"), st.integers(0, len(APPS) - 1),
              st.integers(0, len(ENVS) - 1)),
    st.tuples(st.just("ldd"), st.sampled_from(LDD_PATHS),
              st.integers(0, len(ENVS) - 1)),
)


@settings(max_examples=400, deadline=None)
@given(steps=st.lists(st.one_of(_ops, _checks), min_size=4, max_size=40))
def test_memo_equals_a_fresh_resolution(steps):
    machine = _machine()
    for step in steps:
        if step[0] == "check":
            _assert_exact(machine, APPS[step[1]], ENVS[step[2]])
        elif step[0] == "ldd":
            _assert_ldd_exact(machine, step[1], ENVS[step[2]])
        else:
            _apply(machine.fs, step)
    for app in APPS:
        for env in ENVS:
            _assert_exact(machine, app, env)
    for path in LDD_PATHS:
        for env in ENVS:
            _assert_ldd_exact(machine, path, env)


def _other_fs():
    other = VirtualFilesystem()
    other.write("/src/liba.so.1", LIB_IMAGES[0])
    return other


def _include_fragments(fs):
    """An include of a fragment directory listed but never walked into
    (no name in it ends ``.conf``)."""
    fs.write_text("/etc/ld.so.conf", "include /etc/ld.so.conf.d/*.conf\n")
    fs.write_text("/etc/ld.so.conf.d/notes.txt", "/opt/missing/lib\n")


#: (environment, set-up, mutation): each mutator, applied where a
#: memoised closure looked, changes that closure's outcome.
MUTATIONS = {
    "write": (ENVS[1], None,
              lambda fs: fs.write("/opt/x/lib/liba.so.1", LIB_IMAGES[0])),
    "write_lazy": (ENVS[1], None, lambda fs: _apply(
        fs, ("lazy", "/opt/x/lib", "liba.so.1", 0))),
    "symlink": (ENVS[1], None, lambda fs: fs.symlink(
        "/opt/x/lib/liba.so.1", "/opt/y/lib/liba.so.1")),
    "remove": (STAGED, None,
               lambda fs: fs.remove("/opt/x/lib/libb.so.1")),
    "copy_file": (ENVS[1], None, lambda fs: fs.copy_file(
        "/opt/y/lib/liba.so.1", "/opt/x/lib/liba.so.1")),
    "install_from": (ENVS[1], None, lambda fs: fs.install_from(
        _other_fs(), "/src/liba.so.1", "/opt/x/lib/liba.so.1")),
    "makedirs": (ENVS[1], None, lambda fs: fs.write(
        "/home/user/stage/liba.so.1", LIB_IMAGES[0])),
    "directory symlink": (ENVS[2], None,
                          lambda fs: fs.symlink("/opt/link", "/opt/x/lib")),
    "ld.so.conf": (ENVS[0], None, lambda fs: fs.write_text(
        "/etc/ld.so.conf", "/opt/y/lib\n/opt/x/lib\n")),
    "ld.so.conf.d fragment": (ENVS[0], _include_fragments, lambda fs: (
        fs.write_text("/etc/ld.so.conf.d/ab.conf",
                      "/opt/y/lib\n/opt/x/lib\n"))),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_each_mutator_is_seen_by_the_next_call(name):
    env, setup, mutate = MUTATIONS[name]
    machine = _machine()
    if setup is not None:
        setup(machine.fs)
    before = _assert_exact(machine, APPS[0], env)
    mutate(machine.fs)
    assert _assert_exact(machine, APPS[0], env) != before


def test_roots_with_different_views_get_their_own_closures():
    machine = _machine()
    outcomes = {_assert_exact(machine, app, STAGED) for app in APPS}
    assert len(outcomes) == len(APPS) - 1  # APPS[0] and APPS[1] agree


@pytest.fixture
def resolutions(monkeypatch):
    """The root of every ``DynamicLoader.resolve`` call from here on."""
    calls = []
    original = DynamicLoader.resolve

    def counting(self, binary, env, origin="<main>"):
        calls.append(binary)
        return original(self, binary, env, origin)

    monkeypatch.setattr(DynamicLoader, "resolve", counting)
    return calls


def test_one_resolution_per_closure(resolutions):
    machine = _machine()
    env = STAGED
    results = [machine.check_loadable(APPS[0], env) for _ in range(5)]
    results.append(machine.check_loadable(APPS[1], env))
    assert len(resolutions) == 1
    assert all(r[1].entries == results[0][1].entries for r in results)
    # Each report's root is its own call's.
    assert results[-1][1].loaded["<main>"] is not \
        results[0][1].loaded["<main>"]


def test_writing_into_a_searched_directory_resolves_again(resolutions):
    machine = _machine()
    env = STAGED
    assert machine.check_loadable(APPS[0], env)[0] is None
    machine.fs.write("/tmp/unrelated", b"x")
    machine.check_loadable(APPS[0], env)
    assert len(resolutions) == 1
    machine.fs.write("/home/user/stage/libb.so.1", LIB_IMAGES[2])
    failure, report = machine.check_loadable(APPS[0], env)
    assert len(resolutions) == 2
    assert failure is not None
    assert failure.failure.kind is FailureKind.ABI_MISMATCH


class TestArmedHook:
    @staticmethod
    def _arm(machine, reads):
        def hook(path, data):
            reads.append(path)
            return data
        machine.fs.fault_hook = hook

    def test_every_call_resolves_and_reads(self, resolutions):
        machine = _machine()
        machine.fs.write_text("/etc/ld.so.conf", "/opt/y/lib\n")
        reads = []
        self._arm(machine, reads)
        for _ in range(3):
            machine.check_loadable(APPS[0], ENVS[0])
        assert len(resolutions) == 3
        assert reads.count("/etc/ld.so.conf") == 3
        assert machine._closures == {}

    def test_entry_recorded_before_arming_is_not_served(self, resolutions):
        machine = _machine()
        machine.fs.write_text("/etc/ld.so.conf", "/opt/y/lib\n")
        machine.check_loadable(APPS[0], ENVS[0])
        reads = []
        self._arm(machine, reads)
        machine.check_loadable(APPS[0], ENVS[0])
        assert len(resolutions) == 2
        assert reads == ["/etc/ld.so.conf"]

        def failing(path, data):
            raise FsError(f"injected read error: {path}")
        machine.fs.fault_hook = failing
        with pytest.raises(FsError):
            machine.check_loadable(APPS[0], ENVS[0])


def test_returned_reports_are_fresh():
    machine = _machine()
    _failure, first = machine.check_loadable(APPS[2], STAGED)
    expected = (list(first.entries), list(first.version_errors),
                list(first.search_order), list(first.loaded))
    assert all(expected)
    first.entries.clear()
    first.version_errors.clear()
    first.search_order.reverse()
    first.loaded.clear()
    _failure, second = machine.check_loadable(APPS[2], STAGED)
    assert (second.entries, second.version_errors, second.search_order,
            list(second.loaded)) == expected


def test_a_clone_never_serves_its_templates_entries():
    template = _machine()
    env = STAGED
    assert template.check_loadable(APPS[0], env)[0] is None
    clone = template.clone("memo-clone")
    clone.fs.remove("/opt/x/lib/libb.so.1")
    failure, _report = clone.check_loadable(APPS[0], env)
    assert failure is not None
    assert failure.failure.kind is FailureKind.MISSING_LIBRARY
    assert template.check_loadable(APPS[0], env)[0] is None
