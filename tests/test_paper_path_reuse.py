"""Work the paper path no longer redoes on unchanged inputs.

FEAM links the same hello-world for every candidate stack at every
evaluation, every migration is launched up to five times, and ``ldd``
asks the loader about closures the launches already resolved.  Each
reuse below must be invisible: same images, same verdicts, same
reports as the work it replaces.
"""

import posixpath

import pytest

from repro.elf import BinarySpec, write_elf
from repro.elf.constants import ElfType
from repro.elf.reader import parse_elf
from repro.sites.site import Site
from repro.sysmodel.distro import CENTOS_5_6
from repro.sysmodel.env import Environment
from repro.sysmodel.errors import FailureKind
from repro.sysmodel.fs import FsError
from repro.sysmodel.loader import DynamicLoader
from repro.sysmodel.machine import Machine
from repro.toolchain import linker
from repro.toolchain.compilers import Language
from repro.tools.toolbox import Toolbox


@pytest.fixture
def syntheses(monkeypatch):
    """The name of every program image the link step synthesises."""
    made = []
    original = linker.write_elf

    def counting(spec):
        made.append(spec.payload_seed)
        return original(spec)

    monkeypatch.setattr(linker, "write_elf", counting)
    return made


@pytest.fixture
def resolutions(monkeypatch):
    """The origin of every ``DynamicLoader.resolve`` call from here on."""
    calls = []
    original = DynamicLoader.resolve

    def counting(self, binary, env, origin="<main>"):
        calls.append(origin)
        return original(self, binary, env, origin)

    monkeypatch.setattr(DynamicLoader, "resolve", counting)
    return calls


def _unmemoised(machine, call):
    """*call*'s result with a no-op fault hook armed: every resolution
    then goes to the loader and nothing is stored."""
    machine.fs.fault_hook = lambda path, data: data
    try:
        return call()
    finally:
        machine.fs.fault_hook = None


# -- hello links -----------------------------------------------------------------


def _wrapper(site, slug="openmpi-1.4-intel"):
    stack = site.find_stack(slug)
    return stack, posixpath.join(stack.prefix, "bin", "mpicc")


class TestHelloLinks:
    def test_repeated_links_synthesise_once(self, make_site, syntheses,
                                            monkeypatch):
        site = make_site("hellosite")
        _stack, wrapper = _wrapper(site)
        registered = []
        monkeypatch.setattr(
            "repro.sites.site.GLOBAL_REGISTRY.register",
            lambda image, provenance: registered.append(
                (image, provenance.binary_name)))
        first = site.compile_with_wrapper(wrapper, "feam-hello", Language.C)
        again = [site.compile_with_wrapper(wrapper, "feam-hello", Language.C)
                 for _ in range(4)]
        assert len(syntheses) == 1
        assert all(linked is first for linked in again)
        # Every call registers the build, as a fresh link does.
        assert registered == [(first.image, "feam-hello")] * 5

    def test_distinct_inputs_link_separately(self, make_site, syntheses):
        site = make_site("hellosite")
        _stack, wrapper = _wrapper(site)
        _other, other_wrapper = _wrapper(site, "openmpi-1.4-gnu")
        images = {site.compile_with_wrapper(w, name, Language.C).image
                  for w in (wrapper, other_wrapper)
                  for name in ("feam-hello-a", "feam-hello-b")}
        assert len(syntheses) == 4
        assert len(images) == 4

    def test_memoised_image_equals_a_fresh_link(self, make_site):
        site = make_site("hellosite")
        stack, wrapper = _wrapper(site)
        site.compile_with_wrapper(wrapper, "feam-hello", Language.C)
        served = site.compile_with_wrapper(wrapper, "feam-hello", Language.C)
        fresh = site.compile_mpi_program("feam-hello", Language.C, stack)
        assert served == fresh
        assert served is not fresh

    @pytest.mark.parametrize("missing", ["wrapper", "driver"])
    def test_missing_tools_still_raise(self, make_site, missing):
        site = make_site("hellosite")
        stack, wrapper = _wrapper(site)
        site.compile_with_wrapper(wrapper, "feam-hello", Language.C)
        path = (wrapper if missing == "wrapper"
                else stack.compiler_install.driver_path(Language.C))
        site.machine.fs.remove(path)
        with pytest.raises(FsError, match=f"compiler {missing} missing"):
            site.compile_with_wrapper(wrapper, "feam-hello", Language.C)

    def test_a_clone_links_afresh(self, make_site, syntheses):
        template = make_site("hellosite")
        _stack, wrapper = _wrapper(template)
        linked = template.compile_with_wrapper(wrapper, "feam-hello",
                                               Language.C)
        clone = Site.cloned(template, template.name, seed=1)
        cloned = clone.compile_with_wrapper(wrapper, "feam-hello",
                                            Language.C)
        assert len(syntheses) == 2
        assert cloned.image == linked.image
        assert cloned.image is not linked.image

    def test_direct_compiles_synthesise_every_time(self, make_site,
                                                   syntheses):
        site = make_site("hellosite")
        stack, _wrapper_path = _wrapper(site)
        images = [site.compile_mpi_program("app", Language.C, stack).image
                  for _ in range(3)]
        assert len(syntheses) == 3
        assert images[0] == images[1] == images[2]
        assert images[0] is not images[1]


# -- retried launches ----------------------------------------------------------------


def _app(needed=("libc.so.6",), seed=""):
    return write_elf(BinarySpec(etype=ElfType.EXEC, needed=tuple(needed),
                                payload_size=64, payload_seed=seed))


@pytest.fixture
def machine():
    machine = Machine("launch", "x86_64", CENTOS_5_6)
    machine.fs.write("/lib64/libc.so.6", write_elf(BinarySpec(
        etype=ElfType.DYN, soname="libc.so.6", payload_size=64)))
    return machine


@pytest.fixture
def root_parses(machine, monkeypatch):
    """Every image *machine* parses from here on.

    *machine*'s libc is parsed before counting starts, so its launches
    parse only their roots.
    """
    machine.read_elf("/lib64/libc.so.6")
    parsed = []
    original = parse_elf

    def counting(data):
        parsed.append(data)
        return original(data)

    monkeypatch.setattr("repro.sysmodel.machine.parse_elf", counting)
    return parsed


class TestRetriedLaunches:
    def test_a_retried_image_is_parsed_once(self, machine, root_parses):
        app = _app()
        results = [machine.check_loadable(app) for _ in range(5)]
        assert root_parses == [app]
        assert all(failure is None for failure, _report in results)
        roots = {id(report.loaded["<main>"]) for _f, report in results}
        assert len(roots) == 1
        # Not detached: the report's root still holds its image.
        assert results[0][1].loaded["<main>"].data == app

    def test_another_image_is_parsed(self, machine, root_parses):
        first, second = _app(seed="a"), _app(seed="b")
        for image in (first, first, second, second, first):
            assert machine.check_loadable(image)[0] is None
        assert root_parses == [first, second, first]

    def test_equal_bytes_in_another_object_are_parsed(self, machine,
                                                      root_parses):
        app = _app()
        copy = bytes(bytearray(app))
        machine.check_loadable(app)
        machine.check_loadable(copy)
        assert len(root_parses) == 2

    def test_a_corrupt_image_fails_every_call(self, machine, root_parses):
        app = _app()
        corrupt = app[:40]
        assert machine.check_loadable(app)[0] is None
        for _ in range(3):
            failure, report = machine.check_loadable(corrupt)
            assert report is None
            assert failure.failure.kind is FailureKind.EXEC_FORMAT
        # The failed parses stored nothing: the last good parse stays.
        assert machine.check_loadable(app)[0] is None
        assert root_parses == [app, corrupt, corrupt, corrupt]

    def test_a_clone_parses_afresh(self, machine, root_parses):
        app = _app()
        machine.check_loadable(app)
        machine.clone("launch-clone").check_loadable(app)
        assert root_parses == [app, app]


# -- ldd through the closure memo ------------------------------------------------------


def _lib(soname, needed=(), verdefs=(), verneed=None):
    return write_elf(BinarySpec(
        etype=ElfType.DYN, soname=soname, needed=tuple(needed),
        version_definitions=tuple(verdefs),
        version_requirements=verneed or {}, payload_size=64))


class TestLddThroughTheMemo:
    def test_ldd_after_a_launch_resolves_nothing(self, machine,
                                                 resolutions):
        machine.fs.makedirs("/opt/x/lib")
        machine.fs.write("/opt/x/lib/liba.so.1", _lib("liba.so.1"))
        app = _app(("liba.so.1", "libc.so.6"))
        machine.fs.write("/home/user/app", app, mode=0o755)
        env = Environment({"LD_LIBRARY_PATH": "/opt/x/lib"})
        assert machine.check_loadable(app, env)[0] is None
        toolbox = Toolbox(machine)
        result = toolbox.ldd("/home/user/app", env)
        assert resolutions == ["<main>"]
        assert result == _unmemoised(
            machine, lambda: toolbox.ldd("/home/user/app", env))
        assert result.missing == ()

    def test_relabelled_report_equals_the_loader(self, machine):
        # liba requires a version libc lacks: the root's own version
        # error and its direct entries name the origin.
        machine.fs.makedirs("/opt/x/lib")
        machine.fs.write("/opt/x/lib/liba.so.1", _lib(
            "liba.so.1", needed=("libb.so.1",),
            verneed={"libc.so.6": ("GLIBC_9.9",)}))
        app = write_elf(BinarySpec(
            etype=ElfType.EXEC, needed=("liba.so.1", "libc.so.6"),
            version_requirements={"libc.so.6": ("GLIBC_9.8",)},
            payload_size=64))
        env = Environment({"LD_LIBRARY_PATH": "/opt/x/lib"})
        root = parse_elf(app)
        machine.check_loadable(app, env)
        served = machine.resolve(root, env, origin="/home/user/app")
        fresh = machine.loader.resolve(root, env, origin="/home/user/app")
        assert served.entries == fresh.entries
        assert served.version_errors == fresh.version_errors
        assert served.search_order == fresh.search_order
        assert served.loaded == fresh.loaded
        assert {e.requested_by for e in served.entries} == {
            "/home/user/app", "/opt/x/lib/liba.so.1"}
        assert {ve.required_by for ve in served.version_errors} == {
            "/home/user/app", "/opt/x/lib/liba.so.1"}

    def test_origin_inside_its_own_closure_resolves_afresh(
            self, machine, resolutions):
        # liba needs libb, which needs liba back at a version only liba
        # defines.  Given canonically, liba's own path is the origin,
        # so the loader takes it for the loaded root: it is neither
        # loaded again nor indexed for versions, which a closure
        # resolved as <main> would be.
        machine.fs.makedirs("/opt/x/lib")
        liba = _lib("liba.so.1", needed=("libb.so.1",),
                    verdefs=("liba.so.1", "LIBA_1.0"))
        machine.fs.write("/opt/x/lib/liba.so.1", liba)
        machine.fs.write("/opt/x/lib/libb.so.1", _lib(
            "libb.so.1", needed=("liba.so.1",),
            verneed={"liba.so.1": ("LIBA_1.0",)}))
        machine.fs.symlink("/opt/link", "/opt/x/lib")
        env = Environment({"LD_LIBRARY_PATH": "/opt/x/lib"})
        origin = "/opt/x/lib/liba.so.1"
        root = parse_elf(liba)
        as_main = machine.resolve(root, env)
        assert origin in as_main.loaded and not as_main.version_errors
        served = machine.resolve(root, env, origin=origin)
        fresh = machine.loader.resolve(root, env, origin=origin)
        assert served.entries == fresh.entries
        assert served.version_errors == fresh.version_errors
        assert [ve.version for ve in served.version_errors] == ["LIBA_1.0"]
        assert served.loaded == fresh.loaded
        toolbox = Toolbox(machine)
        result = toolbox.ldd(origin, env)
        assert result == _unmemoised(machine,
                                     lambda: toolbox.ldd(origin, env))
        assert result.unsatisfied_versions == (("liba.so.1", "LIBA_1.0"),)
        # Given through a symlink, the origin is no library's path.
        del resolutions[:]
        result = toolbox.ldd("/opt/link/liba.so.1", env)
        assert resolutions == []
        assert result == _unmemoised(
            machine, lambda: toolbox.ldd("/opt/link/liba.so.1", env))
        assert result.unsatisfied_versions == ()

    def test_an_armed_hook_resolves_every_call(self, machine, resolutions):
        app = _app()
        machine.fs.write("/home/user/app", app, mode=0o755)
        toolbox = Toolbox(machine)
        toolbox.ldd("/home/user/app")
        machine.fs.fault_hook = lambda path, data: data
        for _ in range(2):
            toolbox.ldd("/home/user/app")
        machine.fs.fault_hook = None
        toolbox.ldd("/home/user/app")
        assert resolutions == ["<main>", "/home/user/app", "/home/user/app"]
