"""Library copies held by image identity, and one parse of each root.

A source phase keeps each library copy as the source file's
:class:`~repro.elf.writer.LazyImage` while no fault hook is armed, and
staging installs that image on the target as a lazy node.  No step
between gathering and staging synthesises bytes; only the bundle
archive does.  With a hook armed, every copy is read through
``VirtualFilesystem.read`` as before.  The loader resolves from the
root parse its caller already holds.
"""

import pytest

from repro.core.bundle import SourceBundle
from repro.core.description import BinaryDescriptionComponent
from repro.elf import writer
from repro.elf.reader import ElfFile
from repro.elf.writer import LazyImage
from repro.sysmodel.fs import FsError
from repro.toolchain.compilers import Language

from tests.test_core_resolution import _resolver

#: Intel runtimes: the target fixture lacks them, the donor has them.
INTEL = ["libifcore.so.5", "libifport.so.5"]
APP = "/home/user/id-app"


@pytest.fixture
def syntheses(monkeypatch):
    """The spec of every ``write_elf`` call from here on (lazy images
    look ``write_elf`` up by module-level name at call time)."""
    specs = []
    original = writer.write_elf

    def counting(spec):
        specs.append(spec)
        return original(spec)

    monkeypatch.setattr(writer, "write_elf", counting)
    return specs


@pytest.fixture
def donor_app(make_site):
    """A donor site with an Intel-built Fortran app at :data:`APP`, and
    a BDC under the app's stack."""
    donor = make_site("id-donor")
    stack = donor.find_stack("openmpi-1.4-intel")
    app = donor.compile_mpi_program("id-app", Language.FORTRAN, stack)
    donor.machine.fs.write(APP, app.image, mode=0o755)
    bdc = BinaryDescriptionComponent(donor.toolbox(),
                                     donor.env_with_stack(stack))
    return donor, bdc, app


@pytest.fixture
def target(make_site):
    from repro.mpi.implementations import open_mpi
    from repro.sites.site import StackRequest
    from repro.toolchain.compilers import CompilerFamily
    return make_site(
        "id-target", vendor_compilers=(),
        stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU),))


def _bundle(bdc, records) -> SourceBundle:
    description = bdc.describe(APP)
    return SourceBundle(description=description, libraries=tuple(records),
                        hello=None, guaranteed_environment=None,
                        created_at="id-donor")


class TestCopiesByIdentity:
    def test_gather_and_staging_synthesise_nothing(self, donor_app, target,
                                                   syntheses):
        _donor, bdc, _app = donor_app
        resolver, _edc = _resolver(target)

        def gather_and_stage(staging_dir):
            records = bdc.gather_library_copies(bdc.describe(APP))
            return resolver.resolve(INTEL, _bundle(bdc, records),
                                    target.machine.env.copy(), staging_dir)

        # The first pass makes each image's one shared parse, which
        # synthesises it once per process; copying and staging add none.
        gather_and_stage("/home/user/warm")
        before = len(syntheses)
        plan = gather_and_stage("/home/user/stage")
        assert plan.resolved_all and plan.staged
        assert len(syntheses) == before

    def test_staged_node_is_the_donors_image(self, donor_app, target):
        donor, bdc, _app = donor_app
        records = bdc.gather_library_copies(bdc.describe(APP))
        resolver, _edc = _resolver(target)
        plan = resolver.resolve(INTEL, _bundle(bdc, records),
                                target.machine.env.copy(), "/home/user/stage")
        staged = {d.soname: d.staged_path for d in plan.staged}
        assert set(INTEL) <= set(staged)
        by_soname = {r.soname: r for r in records}
        for soname in INTEL:
            donor_image = donor.machine.fs.resolve(
                by_soname[soname].located_path)[1].provider
            assert isinstance(donor_image, LazyImage)
            assert by_soname[soname].image is donor_image
            assert by_soname[soname].copy_size == donor_image.size
            node = target.machine.fs.resolve(staged[soname])[1]
            assert node.provider is donor_image
            assert target.machine.fs.read(staged[soname]) == \
                writer.write_elf(donor_image.spec)

    def test_armed_hook_sees_every_copy_read(self, donor_app):
        donor, bdc, _app = donor_app
        fs = donor.machine.fs
        seen = []

        def hook(path, data):
            seen.append(path)
            return data

        fs.fault_hook = hook
        try:
            records = bdc.gather_library_copies(bdc.describe(APP))
        finally:
            fs.fault_hook = None
        copied = [r for r in records if r.copied]
        assert copied
        for record in copied:
            real = fs.realpath(record.located_path)
            assert isinstance(record.image, bytes)
            assert real in seen
            assert record.image == fs.read(real)

    def test_raising_hook_leaves_the_record_uncopied(self, donor_app):
        donor, bdc, _app = donor_app
        fs = donor.machine.fs
        # Described once unarmed, so the armed pass's only read of each
        # library is its copy.
        records = bdc.gather_library_copies(bdc.describe(APP))
        victim = next(r for r in records if r.soname == "libmpi.so.0")
        victim_real = fs.realpath(victim.located_path)

        def hook(path, data):
            if path == victim_real:
                raise FsError(f"injected read error: {path}")
            return data

        fs.fault_hook = hook
        try:
            armed = bdc.gather_library_copies(bdc.describe(APP))
        finally:
            fs.fault_hook = None
        by_soname = {r.soname: r for r in armed}
        assert not by_soname["libmpi.so.0"].copied
        assert by_soname["libmpi.so.0"].description is not None
        assert by_soname["libifcore.so.5"].copied


def _count_parses_of(monkeypatch, image: bytes) -> list:
    """One entry per ELF parse of *image* from here on."""
    parses = []
    original = ElfFile.__init__

    def counting(self, data):
        if data == image:
            parses.append(len(data))
        original(self, data)

    monkeypatch.setattr(ElfFile, "__init__", counting)
    return parses


class TestOneRootParse:
    def test_check_loadable_parses_the_root_once(self, donor_app,
                                                 monkeypatch):
        donor, bdc, app = donor_app
        parses = _count_parses_of(monkeypatch, app.image)
        failure, report = donor.machine.check_loadable(app.image, bdc.env)
        assert failure is None and report.ok
        assert len(parses) == 1

    def test_ldd_parses_the_root_once(self, donor_app, monkeypatch):
        donor, bdc, app = donor_app
        parses = _count_parses_of(monkeypatch, app.image)
        result = donor.toolbox().ldd(APP, bdc.env)
        assert result.recognised and not result.missing
        assert len(parses) == 1
