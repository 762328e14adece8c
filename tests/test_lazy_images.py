"""Lazy library images: layout-only sizes and one shared parse per image.

Shared libraries are installed as :class:`~repro.elf.writer.LazyImage`
providers.  Their size is layout arithmetic, equal specs share one
provider among every live site, the provider keeps the parse that
``Machine.read_elf`` makes, and an armed fault hook never sees (or
fills) that shared parse.
"""

import dataclasses
import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.elf import writer
from repro.elf.writer import BinarySpec, image_size, lazy_image, write_elf
from repro.sites.generator import SiteGenerator, parse_fleet_spec
from repro.sites.site import Site
from repro.sysmodel.faults import FaultPlan
from repro.sysmodel.fs import FsError
from repro.toolchain.libc import glibc
from repro.toolchain.products import LibraryProduct

from tests.conftest import TEST_SEED
from tests.test_elf_properties import specs_with_symbols

#: A library no site installs on its own, so nothing has parsed it yet.
PRODUCT = LibraryProduct(
    "liblazy.so.1", filename="liblazy.so.1.0.0", size=123_457,
    verdefs=("LAZY_1.0",), exports=("lazy_fn",), glibc_ceiling=(2, 7),
    comment=("GCC: (GNU) 4.1.2",))
LIBDIR = "/usr/lib64"
LIB = f"{LIBDIR}/liblazy.so.1"


@pytest.fixture
def syntheses(monkeypatch):
    """The spec of every ``write_elf`` call from here on.

    Lazy images call the module-level ``write_elf`` by name, so
    rebinding it sees every synthesis (as the benchmark tracer does).
    """
    specs = []
    original = writer.write_elf

    def counting(spec):
        specs.append(spec)
        return original(spec)

    monkeypatch.setattr(writer, "write_elf", counting)
    return specs


@st.composite
def layout_specs(draw):
    """Specs over every layout choice: class, byte order, linkage,
    symbols, verdefs, verneeds, rpath/runpath, comments, and payload
    sizes including 0 and non-multiples of 16."""
    spec = draw(specs_with_symbols())
    payload = draw(st.one_of(
        st.just(0), st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=300).map(lambda n: 16 * n + 7),
        st.integers(min_value=0, max_value=20_000)))
    runpath = draw(st.one_of(st.none(), st.just("/opt/y/lib:/opt/z/lib")))
    spec = dataclasses.replace(spec, payload_size=payload, runpath=runpath)
    if draw(st.booleans()):
        spec = dataclasses.replace(spec, statically_linked=True,
                                   needed=(), soname=None)
    return spec


@settings(max_examples=150, deadline=None)
@given(layout_specs())
def test_layout_size_is_the_image_size(spec: BinarySpec):
    assert image_size(spec) == len(write_elf(spec))


class TestSharing:
    def test_install_synthesises_nothing(self, make_site, syntheses):
        site = make_site("lazy-install")
        before = len(syntheses)
        PRODUCT.install(site.machine.fs, LIBDIR, glibc("2.5"))
        assert len(syntheses) == before
        assert site.machine.fs.size(LIB) == len(site.machine.fs.read(LIB))

    def test_equal_specs_synthesise_once_between_sites(self, make_site,
                                                       syntheses):
        template = make_site("lazy-template")
        clones = [Site.cloned(template, f"lazy-clone-{i}", TEST_SEED)
                  for i in range(2)]
        other = make_site("lazy-other")
        for site in (template, *clones, other):
            PRODUCT.install(site.machine.fs, LIBDIR, glibc("2.5"))
        before = len(syntheses)
        for site in (template, *clones, other):
            assert site.machine.read_elf(LIB).dynamic.soname == \
                "liblazy.so.1"
        assert len(syntheses) - before == 1
        providers = {id(site.machine.fs.resolve(LIB)[1].provider)
                     for site in (template, *clones, other)}
        assert len(providers) == 1

    def test_equal_content_keys_mean_identical_images(self):
        spec = PRODUCT.spec(glibc("2.5"))
        rebuilt = dataclasses.replace(spec, version_requirements={
            name: list(versions)
            for name, versions in spec.version_requirements.items()})
        image = lazy_image(spec)
        assert lazy_image(rebuilt) is image
        assert write_elf(spec) == write_elf(rebuilt)
        newer = PRODUCT.spec(glibc("2.12"))  # requires GLIBC_2.7
        assert lazy_image(newer) is not image
        assert write_elf(newer) != write_elf(spec)


def test_a_dropped_fleet_leaves_no_image_behind(syntheses):
    # Each build adds a library only this test installs, so at least
    # one image is new to the process whatever other tests keep alive.
    dropped = dataclasses.replace(PRODUCT, soname="libdropped.so.1",
                                  filename=None, glibc_ceiling=(2, 3, 4))

    def build() -> list:
        gc.collect()
        before = len(syntheses)
        sites = SiteGenerator(parse_fleet_spec("fleet:n=4,seed=3")).build()
        for site in sites:
            dropped.install(site.machine.fs, LIBDIR, site.libc)
            site.machine.read_elf(f"{LIBDIR}/libdropped.so.1")
        return syntheses[before:]

    first = build()
    assert [spec.soname for spec in first].count("libdropped.so.1") == 1
    assert len(build()) == len(first)


class TestFaultIsolation:
    @pytest.fixture
    def clones(self, make_site):
        gc.collect()  # no site of an earlier test still holds a parse
        template = make_site("lazy-faults")
        pair = [Site.cloned(template, name, TEST_SEED)
                for name in ("lazy-a", "lazy-b")]
        for site in pair:
            PRODUCT.install(site.machine.fs, LIBDIR, glibc("2.5"))
        return pair

    def test_armed_read_bypasses_the_shared_parse(self, clones):
        a, b = clones
        assert a.machine.read_elf(LIB).dynamic.soname == "liblazy.so.1"
        plan = FaultPlan.parse("read-error @ lazy-b rate=1 persistent\n")
        plan.arm([b])
        try:
            with pytest.raises(FsError):
                b.machine.read_elf(LIB)
        finally:
            FaultPlan.disarm([b])

    def test_armed_read_never_fills_the_shared_parse(self, clones):
        a, b = clones
        plan = FaultPlan.parse("read-error @ nowhere rate=1 persistent\n")
        plan.arm([b])
        try:
            armed = b.machine.read_elf(LIB)
        finally:
            FaultPlan.disarm([b])
        assert a.machine.fs.resolve(LIB)[1].provider.elf is None
        assert a.machine.read_elf(LIB) is not armed
