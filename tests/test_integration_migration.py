"""End-to-end migration scenarios across the paper's five sites.

Each scenario reproduces one mechanism from the paper's Section VI.C
failure taxonomy and checks that FEAM's prediction agrees with the ground
truth the simulated runtime produces.
"""

import pytest

from repro.core import Feam
from repro.sites.catalog import build_paper_sites
from repro.toolchain.compilers import Language


@pytest.fixture(scope="module")
def world():
    """A fresh five-site world plus a FEAM instance (module-scoped)."""
    sites = build_paper_sites(424242)
    return {s.name: s for s in sites}, Feam()


def _build(site, stack_slug, name, language=Language.FORTRAN,
           glibc_ceiling=(2, 3), payload=200_000):
    stack = site.find_stack(stack_slug)
    app = site.compile_mpi_program(name, language, stack,
                                   glibc_ceiling=glibc_ceiling,
                                   payload_size=payload)
    path = f"/home/user/{name}"
    site.machine.fs.write(path, app.image, mode=0o755)
    return stack, app, path


def _migrate(feam, source, target, app, path, stack, tag):
    bundle = feam.run_source_phase(source, path,
                                   env=source.env_with_stack(stack))
    target_path = f"/home/user/migrated-{tag}"
    target.machine.fs.write(target_path, app.image, mode=0o755)
    basic = feam.run_target_phase(target, binary_path=target_path,
                                  staging_tag=f"{tag}-basic")
    extended = feam.run_target_phase(target, binary_path=target_path,
                                     bundle=bundle, staging_tag=f"{tag}-ext")
    return basic, extended


def _actual(target, app, stack_slug, env=None, provenance=None):
    stack = target.find_stack(stack_slug)
    return target.run_with_retries(
        "actual", app.image, stack,
        env=env if env is not None else target.env_with_stack(stack),
        provenance=provenance)


def test_intel_cross_version_migration(world):
    """fir (Intel 12, Open MPI 1.4) binary -> ranger (Intel 10.1, Open
    MPI 1.3): the Intel runtime sonames span releases so nothing is
    missing, but the Open MPI 1.4-vs-1.3 pairing carries ABI risk that
    only the extended prediction (imported hello-world) can see.  The
    extended verdict must match the actual run; basic can be wrong."""
    sites, feam = world
    fir, ranger = sites["fir"], sites["ranger"]
    stack, app, path = _build(fir, "openmpi-1.4-intel", "i-app")
    basic, extended = _migrate(feam, fir, ranger, app, path, stack, "i1")
    assert basic.prediction.missing_libraries == ()
    if extended.selected_stack_prefix is not None:
        stack_after = ranger.stack_by_prefix(extended.selected_stack_prefix)
        env = extended.run_environment or ranger.env_with_stack(stack_after)
        after = ranger.run_with_retries("after", app.image, stack_after,
                                        env=env)
        assert after.ok == extended.ready
    else:
        assert not extended.ready


def test_forge_built_binary_fails_on_older_libc(world):
    """forge (glibc 2.12) binary with 2.7-era interfaces -> india (2.5):
    predicted and actual C-library failure; resolution cannot help."""
    sites, feam = world
    forge, india = sites["forge"], sites["india"]
    stack, app, path = _build(forge, "openmpi-1.4-gnu", "libc-app",
                              language=Language.C, glibc_ceiling=(2, 7))
    basic, extended = _migrate(feam, forge, india, app, path, stack, "l1")
    assert not basic.ready
    assert not extended.ready
    result = _actual(india, app, "openmpi-1.4-gnu")
    assert not result.ok
    assert result.failure.kind.value == "c-library-version"


def test_mvapich_soname_change_resolved_by_copies(world):
    """ranger MVAPICH2 1.2 binary -> india 1.7a2: libmpich.so.1.0 is
    missing (soname changed); the ranger copies are glibc-2.3.4-built and
    stage cleanly."""
    sites, feam = world
    ranger, india = sites["ranger"], sites["india"]
    stack, app, path = _build(ranger, "mvapich2-1.2-gnu", "mv-app",
                              language=Language.C)
    basic, extended = _migrate(feam, ranger, india, app, path, stack, "m1")
    assert not basic.ready  # missing libmpich.so.1.0, no resolution
    assert "libmpich.so.1.0" in basic.prediction.missing_libraries
    if extended.ready:
        after = india.run_with_retries(
            "after", app.image,
            india.stack_by_prefix(extended.selected_stack_prefix),
            env=extended.run_environment)
        assert after.ok == extended.ready


def test_gfortran3_unresolvable_on_old_sites(world):
    """blacklight (gcc 4.4) Fortran binary -> fir: libgfortran.so.3 is
    missing and the copy requires GLIBC_2.7 > fir's 2.5 -- the paper's
    'copies required incompatible C library versions'."""
    sites, feam = world
    blacklight, fir = sites["blacklight"], sites["fir"]
    stack, app, path = _build(blacklight, "openmpi-1.4-gnu", "gf-app")
    basic, extended = _migrate(feam, blacklight, fir, app, path, stack, "g1")
    assert not basic.ready
    assert not extended.ready
    assert extended.resolution is not None
    unresolved = {d.soname for d in extended.resolution.unresolved}
    assert "libgfortran.so.3" in unresolved
    result = _actual(fir, app, "openmpi-1.4-gnu")
    assert not result.ok
    assert result.failure.kind.value == "missing-shared-library"


def test_g77_binary_runs_everywhere_via_compat(world):
    """ranger g77 binary -> forge: the compat-libf2c package provides
    libg2c.so.0, so the migration loads (ABI pair risk aside)."""
    sites, feam = world
    ranger, forge = sites["ranger"], sites["forge"]
    stack, app, path = _build(ranger, "openmpi-1.3-gnu", "g77-app")
    basic, extended = _migrate(feam, ranger, forge, app, path, stack, "c1")
    assert "libg2c.so.0" not in basic.prediction.missing_libraries
    # Extended prediction matches actual execution (ABI pair draws and
    # all): run with FEAM's configuration when it selected one.
    if extended.selected_stack_prefix is not None:
        stack_after = forge.stack_by_prefix(extended.selected_stack_prefix)
        env = extended.run_environment or forge.env_with_stack(stack_after)
        result = forge.run_with_retries("after", app.image, stack_after,
                                        env=env)
        assert result.ok == extended.ready


def test_cxx_glibcxx_version_failure_predicted(world):
    """forge (gcc 4.4.5) C++ binary -> india (gcc 4.1.2 libstdc++):
    GLIBCXX_3.4.13 reference is unsatisfied -- detected via ldd -v."""
    sites, feam = world
    forge, india = sites["forge"], sites["india"]
    stack, app, path = _build(forge, "openmpi-1.4-gnu", "cxx-app",
                              language=Language.CXX, glibc_ceiling=(2, 4))
    basic, _extended = _migrate(feam, forge, india, app, path, stack, "x1")
    assert not basic.ready
    unsatisfied = dict(basic.prediction.unsatisfied_versions)
    assert unsatisfied.get("libstdc++.so.6") == "GLIBCXX_3.4.13"
    result = _actual(india, app, "openmpi-1.4-gnu")
    assert not result.ok


def test_basic_and_extended_agree_on_clean_migration(world):
    """india -> fir with identical stacks and C libraries: both modes
    predict ready and the binary runs."""
    sites, feam = world
    india, fir = sites["india"], sites["fir"]
    stack, app, path = _build(india, "openmpi-1.4-gnu", "clean-app",
                              language=Language.C)
    basic, extended = _migrate(feam, india, fir, app, path, stack, "ok1")
    assert basic.ready
    assert extended.ready
    result = _actual(fir, app, "openmpi-1.4-gnu")
    assert result.ok
