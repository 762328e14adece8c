"""Resolution model tests (paper Section IV)."""

import pytest

from repro.core.bundle import SourceBundle
from repro.core.config import FeamConfig
from repro.core.description import BinaryDescriptionComponent
from repro.core.discovery import EnvironmentDiscoveryComponent
from repro.core.resolution import ResolutionModel
from repro.toolchain.compilers import Language


@pytest.fixture
def donor(make_site):
    """Guaranteed execution environment (has Intel runtimes)."""
    return make_site("donor")


@pytest.fixture
def target(make_site):
    """Target with no vendor compilers installed -- Intel libs missing."""
    from repro.mpi.implementations import open_mpi
    from repro.sites.site import StackRequest
    from repro.toolchain.compilers import CompilerFamily
    return make_site(
        "target", vendor_compilers=(),
        stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU),))


@pytest.fixture
def new_donor(make_site):
    """Guaranteed environment on a newer C library (glibc 2.12)."""
    return make_site("newdonor", libc_version="2.12",
                     system_gnu_version="4.4.5")


def _bundle_for(site, language=Language.FORTRAN, name="res-app",
                stack_slug=None):
    slugs = [s.spec.slug for s in site.stacks]
    stack = site.find_stack(stack_slug or
                            ("openmpi-1.4-intel" if
                             "openmpi-1.4-intel" in slugs else slugs[0]))
    app = site.compile_mpi_program(name, language, stack)
    path = f"/home/user/{name}"
    site.machine.fs.write(path, app.image, mode=0o755)
    env = site.env_with_stack(stack)
    bdc = BinaryDescriptionComponent(site.toolbox(), env)
    description = bdc.describe(path)
    libraries = bdc.gather_library_copies(description)
    edc = EnvironmentDiscoveryComponent(site.toolbox(), env)
    return SourceBundle(
        description=description, libraries=tuple(libraries), hello=None,
        guaranteed_environment=edc.discover(), created_at=site.name)


def _resolver(site):
    edc = EnvironmentDiscoveryComponent(site.toolbox())
    return ResolutionModel(site.toolbox(), edc.discover()), edc


class TestCopyUsable:
    def test_portable_copy_usable(self, donor, target):
        bundle = _bundle_for(donor)
        resolver, _ = _resolver(target)
        record = bundle.library("libifcore.so.5")
        env = target.machine.env.copy()
        decision = resolver.copy_usable(record, bundle, env)
        assert decision.usable, decision.reason

    def test_copy_needing_newer_libc_rejected(self, new_donor, make_site):
        from repro.mpi.implementations import open_mpi
        from repro.sites.site import StackRequest
        from repro.toolchain.compilers import CompilerFamily
        old_target = make_site(
            "oldtarget", libc_version="2.3.4",
            system_gnu_version="3.4.6", vendor_compilers=(),
            stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU),))
        bundle = _bundle_for(new_donor, stack_slug="openmpi-1.4-gnu")
        resolver, _ = _resolver(old_target)
        record = bundle.library("libgfortran.so.3")
        assert record is not None and record.copied
        decision = resolver.copy_usable(
            record, bundle, old_target.machine.env.copy())
        assert not decision.usable
        assert "GLIBC" in decision.reason

    def test_uncopied_record_rejected(self, donor, target):
        bundle = _bundle_for(donor)
        resolver, _ = _resolver(target)
        libc_record = bundle.library("libc.so.6")
        decision = resolver.copy_usable(
            libc_record, bundle, target.machine.env.copy())
        assert not decision.usable
        assert "no copy" in decision.reason

    def test_recursive_dependency_through_bundle(self, donor, target):
        # libifcore's own deps (libimf, libintlc) are absent at the target
        # but present in the bundle -> still usable.
        bundle = _bundle_for(donor)
        resolver, _ = _resolver(target)
        record = bundle.library("libifcore.so.5")
        assert "libimf.so" in record.description.needed
        decision = resolver.copy_usable(
            record, bundle, target.machine.env.copy())
        assert decision.usable

    def test_missing_dependency_everywhere_rejected(self, donor, target):
        import dataclasses
        bundle = _bundle_for(donor)
        record = bundle.library("libifcore.so.5")
        description = record.description
        broken = dataclasses.replace(record, description=dataclasses.replace(
            description, needed=description.needed + ("libnowhere.so.9",)))
        resolver, _ = _resolver(target)
        decision = resolver.copy_usable(
            broken, bundle, target.machine.env.copy())
        assert not decision.usable
        assert "libnowhere.so.9" in decision.reason

    def test_depth_limit(self, donor, target):
        bundle = _bundle_for(donor)
        resolver = ResolutionModel(
            target.toolbox(),
            EnvironmentDiscoveryComponent(target.toolbox()).discover(),
            FeamConfig(max_resolution_depth=0))
        record = bundle.library("libifcore.so.5")
        decision = resolver.copy_usable(
            record, bundle, target.machine.env.copy(), _depth=1)
        assert not decision.usable


class TestResolve:
    def test_stages_copies_and_env(self, donor, target):
        bundle = _bundle_for(donor)
        resolver, _ = _resolver(target)
        env = target.machine.env.copy()
        plan = resolver.resolve(
            ["libifcore.so.5", "libifport.so.5"], bundle, env,
            "/home/user/stage")
        assert plan.resolved_all
        fs = target.machine.fs
        assert fs.is_file("/home/user/stage/libifcore.so.5")
        # The transitive closure is staged with it.
        assert fs.is_file("/home/user/stage/libimf.so")
        assert ("LD_LIBRARY_PATH", "/home/user/stage") in plan.env_additions

    def test_staged_copies_load(self, donor, target):
        """End to end: after staging, the loader finds everything."""
        bundle = _bundle_for(donor)
        resolver, edc = _resolver(target)
        stack = target.find_stack("openmpi-1.4-intel") \
            if any(s.spec.slug == "openmpi-1.4-intel"
                   for s in target.stacks) else target.stacks[0]
        env = target.env_with_stack(stack)
        missing, _ = edc.missing_libraries(bundle.description, env)
        assert missing  # Intel runtime absent
        plan = resolver.resolve(missing, bundle, env, "/home/user/stage2")
        for var, path in plan.env_additions:
            env.prepend_path(var, path)
        missing_after, _ = edc.missing_libraries(bundle.description, env)
        assert missing_after == []
        binary = donor.machine.fs.read("/home/user/res-app")
        failure, report = target.machine.check_loadable(binary, env)
        assert failure is None, failure

    def test_soname_not_in_bundle(self, donor, target):
        bundle = _bundle_for(donor)
        resolver, _ = _resolver(target)
        plan = resolver.resolve(["libabsent.so.1"], bundle,
                                target.machine.env.copy(), "/home/user/s3")
        assert not plan.resolved_all
        assert plan.unresolved[0].soname == "libabsent.so.1"

    def test_activation_script(self, donor, target):
        bundle = _bundle_for(donor)
        resolver, _ = _resolver(target)
        plan = resolver.resolve(["libifcore.so.5", "libabsent.so.2"],
                                bundle, target.machine.env.copy(),
                                "/home/user/s4")
        script = plan.activation_script()
        assert script.startswith("#!/bin/sh")
        assert 'export LD_LIBRARY_PATH="/home/user/s4' in script
        assert "UNRESOLVED: libabsent.so.2" in script

    def test_staged_bytes_accounting(self, donor, target):
        bundle = _bundle_for(donor)
        resolver, _ = _resolver(target)
        plan = resolver.resolve(["libifcore.so.5"], bundle,
                                target.machine.env.copy(), "/home/user/s5")
        assert plan.staged_bytes > 1_000_000  # libifcore is ~1.7 MB
