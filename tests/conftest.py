"""Shared fixtures.

``paper_sites`` is session-scoped and must be treated as read-only (tests
that stage files or submit jobs build their own sites).  ``make_site``
builds small single-purpose sites quickly.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.elf.structs import newest_glibc
from repro.mpi.implementations import open_mpi
from repro.mpi.stack import Interconnect
from repro.sites.catalog import PAPER_SITE_SPECS, build_paper_sites
from repro.sites.scheduler import SchedulerFlavor
from repro.sites.site import Site, SiteSpec, StackRequest
from repro.sysmodel import distro as distros
from repro.toolchain.compilers import CompilerFamily, intel

TEST_SEED = 987654


def required_glibc(elf) -> Optional[str]:
    """The required C library version of a parsed ELF file: the one
    GLIBC rule over its version references and definitions."""
    return newest_glibc(
        [v.name for req in elf.version_requirements for v in req.versions]
        + [d.name.name for d in elf.version_definitions])


@pytest.fixture(autouse=True)
def _isolated_run_ledger(tmp_path, monkeypatch):
    """Point the run ledger at a per-test directory.

    ``feam matrix`` / ``feam chaos`` record a manifest into the ledger
    by default; without this, every in-process ``feam_main`` call in
    the suite would append to the repository's own ``.feam/runs/``.
    """
    monkeypatch.setenv("FEAM_LEDGER_DIR", str(tmp_path / "ledger"))


@pytest.fixture(autouse=True)
def _isolated_persistent_cache(monkeypatch):
    """Keep the persistent evaluation cache out of tests by default.

    A developer's ``FEAM_CACHE_DIR`` must never leak warm cache state
    into the suite; tests that exercise the store opt in explicitly
    with ``--cache-dir`` or their own ``PersistentStore``.
    """
    monkeypatch.delenv("FEAM_CACHE_DIR", raising=False)


@pytest.fixture(scope="session")
def paper_sites():
    """The five Table II sites (session-shared; treat as read-only)."""
    return build_paper_sites(TEST_SEED)


@pytest.fixture(scope="session")
def paper_sites_by_name(paper_sites):
    return {site.name: site for site in paper_sites}


def _mini_spec(name: str = "minisite", **overrides) -> SiteSpec:
    defaults = dict(
        name=name,
        display_name="Mini Site",
        organization="Testing",
        site_type="Cluster",
        cores=64,
        arch="x86_64",
        distro=distros.CENTOS_5_6,
        libc_version="2.5",
        system_gnu_version="4.1.2",
        vendor_compilers=(intel("11.1"),),
        stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU),
                StackRequest(open_mpi("1.4"), CompilerFamily.INTEL)),
        interconnect=Interconnect.INFINIBAND,
        module_system="modules",
        scheduler_flavor=SchedulerFlavor.PBS,
    )
    defaults.update(overrides)
    return SiteSpec(**defaults)


@pytest.fixture
def make_site():
    """Factory for small fresh sites: ``make_site(name, **spec_overrides)``."""

    def factory(name: str = "minisite", seed: int = TEST_SEED,
                **overrides) -> Site:
        return Site(_mini_spec(name, **overrides), seed)

    return factory


@pytest.fixture
def mini_site(make_site):
    """One small fresh site (mutable; per-test)."""
    return make_site()


@pytest.fixture(scope="session")
def paper_spec_names():
    return [spec.name for spec in PAPER_SITE_SPECS]
