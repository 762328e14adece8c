"""Parametric fleet generation: thousands of deterministic synthetic sites.

The paper evaluates FEAM on 5 hand-picked sites; a production deployment
predicts readiness across a *fleet* of dissimilar hosts, where the matrix
has thousands to hundreds of thousands of cells.  :class:`SiteGenerator`
stands that fleet up: a seeded parametric sampler over the primitives of
:mod:`repro.sites.catalog` -- distro/libc platform, MPI stack sets,
module systems, interconnects, installed-library subsets -- that turns a
compact spec string such as ``fleet:n=1000,seed=7`` into 1k-10k fully
materialised :class:`~repro.sites.site.Site` objects.

Two properties make fleet scale tractable:

* **Determinism.**  Every sampling draw derives from
  :func:`repro.util.hashing.stable_uniform` keyed by (fleet seed, site
  index, field), so the same spec string produces byte-identical site
  specs -- and :func:`spec_fingerprint` digests -- in any process.
* **Template cloning.**  Sampled specs collapse onto a bounded set of
  *installation templates* (:func:`template_key`: the spec fields that
  determine filesystem content).  One site per template is built the
  expensive way; every other site of that template is
  :meth:`~repro.sites.site.Site.cloned` from it in well under a
  millisecond, with only the non-install fields (scheduler flavor,
  misconfigured stacks, missing tools) re-applied.

Generated sites carry a ``content_key`` attribute -- the digest of every
spec field that can influence discovery or evaluation outcomes
(:func:`content_key`).  The evaluation engine uses it to share discovery
results and evaluation cells between sites whose environments are
provably identical; hand-built sites (the paper's five) have no
``content_key`` and keep the fully per-site path.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.mpi.implementations import mpich2, mvapich2, open_mpi
from repro.mpi.stack import Interconnect
from repro.sites.catalog import (
    _EL5_COMPAT,
    _EL6_COMPAT,
    build_paper_sites,
)
from repro.sites.scheduler import SchedulerFlavor
from repro.sites.site import Site, SiteSpec, StackRequest
from repro.sysmodel import distro as distros
from repro.toolchain.compilers import Compiler, CompilerFamily, intel, pgi
from repro.util.hashing import stable_digest, stable_uniform

_G = CompilerFamily.GNU
_I = CompilerFamily.INTEL
_P = CompilerFamily.PGI


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """A parsed fleet spec string (``fleet:n=1000,seed=7``)."""

    count: int
    seed: int
    name_prefix: str = "gen"

    def render(self) -> str:
        return f"fleet:n={self.count},seed={self.seed}"


#: Fleet sizes outside this range are almost certainly typos (and the
#: upper bound keeps memory use within the 10k-site design envelope).
_MAX_FLEET = 10_000


def parse_fleet_spec(text: str) -> FleetSpec:
    """Parse ``fleet:n=<count>[,seed=<seed>][,prefix=<name>]``."""
    if not text.startswith("fleet:"):
        raise ValueError(f"not a fleet spec: {text!r}")
    count, seed, prefix = 100, 0, "gen"
    body = text[len("fleet:"):].strip()
    for item in filter(None, (p.strip() for p in body.split(","))):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"fleet spec item {item!r}: expected key=value")
        key, value = key.strip(), value.strip()
        if key == "n":
            count = int(value)
        elif key == "seed":
            seed = int(value)
        elif key == "prefix":
            if not value or "/" in value:
                raise ValueError(f"bad fleet prefix {value!r}")
            prefix = value
        else:
            raise ValueError(f"unknown fleet spec key {key!r} "
                             f"(known: n, seed, prefix)")
    if not 1 <= count <= _MAX_FLEET:
        raise ValueError(f"fleet size must be 1..{_MAX_FLEET}, got {count}")
    return FleetSpec(count=count, seed=seed, name_prefix=prefix)


# -- the sampling space ---------------------------------------------------------

#: Era platforms: (distro, libc version, system GNU version,
#: vendor compilers, compat library products).  These are the Table II
#: platform rows, reused as the population the fleet samples from.
_PLATFORMS = (
    (distros.CENTOS_4_9, "2.3.4", "3.4.6", (intel("10.1"), pgi("7.2")), ()),
    (distros.CENTOS_5_6, "2.5", "4.1.2", (intel("11.1"),), _EL5_COMPAT),
    (distros.RHEL_5_6, "2.5", "4.1.2", (intel("11.1"),), _EL5_COMPAT),
    (distros.RHEL_6_1, "2.12", "4.4.5", (intel("12.0"),), _EL6_COMPAT),
    (distros.SLES_11, "2.11.1", "4.4.3", (intel("11.1"),), _EL6_COMPAT),
)


def _stacks(release, *families) -> tuple[StackRequest, ...]:
    return tuple(StackRequest(release, family) for family in families)


def _stack_menu(platform_index: int) -> tuple[tuple[StackRequest, ...], ...]:
    """The admissible stack sets for one platform (era-matched releases)."""
    if platform_index == 0:  # the CentOS 4.9 / Ranger era
        return (
            _stacks(open_mpi("1.3"), _I, _G),
            _stacks(open_mpi("1.3"), _I, _G) + _stacks(mvapich2("1.2"), _I),
            _stacks(mvapich2("1.2"), _I, _G),
        )
    return (
        _stacks(open_mpi("1.4"), _I, _G),
        _stacks(open_mpi("1.4"), _I, _G) + _stacks(mvapich2("1.7a"), _I),
        _stacks(open_mpi("1.4"), _G) + _stacks(mpich2("1.4"), _I, _G),
    )


_MODULE_SYSTEMS = (("modules", 0.7), ("softenv", 0.2), ("none", 0.1))
_INTERCONNECTS = ((Interconnect.INFINIBAND, 0.7),
                  (Interconnect.ETHERNET, 0.25),
                  (Interconnect.NUMALINK, 0.05))
_SCHEDULERS = ((SchedulerFlavor.PBS, 0.7), (SchedulerFlavor.SGE, 0.3))
_STACK_SET_WEIGHTS = (0.5, 0.3, 0.2)
_SITE_TYPES = ("Cluster", "MPP", "SMP", "Hybrid")
_CORE_COUNTS = (64, 128, 256, 512, 1_024, 4_096)


class SiteGenerator:
    """Seeded parametric sampling of synthetic fleet sites."""

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec

    # -- draws -----------------------------------------------------------------

    def _uniform(self, index: int, field: str) -> float:
        return stable_uniform("fleetgen", self.spec.seed, index, field)

    def _weighted(self, index: int, field: str, options):
        draw = self._uniform(index, field)
        acc = 0.0
        for value, weight in options:
            acc += weight
            if draw < acc:
                return value
        return options[-1][0]

    # -- one site spec ---------------------------------------------------------

    def site_spec(self, index: int) -> SiteSpec:
        """The sampled spec of fleet member *index* (pure, deterministic)."""
        if not 0 <= index < self.spec.count:
            raise IndexError(f"fleet index {index} out of range "
                             f"0..{self.spec.count - 1}")
        platform_index = int(self._uniform(index, "platform")
                             * len(_PLATFORMS))
        distro, libc, gnu, vendors, compat = _PLATFORMS[platform_index]
        menu = _stack_menu(platform_index)
        stack_weights = tuple(zip(range(len(menu)), _STACK_SET_WEIGHTS))
        stacks = menu[self._weighted(index, "stackset", stack_weights)]
        misconfigured: tuple[str, ...] = ()
        if self._uniform(index, "misconfigured") < 0.1:
            request = stacks[0]
            misconfigured = (
                f"{request.release.slug}-{request.compiler_family.value}",)
        missing_tools: tuple[str, ...] = ()
        if self._uniform(index, "missing-locate") < 0.3:
            missing_tools = ("locate",)
        name = f"{self.spec.name_prefix}-{index:04d}"
        return SiteSpec(
            name=name,
            display_name=f"Fleet {name}",
            organization="Synthetic Fleet",
            site_type=_SITE_TYPES[int(self._uniform(index, "site-type")
                                      * len(_SITE_TYPES))],
            cores=_CORE_COUNTS[int(self._uniform(index, "cores")
                                   * len(_CORE_COUNTS))],
            arch="x86_64",
            distro=distro,
            libc_version=libc,
            system_gnu_version=gnu,
            vendor_compilers=vendors,
            stacks=stacks,
            interconnect=self._weighted(index, "interconnect",
                                        _INTERCONNECTS),
            module_system=self._weighted(index, "modules", _MODULE_SYSTEMS),
            scheduler_flavor=self._weighted(index, "scheduler", _SCHEDULERS),
            misconfigured=misconfigured,
            missing_tools=missing_tools,
            compat_products=compat,
        )

    def site_specs(self) -> list[SiteSpec]:
        return [self.site_spec(i) for i in range(self.spec.count)]

    def fingerprints(self) -> list[str]:
        """Per-site spec digests, computable without building anything.

        The determinism contract: two processes constructing the same
        :class:`FleetSpec` must produce byte-identical fingerprint lists.
        """
        return [spec_fingerprint(self.site_spec(i))
                for i in range(self.spec.count)]

    # -- materialisation -------------------------------------------------------

    def build(self) -> list[Site]:
        """Materialise the whole fleet (templates built, the rest cloned)."""
        sites: list[Site] = []
        templates: dict[str, Site] = {}
        for index in range(self.spec.count):
            spec = self.site_spec(index)
            tkey = template_key(spec)
            template = templates.get(tkey)
            if template is None:
                site = Site(spec, self.spec.seed)
                templates[tkey] = site
            else:
                site = Site.cloned(
                    template, spec.name, self.spec.seed,
                    display_name=spec.display_name,
                    site_type=spec.site_type,
                    cores=spec.cores,
                    scheduler_flavor=spec.scheduler_flavor,
                    misconfigured=spec.misconfigured,
                    missing_tools=spec.missing_tools)
            site.content_key = content_key(spec)
            sites.append(site)
        return sites

    @property
    def template_count(self) -> int:
        """Distinct installation templates in this fleet (no building)."""
        return len({template_key(self.site_spec(i))
                    for i in range(self.spec.count)})


# -- content addressing ---------------------------------------------------------

def _compiler_part(compiler: Compiler) -> str:
    return f"{compiler.family.value}-{compiler.version}"


def _install_parts(spec: SiteSpec) -> list:
    """Every spec field that determines installed filesystem content."""
    parts: list = [
        spec.arch, spec.distro.family, spec.distro.version,
        spec.libc_version, spec.system_gnu_version,
        spec.interconnect.value, spec.module_system,
    ]
    parts.extend(_compiler_part(c) for c in spec.vendor_compilers)
    for request in spec.stacks:
        parts.extend((request.release.slug,
                      request.compiler_family.value,
                      request.static_libs))
    parts.extend(p.soname for p in spec.compat_products)
    parts.extend(spec.compute_node_missing)
    return parts


def template_key(spec: SiteSpec) -> str:
    """Digest of the spec fields that determine filesystem content.

    Two specs with equal template keys install byte-identical trees, so
    one can be cloned from the other's built site.
    """
    return stable_digest("site-template", *_install_parts(spec))


def content_key(spec: SiteSpec) -> str:
    """Digest of every field that can influence discovery or evaluation.

    A superset of :func:`template_key`: adds the non-install fields that
    still steer FEAM's behaviour (misconfigured stacks change hello-test
    outcomes, missing tools change discovery fallbacks, the scheduler
    flavor shapes submission).  Sites with equal content keys are
    evaluation-equivalent, which is the engine's licence to share their
    discovery results and cells.
    """
    return stable_digest("site-content", *_install_parts(spec),
                         spec.scheduler_flavor.value,
                         *sorted(spec.misconfigured),
                         *sorted(spec.missing_tools))


def spec_fingerprint(spec: SiteSpec) -> str:
    """Digest over the *entire* spec, cosmetics included."""
    return stable_digest(
        "site-spec", spec.name, spec.display_name, spec.organization,
        spec.site_type, spec.cores, *_install_parts(spec),
        spec.scheduler_flavor.value, *sorted(spec.misconfigured),
        *sorted(spec.missing_tools))


# -- spec-string resolution ------------------------------------------------------

def resolve_sites(spec_text: str, default_seed: int = 20130101,
                  ) -> list[Site]:
    """Sites from a generator spec string.

    * ``paper`` -- the five Table II sites, built fresh (the named spec
      that reproduces the paper's evaluation population);
    * ``fleet:n=...,seed=...`` -- a generated synthetic fleet.
    """
    text = spec_text.strip()
    if text == "paper":
        return build_paper_sites(default_seed)
    if text.startswith("fleet:"):
        return SiteGenerator(parse_fleet_spec(text)).build()
    raise ValueError(
        f"unknown sites spec {spec_text!r}; expected 'paper' or "
        f"'fleet:n=<count>[,seed=<seed>][,prefix=<name>]'")


def describe_fleet(sites: Sequence[Site]) -> str:
    """One-line fleet summary (size, distinct templates/content groups)."""
    content_keys = {getattr(s, "content_key", None) for s in sites}
    content_keys.discard(None)
    groups: Optional[int] = len(content_keys) or None
    if groups is None:
        return f"{len(sites)} site(s)"
    return f"{len(sites)} site(s) in {groups} evaluation-equivalent group(s)"
