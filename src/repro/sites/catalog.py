"""The five evaluation sites of the paper's Table II.

==========  =============================  ==========  ==========================================
Site        System                         C library   MPI stacks (compilers i/g/p)
==========  =============================  ==========  ==========================================
ranger      XSEDE Ranger, TACC (MPP)       2.3.4       Open MPI 1.3 (i/g/p), MVAPICH2 1.2 (i/g/p)
forge       XSEDE Forge, NCSA (Hybrid)     2.12        Open MPI 1.4 (g/i), MVAPICH2 1.7rc1 (i)
blacklight  XSEDE Blacklight, PSC (SMP)    2.11.1      Open MPI 1.4 (i/g)
india       FutureGrid India, IU (Cluster) 2.5         Open MPI 1.4 (i/g), MVAPICH2 1.7a2 (i/g),
                                                       MPICH2 1.4 (i/g)
fir         ITS Fir, UVa (Cluster)         2.5         Open MPI 1.4 (i/g/p), MVAPICH2 1.7a (i/g/p),
                                                       MPICH2 1.3 (i/g/p)
==========  =============================  ==========  ==========================================

PGI versions are not given in the paper; 7.2 (Ranger-era) and 10.3 (Fir)
are used.  One advertised-but-misconfigured stack is included (Fir's
PGI MPICH2), reproducing the paper's observation that advertised stack
combinations are sometimes unusable due to administrator misconfiguration
(Section III.B).
"""

from __future__ import annotations

from repro.mpi.implementations import mpich2, mvapich2, open_mpi
from repro.mpi.stack import Interconnect
from repro.sites.scheduler import SchedulerFlavor
from repro.sites.site import Site, SiteSpec, StackRequest
from repro.sysmodel import distro as distros
from repro.toolchain.compilers import CompilerFamily, intel, pgi
from repro.toolchain.products import LibraryProduct

_G = CompilerFamily.GNU
_I = CompilerFamily.INTEL
_P = CompilerFamily.PGI


def _stacks(release, *families) -> list[StackRequest]:
    return [StackRequest(release, family) for family in families]


#: Distro compatibility runtimes for binaries built by older toolchains
#: (RHEL/CentOS shipped compat-libf2c-34, RHEL 6 / SLES 11 additionally
#: compat-libgfortran-41).  Built for old-ABI consumers, hence the low
#: glibc ceiling.
_COMPAT_G77 = LibraryProduct(
    "libg2c.so.0", filename="libg2c.so.0.0.0", size=160_000,
    glibc_ceiling=(2, 3), comment=("compat-libf2c-34",),
    exports=("s_wsfe", "do_fio", "e_wsfe"))
_COMPAT_GFORTRAN_41 = LibraryProduct(
    "libgfortran.so.1", filename="libgfortran.so.1.0.0", size=640_000,
    verdefs=("GFORTRAN_1.0",), needed=("libm.so.6",),
    glibc_ceiling=(2, 3, 4), comment=("compat-libgfortran-41",),
    exports=("_gfortran_st_write", "_gfortran_st_read",
             "_gfortran_stop_numeric"))

_EL5_COMPAT = (_COMPAT_G77,)
_EL6_COMPAT = (_COMPAT_G77, _COMPAT_GFORTRAN_41)


PAPER_SITE_SPECS: tuple[SiteSpec, ...] = (
    SiteSpec(
        name="ranger",
        display_name="XSEDE Ranger",
        organization="Texas Advanced Computing Center",
        site_type="MPP", cores=62_976, arch="x86_64",
        distro=distros.CENTOS_4_9, libc_version="2.3.4",
        system_gnu_version="3.4.6",
        vendor_compilers=(intel("10.1"), pgi("7.2")),
        stacks=tuple(
            _stacks(open_mpi("1.3"), _I, _G, _P)
            + _stacks(mvapich2("1.2"), _I, _G, _P)),
        interconnect=Interconnect.INFINIBAND,
        module_system="modules",
        scheduler_flavor=SchedulerFlavor.SGE,
        missing_tools=("locate",),
    ),
    SiteSpec(
        name="forge",
        display_name="XSEDE Forge",
        organization="National Center for Supercomputing Applications",
        site_type="Hybrid", cores=576, arch="x86_64",
        distro=distros.RHEL_6_1, libc_version="2.12",
        system_gnu_version="4.4.5",
        vendor_compilers=(intel("12.0"),),
        stacks=tuple(
            _stacks(open_mpi("1.4"), _G, _I)
            + _stacks(mvapich2("1.7rc1"), _I)),
        interconnect=Interconnect.INFINIBAND,
        module_system="modules",
        scheduler_flavor=SchedulerFlavor.PBS,
        compat_products=_EL6_COMPAT,
    ),
    SiteSpec(
        name="blacklight",
        display_name="XSEDE Blacklight",
        organization="Pittsburgh Supercomputing Center",
        site_type="SMP", cores=4_096, arch="x86_64",
        distro=distros.SLES_11, libc_version="2.11.1",
        system_gnu_version="4.4.3",
        vendor_compilers=(intel("11.1"),),
        stacks=tuple(_stacks(open_mpi("1.4"), _I, _G)),
        interconnect=Interconnect.NUMALINK,
        module_system="softenv",
        scheduler_flavor=SchedulerFlavor.PBS,
        compat_products=_EL6_COMPAT,
    ),
    SiteSpec(
        name="india",
        display_name="FutureGrid India",
        organization="Indiana University",
        site_type="Cluster", cores=920, arch="x86_64",
        distro=distros.RHEL_5_6, libc_version="2.5",
        system_gnu_version="4.1.2",
        vendor_compilers=(intel("11.1"),),
        stacks=tuple(
            _stacks(open_mpi("1.4"), _I, _G)
            + _stacks(mvapich2("1.7a2"), _I, _G)
            + _stacks(mpich2("1.4"), _I, _G)),
        interconnect=Interconnect.INFINIBAND,
        module_system="modules",
        scheduler_flavor=SchedulerFlavor.PBS,
        compat_products=_EL5_COMPAT,
    ),
    SiteSpec(
        name="fir",
        display_name="ITS Fir",
        organization="University of Virginia",
        site_type="Cluster", cores=1_496, arch="x86_64",
        distro=distros.CENTOS_5_6, libc_version="2.5",
        system_gnu_version="4.1.2",
        vendor_compilers=(intel("12.0"), pgi("10.3")),
        stacks=tuple(
            _stacks(open_mpi("1.4"), _I, _G, _P)
            + _stacks(mvapich2("1.7a"), _I, _G, _P)
            + _stacks(mpich2("1.3"), _I, _G, _P)),
        interconnect=Interconnect.INFINIBAND,
        module_system="none",
        scheduler_flavor=SchedulerFlavor.PBS,
        misconfigured=("mpich2-1.3-pgi",),
        missing_tools=("locate",),
        compat_products=_EL5_COMPAT,
    ),
)


def site_spec(name: str) -> SiteSpec:
    """Look up one of the paper's site specs by name."""
    for spec in PAPER_SITE_SPECS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown paper site: {name!r}")


def build_paper_sites(seed: int = 20130101) -> list[Site]:
    """Materialise all five Table II sites.

    Every call builds fresh instances, so callers may mutate them (FEAM
    stages library copies into a target's filesystem).
    """
    return [Site(spec, seed) for spec in PAPER_SITE_SPECS]
