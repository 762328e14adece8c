#!/usr/bin/env python3
"""Define your own computing site and predict readiness there.

The catalog's five sites reproduce the paper, but the public API lets a
downstream user describe any site: this example builds a hypothetical
new cluster ("cedar": RHEL 6, glibc 2.12, Open MPI 1.4 + MPICH2 1.4,
Environment Modules, SLURM) and checks which of three differently built
binaries FEAM predicts will run there.

Run:  python examples/custom_site.py
"""

from repro.core import Feam
from repro.mpi.implementations import mpich2, open_mpi
from repro.mpi.stack import Interconnect
from repro.sites import build_paper_sites
from repro.sites.scheduler import SchedulerFlavor
from repro.sites.site import Site, SiteSpec, StackRequest
from repro.sysmodel.distro import RHEL_6_1
from repro.toolchain.compilers import CompilerFamily, Language, intel


def build_cedar() -> Site:
    spec = SiteSpec(
        name="cedar",
        display_name="Cedar (custom)",
        organization="Example University",
        site_type="Cluster",
        cores=2_048,
        arch="x86_64",
        distro=RHEL_6_1,
        libc_version="2.12",
        system_gnu_version="4.4.5",
        vendor_compilers=(intel("12.0"),),
        stacks=(
            StackRequest(open_mpi("1.4"), CompilerFamily.GNU),
            StackRequest(open_mpi("1.4"), CompilerFamily.INTEL),
            StackRequest(mpich2("1.4"), CompilerFamily.GNU),
        ),
        interconnect=Interconnect.INFINIBAND,
        module_system="modules",
        scheduler_flavor=SchedulerFlavor.SLURM,
    )
    return Site(spec, seed=2026)


def main() -> None:
    cedar = build_cedar()
    print(f"built {cedar.spec.display_name}: "
          f"{len(cedar.stacks)} MPI stacks, glibc "
          f"{cedar.libc.version_string}, "
          f"{cedar.scheduler.flavor.value} scheduler")
    print("the user supplies the submission script format "
          "(FEAM's only required site input):")
    print(cedar.scheduler.parallel_template())

    donors = {s.name: s for s in build_paper_sites()}
    feam = Feam()

    candidates = [
        ("india", "openmpi-1.4-gnu", Language.FORTRAN, (2, 3)),
        ("ranger", "mvapich2-1.2-intel", Language.C, (2, 3)),
        ("fir", "mpich2-1.3-intel", Language.C, (2, 4)),
    ]
    for source_name, stack_slug, language, ceiling in candidates:
        source = donors[source_name]
        try:
            stack = source.find_stack(stack_slug)
        except KeyError:
            print(f"\n{source_name} has no {stack_slug}; skipping")
            continue
        name = f"app-{stack_slug}"
        app = source.compile_mpi_program(name, language, stack,
                                         glibc_ceiling=ceiling)
        path = f"/home/user/{name}"
        source.machine.fs.write(path, app.image, mode=0o755)
        bundle = feam.run_source_phase(source, path,
                                       env=source.env_with_stack(stack))
        cedar.machine.fs.write(path, app.image, mode=0o755)
        report = feam.run_target_phase(cedar, binary_path=path,
                                       bundle=bundle, staging_tag=name)
        verdict = "READY" if report.ready else "NOT READY"
        reasons = "; ".join(report.prediction.reasons) or "-"
        print(f"\n{name} (built at {source_name}): {verdict}")
        print(f"  reasons: {reasons}")
        if report.prediction.selected_stack is not None:
            print(f"  selected stack: "
                  f"{report.prediction.selected_stack.label}")


if __name__ == "__main__":
    main()
