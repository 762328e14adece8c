#!/usr/bin/env python3
"""Quickstart: predict whether a binary will run at another site.

Builds an MPI Fortran application at UVa's Fir cluster, migrates it to
XSEDE Ranger, and runs both FEAM phases: the source phase at the
guaranteed execution environment (Fir, where the binary runs), and the
target phase at Ranger.  Prints FEAM's verdict, the per-determinant
detail, and -- when FEAM says "ready" -- actually executes the binary in
the environment FEAM composed.

Run:  python examples/quickstart.py
"""

from repro.core import Feam
from repro.sites import build_paper_sites
from repro.toolchain.compilers import Language


def main() -> None:
    print("building the five Table II sites...")
    sites = {s.name: s for s in build_paper_sites()}
    fir, ranger = sites["fir"], sites["ranger"]

    # A scientist compiles their application at Fir with Open MPI + Intel.
    stack = fir.find_stack("openmpi-1.4-intel")
    app = fir.compile_mpi_program(
        "mysolver", Language.FORTRAN, stack,
        glibc_ceiling=(2, 3), payload_size=800_000)
    fir.machine.fs.write("/home/user/mysolver", app.image, mode=0o755)
    print(f"compiled mysolver at fir with {stack.spec} "
          f"({app.size / 1e6:.1f} MB)")

    feam = Feam()

    # Source phase at the guaranteed execution environment.
    bundle = feam.run_source_phase(
        fir, "/home/user/mysolver", env=fir.env_with_stack(stack))
    print(f"source phase: described {len(bundle.libraries)} libraries, "
          f"copied {bundle.copied_count} "
          f"({bundle.copy_bytes / 1e6:.1f} MB bundle)")

    # Migrate the binary and the bundle to Ranger; run the target phase.
    ranger.machine.fs.write("/home/user/mysolver", app.image, mode=0o755)
    report = feam.run_target_phase(
        ranger, binary_path="/home/user/mysolver", bundle=bundle,
        staging_tag="quickstart")

    print()
    print(ranger.machine.fs.read_text(report.output_path))

    if report.ready:
        stack_at_ranger = ranger.stack_by_prefix(
            report.selected_stack_prefix)
        result = ranger.run_with_retries(
            "mysolver", app.image, stack_at_ranger,
            env=report.run_environment)
        print(f"actual execution at ranger: "
              f"{'SUCCESS' if result.ok else f'FAILED ({result.failure})'}")
    else:
        print("FEAM predicts the binary is not ready at ranger; "
              "see the reasons above.")


if __name__ == "__main__":
    main()
