#!/usr/bin/env python3
"""Deep dive: the resolution model on a missing-soname migration.

Migrates an MVAPICH2 1.2 binary from Ranger to India, where the MVAPICH2
1.7 series renamed ``libmpich`` -- the binary's library is simply absent.
Walks through what FEAM does about it: the bundle's library records, the
recursive copy-usability decisions, the staged files, and the generated
activation script.

Run:  python examples/resolve_missing_libraries.py
"""

from repro.core import Feam
from repro.sites import build_paper_sites
from repro.toolchain.compilers import Language


def main() -> None:
    sites = {s.name: s for s in build_paper_sites()}
    ranger, india = sites["ranger"], sites["india"]

    stack = ranger.find_stack("mvapich2-1.2-gnu")
    app = ranger.compile_mpi_program("mvapp", Language.C, stack,
                                     payload_size=400_000)
    ranger.machine.fs.write("/home/user/mvapp", app.image, mode=0o755)
    print(f"built mvapp at ranger with {stack.spec}")
    print(f"linked against: {', '.join(app.needed)}\n")

    feam = Feam()
    bundle = feam.run_source_phase(ranger, "/home/user/mvapp",
                                   env=ranger.env_with_stack(stack))
    print("source-phase bundle:")
    for record in bundle.libraries:
        status = "copied" if record.copied else "described only"
        required = (record.description.required_glibc
                    if record.description else None)
        glibc = f", needs GLIBC_{required}" if required else ""
        print(f"  {record.soname:<22} {status}{glibc}")
    print(f"  total: {bundle.copy_bytes / 1e6:.1f} MB\n")

    india.machine.fs.write("/home/user/mvapp", app.image, mode=0o755)

    basic = feam.run_target_phase(india, binary_path="/home/user/mvapp",
                                  staging_tag="mv-basic")
    print(f"basic prediction (no bundle): "
          f"{'READY' if basic.ready else 'NOT READY'}")
    print(f"  missing: {', '.join(basic.prediction.missing_libraries)}\n")

    extended = feam.run_target_phase(india, binary_path="/home/user/mvapp",
                                     bundle=bundle, staging_tag="mv-ext")
    print(f"extended prediction (with bundle): "
          f"{'READY' if extended.ready else 'NOT READY'}")
    if extended.resolution is not None:
        print("resolution decisions:")
        for decision in extended.resolution.decisions:
            verdict = "stage copy" if decision.usable else "UNRESOLVABLE"
            print(f"  {decision.soname:<22} {verdict}: {decision.reason}")
        staged_dir = extended.resolution.staging_dir
        print(f"\nstaged files under {staged_dir}:")
        if india.machine.fs.is_dir(staged_dir):
            for name in india.machine.fs.listdir(staged_dir):
                size = india.machine.fs.size(f"{staged_dir}/{name}")
                print(f"  {name} ({size / 1e6:.1f} MB)")
        print("\nactivation script handed to the user:")
        print(extended.resolution.activation_script())

    if extended.ready:
        run_stack = india.stack_by_prefix(extended.selected_stack_prefix)
        result = india.run_with_retries("mvapp", app.image, run_stack,
                                        env=extended.run_environment)
        print(f"actual execution with staged copies: "
              f"{'SUCCESS' if result.ok else f'FAILED ({result.failure})'}")


if __name__ == "__main__":
    main()
