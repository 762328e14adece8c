#!/usr/bin/env python3
"""Survey every site for a community binary.

The paper's motivating scenario: a scientist receives a community code as
a binary (no recompilation possible) and wants quick access to whichever
computing site can run it.  FEAM surveys all five paper sites and prints
a readiness matrix -- basic prediction (binary only) next to extended
prediction (with the source-phase bundle) -- plus actual execution as
ground truth.

Run:  python examples/survey_sites.py
"""

from repro.core import Feam
from repro.sites import build_paper_sites
from repro.toolchain.compilers import Language


def main() -> None:
    sites = {s.name: s for s in build_paper_sites()}
    home = sites["india"]

    # The community code: MVAPICH2 + GNU Fortran, built at India.
    stack = home.find_stack("mvapich2-1.7a2-gnu")
    app = home.compile_mpi_program(
        "communitycode", Language.FORTRAN, stack,
        glibc_ceiling=(2, 4), payload_size=1_500_000)
    home.machine.fs.write("/home/user/communitycode", app.image, mode=0o755)
    print(f"community binary built at india with {stack.spec}\n")

    feam = Feam()
    bundle = feam.run_source_phase(
        home, "/home/user/communitycode", env=home.env_with_stack(stack))

    header = (f"{'site':<12}{'basic':>8}{'extended':>10}{'actual':>9}"
              f"  notes")
    print(header)
    print("-" * len(header))
    for name, target in sites.items():
        if name == home.name:
            print(f"{name:<12}{'--':>8}{'--':>10}{'home':>9}  "
                  f"guaranteed execution environment")
            continue
        matching = target.stacks_of_kind(stack.spec.kind)
        if not matching:
            print(f"{name:<12}{'--':>8}{'--':>10}{'--':>9}  "
                  f"no {stack.spec.kind.value} implementation")
            continue
        target.machine.fs.write("/home/user/communitycode", app.image,
                                mode=0o755)
        basic = feam.run_target_phase(
            target, binary_path="/home/user/communitycode",
            staging_tag="survey-basic")
        extended = feam.run_target_phase(
            target, binary_path="/home/user/communitycode", bundle=bundle,
            staging_tag="survey-ext")
        # Ground truth with FEAM's configuration (or the naive stack).
        if extended.selected_stack_prefix is not None:
            run_stack = target.stack_by_prefix(
                extended.selected_stack_prefix)
            env = (extended.run_environment
                   or target.env_with_stack(run_stack))
        else:
            run_stack, env = matching[0], None
        actual = target.run_with_retries(
            "communitycode", app.image, run_stack, env=env)
        note = "; ".join(extended.prediction.reasons) or "ready"
        print(f"{name:<12}"
              f"{'ready' if basic.ready else 'no':>8}"
              f"{'ready' if extended.ready else 'no':>10}"
              f"{'ok' if actual.ok else 'fail':>9}  {note[:60]}")

    print()
    print("extended predictions use the source-phase bundle: missing "
          "libraries are\nresolved by staging copies, and hello-world "
          "probes expose ABI mismatches\nbefore any real job is queued.")


if __name__ == "__main__":
    main()
