"""FEAM reproduction: predicting execution readiness of MPI binaries.

A from-scratch reproduction of *"Predicting Execution Readiness of MPI
Binaries with FEAM, a Framework for Efficient Application Migration"*
(Sarnowska-Upton & Grimshaw, ICPP 2013), including every substrate the
evaluation needs:

* :mod:`repro.elf` -- ELF reader/writer (the binaries are real bytes);
* :mod:`repro.sysmodel` -- virtual Linux machines with a faithful dynamic
  loader;
* :mod:`repro.tools` -- objdump/readelf/ldd/uname/locate/find emulation;
* :mod:`repro.toolchain` -- GNU/Intel/PGI compilers and glibc releases;
* :mod:`repro.mpi` -- Open MPI / MPICH2 / MVAPICH2 stacks and a simulated
  ``mpiexec`` with the paper's failure taxonomy;
* :mod:`repro.sites` -- the five Table II evaluation sites;
* :mod:`repro.corpus` -- the NPB / SPEC MPI2007 test set (110 + 147
  binaries);
* :mod:`repro.core` -- **FEAM itself**: the BDC, EDC, TEC, prediction and
  resolution models, and the two phases;
* :mod:`repro.evaluation` -- the full Section VI evaluation and the
  regeneration of every table and figure.

Quick start::

    from repro.sites import build_paper_sites
    from repro.core import Feam
    from repro.toolchain.compilers import Language

    sites = build_paper_sites()
    fir, ranger = sites[4], sites[0]

    stack = fir.find_stack("openmpi-1.4-intel")
    app = fir.compile_mpi_program("myapp", Language.FORTRAN, stack)
    fir.machine.fs.write("/home/user/myapp", app.image, mode=0o755)

    feam = Feam()
    bundle = feam.run_source_phase(
        fir, "/home/user/myapp", env=fir.env_with_stack(stack))
    ranger.machine.fs.write("/home/user/myapp", app.image, mode=0o755)
    report = feam.run_target_phase(
        ranger, binary_path="/home/user/myapp", bundle=bundle)
    print("ready:", report.ready)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
