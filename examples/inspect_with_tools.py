#!/usr/bin/env python3
"""Tour of the emulated Unix tools over a simulated binary.

Compiles an MPI application at a simulated site and prints what each of
FEAM's information sources sees: ``objdump -p``, ``readelf -d``,
``readelf -V``, ``readelf -p .comment``, ``nm -D``, ``ldd`` (with and
without the MPI stack loaded), ``ldd -r``, and ``ldconfig -p``.

Everything shown is parsed from genuine ELF bytes in the site's virtual
filesystem.  Run:  python examples/inspect_with_tools.py
"""

from repro.elf.render import (
    render_objdump_private,
    render_readelf_comment,
    render_readelf_dynamic,
    render_readelf_versions,
)
from repro.sites import build_paper_sites
from repro.sysmodel.ldconfig import read_cache, render_ldconfig_p
from repro.toolchain.compilers import Language


def banner(title: str) -> None:
    print(f"\n$ {title}")
    print("-" * (len(title) + 2))


def main() -> None:
    india = next(s for s in build_paper_sites() if s.name == "india")
    stack = india.find_stack("mvapich2-1.7a2-intel")
    app = india.compile_mpi_program(
        "wavesolver", Language.FORTRAN, stack,
        glibc_ceiling=(2, 4), payload_size=250_000)
    india.machine.fs.write("/home/user/wavesolver", app.image, mode=0o755)
    toolbox = india.toolbox()
    elf = india.machine.read_elf("/home/user/wavesolver")

    banner("objdump -p wavesolver")
    print(render_objdump_private(elf, "wavesolver"))

    banner("readelf -d wavesolver")
    print(render_readelf_dynamic(elf))

    banner("readelf -V wavesolver")
    print(render_readelf_versions(elf))

    banner("readelf -p .comment wavesolver")
    print(render_readelf_comment(elf))

    banner("nm -D wavesolver")
    print(toolbox.nm_render("/home/user/wavesolver"))

    banner("ldd wavesolver            # login environment, no stack loaded")
    print(toolbox.ldd("/home/user/wavesolver").render())

    banner("module load mvapich2/1.7a2-intel; ldd wavesolver")
    env = india.env_with_stack(stack)
    print(toolbox.ldd("/home/user/wavesolver", env).render())

    banner("ldd -r wavesolver         # symbol-level check")
    result, missing = toolbox.ldd_r("/home/user/wavesolver", env)
    print(f"{len(result.entries)} libraries resolved, "
          f"{len(missing)} undefined symbols")

    banner("ldconfig -p | head")
    entries = read_cache(india.machine.fs)
    print("\n".join(render_ldconfig_p(entries).splitlines()[:10]))


if __name__ == "__main__":
    main()
