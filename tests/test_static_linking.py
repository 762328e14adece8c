"""Static-linking support (paper Section VI.C remark).

Sites usually install MPI implementations without static libraries, which
denies scientists the statically-linked-migration escape hatch; where the
archives do exist, a static binary migrates with only the ISA determinant
in play.
"""

import pytest

from repro.core import Feam
from repro.mpi.implementations import open_mpi
from repro.sites.site import StackRequest, StaticLibrariesUnavailable
from repro.toolchain.compilers import CompilerFamily, Language


@pytest.fixture
def static_site(make_site):
    return make_site(
        "staticsite",
        stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU,
                             static_libs=True),))


def test_default_sites_lack_static_libs(mini_site):
    stack = mini_site.find_stack("openmpi-1.4-gnu")
    assert not stack.has_static_libs
    with pytest.raises(StaticLibrariesUnavailable):
        mini_site.compile_mpi_program("app", Language.C, stack, static=True)


def test_paper_sites_lack_static_libs(paper_sites):
    for site in paper_sites:
        assert not any(s.has_static_libs for s in site.stacks)


def test_static_archives_installed(static_site):
    stack = static_site.find_stack("openmpi-1.4-gnu")
    assert stack.has_static_libs
    fs = static_site.machine.fs
    assert fs.is_file(stack.libdir + "/libmpi.a")
    assert fs.read(stack.libdir + "/libmpi.a").startswith(b"!<arch>\n")


def test_static_binary_has_no_dynamic_section(static_site):
    stack = static_site.find_stack("openmpi-1.4-gnu")
    linked = static_site.compile_mpi_program("sapp", Language.C, stack,
                                             static=True)
    assert linked.needed == ()
    from repro.elf import parse_elf
    assert not parse_elf(linked.image).is_dynamic


def test_static_binary_migrates_cleanly(static_site, make_site):
    """A static binary loads at any same-ISA site regardless of its
    libraries -- the escape hatch the paper says is usually unavailable."""
    stack = static_site.find_stack("openmpi-1.4-gnu")
    app = static_site.compile_mpi_program("sapp", Language.FORTRAN, stack,
                                          static=True)
    # A target with nothing installed but the base system.
    bare = make_site(
        "barestatic", vendor_compilers=(), libc_version="2.3.4",
        system_gnu_version="3.4.6",
        stacks=(StackRequest(open_mpi("1.4"), CompilerFamily.GNU),))
    failure, report = bare.machine.check_loadable(app.image)
    assert failure is None
    result = bare.run_with_retries(
        "sapp", app.image, bare.find_stack("openmpi-1.4-gnu"))
    assert result.ok


def test_feam_predicts_static_binary_ready(static_site, make_site):
    stack = static_site.find_stack("openmpi-1.4-gnu")
    app = static_site.compile_mpi_program("sapp2", Language.C, stack,
                                          static=True)
    target = make_site("statictarget")
    target.machine.fs.write("/home/user/sapp2", app.image, mode=0o755)
    report = Feam().run_target_phase(target, binary_path="/home/user/sapp2",
                                     staging_tag="static")
    assert report.ready
    # Known limitation, faithfully reproduced: with no NEEDED entries the
    # Table I identification cannot see the MPI implementation.
    assert report.prediction.selected_stack is None


def test_static_binary_fails_on_wrong_isa(static_site, make_site):
    stack = static_site.find_stack("openmpi-1.4-gnu")
    app = static_site.compile_mpi_program("sapp3", Language.C, stack,
                                          static=True)
    from repro.sysmodel.errors import FailureKind
    ppc = make_site("ppcsite", arch="ppc64")
    failure, _ = ppc.machine.check_loadable(app.image)
    assert failure is not None
    assert failure.failure.kind is FailureKind.EXEC_FORMAT
