"""Round-trip tests: images from the writer parse back identically."""

import pytest

from repro.elf import (
    BinarySpec,
    ElfClass,
    ElfData,
    ElfError,
    ElfMachine,
    ElfType,
    parse_elf,
    write_elf,
)
from repro.elf.constants import DynamicTag, SectionType
from tests.conftest import required_glibc


def test_minimal_executable_roundtrip():
    spec = BinarySpec(needed=("libc.so.6",))
    elf = parse_elf(write_elf(spec))
    assert elf.dynamic.needed == ("libc.so.6",)
    assert elf.header.etype is ElfType.EXEC
    assert elf.header.bits == 64
    assert elf.header.machine is ElfMachine.X86_64
    assert elf.is_dynamic


def test_needed_order_preserved():
    needed = ("libmpi.so.0", "libz.so.1", "libm.so.6", "libc.so.6")
    elf = parse_elf(write_elf(BinarySpec(needed=needed)))
    assert elf.dynamic.needed == needed


def test_soname_and_type_for_shared_library():
    spec = BinarySpec(etype=ElfType.DYN, soname="libfoo.so.3",
                      needed=("libc.so.6",))
    elf = parse_elf(write_elf(spec))
    assert elf.dynamic.soname == "libfoo.so.3"
    assert elf.is_shared_library


def test_pie_executable_is_not_shared_library():
    # ET_DYN without a soname = position-independent executable.
    spec = BinarySpec(etype=ElfType.DYN, needed=("libc.so.6",))
    assert not parse_elf(write_elf(spec)).is_shared_library


def test_version_requirements_roundtrip():
    spec = BinarySpec(
        needed=("libc.so.6", "libgfortran.so.1"),
        version_requirements={
            "libc.so.6": ("GLIBC_2.2.5", "GLIBC_2.3.4"),
            "libgfortran.so.1": ("GFORTRAN_1.0",),
        })
    elf = parse_elf(write_elf(spec))
    by_file = {req.filename: [v.name for v in req.versions]
               for req in elf.version_requirements}
    assert by_file == {
        "libc.so.6": ["GLIBC_2.2.5", "GLIBC_2.3.4"],
        "libgfortran.so.1": ["GFORTRAN_1.0"],
    }


def test_version_definitions_roundtrip():
    spec = BinarySpec(
        etype=ElfType.DYN, soname="libbar.so.2",
        version_definitions=("libbar.so.2", "BAR_2.0", "BAR_2.1"))
    elf = parse_elf(write_elf(spec))
    names = [d.name.name for d in elf.version_definitions]
    assert names == ["libbar.so.2", "BAR_2.0", "BAR_2.1"]
    assert elf.version_definitions[0].is_base
    assert not elf.version_definitions[1].is_base


def test_comment_roundtrip_deduplicates():
    spec = BinarySpec(comment=("GCC: (GNU) 4.1.2", "GCC: (GNU) 4.1.2",
                               "Intel(R) Compiler Version 11.1"))
    elf = parse_elf(write_elf(spec))
    assert elf.comment == ("GCC: (GNU) 4.1.2",
                            "Intel(R) Compiler Version 11.1")


def test_rpath_and_runpath():
    spec = BinarySpec(needed=("libc.so.6",), rpath="/opt/app/lib",
                      runpath="/usr/local/app/lib")
    elf = parse_elf(write_elf(spec))
    assert elf.dynamic.rpath == "/opt/app/lib"
    assert elf.dynamic.runpath == "/usr/local/app/lib"


@pytest.mark.parametrize("elf_class,data,machine,bits", [
    (ElfClass.ELF64, ElfData.LSB, ElfMachine.X86_64, 64),
    (ElfClass.ELF32, ElfData.LSB, ElfMachine.X86, 32),
    (ElfClass.ELF32, ElfData.MSB, ElfMachine.PPC, 32),
    (ElfClass.ELF64, ElfData.MSB, ElfMachine.PPC64, 64),
    (ElfClass.ELF64, ElfData.LSB, ElfMachine.IA_64, 64),
    (ElfClass.ELF64, ElfData.MSB, ElfMachine.SPARCV9, 64),
])
def test_class_data_machine_combinations(elf_class, data, machine, bits):
    spec = BinarySpec(machine=machine, elf_class=elf_class, data=data,
                      needed=("libc.so.6",),
                      version_requirements={"libc.so.6": ("GLIBC_2.3",)})
    elf = parse_elf(write_elf(spec))
    assert elf.header.machine is machine
    assert elf.header.bits == bits
    assert elf.header.data is data
    assert elf.dynamic.needed == ("libc.so.6",)
    assert required_glibc(elf) == "2.3"


def test_static_binary_has_no_dynamic_section():
    elf = parse_elf(write_elf(BinarySpec(statically_linked=True)))
    assert not elf.is_dynamic
    assert elf.dynamic.needed == ()


def test_static_with_needed_rejected():
    with pytest.raises(ValueError):
        BinarySpec(statically_linked=True, needed=("libc.so.6",))


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        BinarySpec(payload_size=-1)


def test_payload_size_grows_image():
    small = write_elf(BinarySpec(payload_size=100))
    large = write_elf(BinarySpec(payload_size=100_000))
    assert len(large) - len(small) >= 99_000


def test_payload_is_deterministic():
    spec = BinarySpec(needed=("libc.so.6",), payload_size=5000)
    assert write_elf(spec) == write_elf(spec)


def test_payload_seed_changes_bytes_only():
    a = parse_elf(write_elf(BinarySpec(needed=("libc.so.6",),
                                       payload_seed="siteA")))
    b_img = write_elf(BinarySpec(needed=("libc.so.6",), payload_seed="siteB"))
    b = parse_elf(b_img)
    assert a.dynamic.needed == b.dynamic.needed
    assert write_elf(BinarySpec(needed=("libc.so.6",),
                                payload_seed="siteA")) != b_img


def test_dynamic_section_terminated_with_null():
    elf = parse_elf(write_elf(BinarySpec(needed=("libc.so.6",))))
    tags = [e.tag for e in elf.dynamic.entries]
    assert DynamicTag.NULL not in tags  # NULL terminates, isn't included
    assert DynamicTag.NEEDED in tags
    assert DynamicTag.STRTAB in tags


def test_sections_have_expected_names():
    elf = parse_elf(write_elf(BinarySpec(
        needed=("libc.so.6",),
        version_requirements={"libc.so.6": ("GLIBC_2.0",)},
        comment=("test",))))
    names = {s.name for s in elf.sections}
    assert {".text", ".dynstr", ".dynamic", ".gnu.version_r",
            ".comment", ".shstrtab"} <= names


def test_shstrtab_is_strtab_type():
    elf = parse_elf(write_elf(BinarySpec()))
    shstrtab = elf.section(".shstrtab")
    assert shstrtab is not None
    assert shstrtab.sh_type == SectionType.STRTAB


def test_truncated_image_raises():
    image = write_elf(BinarySpec(needed=("libc.so.6",)))
    with pytest.raises(ElfError):
        parse_elf(image[:30])


def test_garbage_rejected():
    with pytest.raises(ElfError):
        parse_elf(b"\x00" * 200)
    with pytest.raises(ElfError):
        parse_elf(b"not an elf at all")


def test_detach_preserves_parsed_fields():
    elf = parse_elf(write_elf(BinarySpec(
        needed=("libm.so.6", "libc.so.6"), comment=("banner",))))
    size = elf.size
    elf.detach()
    assert elf.data == b""
    assert elf.size == size
    assert elf.dynamic.needed == ("libm.so.6", "libc.so.6")
    assert elf.comment == ("banner",)
