"""Property-based tests: writer/reader round-trip over arbitrary specs."""

import string

from hypothesis import given, settings, strategies as st

from repro.elf import (
    BinarySpec,
    ElfClass,
    ElfData,
    ElfMachine,
    ElfType,
    parse_elf,
    write_elf,
)
from repro.elf.constants import elf_hash

_name_alphabet = string.ascii_lowercase + string.digits + "_-+"


def sonames():
    return st.builds(
        lambda stem, major: f"lib{stem}.so.{major}",
        st.text(_name_alphabet, min_size=1, max_size=12),
        st.integers(min_value=0, max_value=99))


def version_names():
    return st.builds(
        lambda ns, a, b: f"{ns}_{a}.{b}",
        st.sampled_from(["GLIBC", "GCC", "GFORTRAN", "GLIBCXX", "OMPI"]),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=20))


def specs():
    return st.builds(
        BinarySpec,
        machine=st.sampled_from([ElfMachine.X86_64, ElfMachine.X86,
                                 ElfMachine.PPC64, ElfMachine.IA_64]),
        elf_class=st.sampled_from([ElfClass.ELF32, ElfClass.ELF64]),
        data=st.sampled_from([ElfData.LSB, ElfData.MSB]),
        etype=st.sampled_from([ElfType.EXEC, ElfType.DYN]),
        needed=st.lists(sonames(), max_size=8, unique=True).map(tuple),
        soname=st.one_of(st.none(), sonames()),
        rpath=st.one_of(st.none(), st.just("/opt/x/lib")),
        version_requirements=st.dictionaries(
            sonames(),
            st.lists(version_names(), min_size=1, max_size=4,
                     unique=True).map(tuple),
            max_size=4),
        version_definitions=st.lists(
            version_names(), max_size=5, unique=True).map(tuple),
        comment=st.lists(
            st.text(string.printable.strip(), min_size=1, max_size=40),
            max_size=3, unique=True).map(tuple),
        payload_size=st.integers(min_value=0, max_value=5000),
    )


_symbol_names = st.text(_name_alphabet, min_size=1, max_size=12)


@st.composite
def specs_with_symbols(draw):
    """Specs whose symbols reference only declared versions."""
    import dataclasses

    from repro.elf.structs import DynamicSymbol

    spec = draw(specs())
    available_versions = [None]
    # The first version definition is the BASE (versym index 1 = global),
    # so symbols referencing it -- by any route, including a same-named
    # verneed entry -- read back as unversioned, per real ELF semantics.
    # Only names distinct from the base are usable symbol versions.
    base = spec.version_definitions[0] if spec.version_definitions else None
    available_versions += [v for v in spec.version_definitions[1:]
                           if v != base]
    for versions in spec.version_requirements.values():
        available_versions += [v for v in versions if v != base]
    names = draw(st.lists(_symbol_names, max_size=6, unique=True))
    symbols = tuple(
        DynamicSymbol(
            name=name,
            defined=draw(st.booleans()),
            version=draw(st.sampled_from(available_versions)))
        for name in names)
    return dataclasses.replace(spec, symbols=symbols)


@settings(max_examples=80, deadline=None)
@given(specs_with_symbols())
def test_symbols_roundtrip(spec: BinarySpec):
    elf = parse_elf(write_elf(spec))
    assert elf.symbols == spec.symbols
    assert len(elf.exported_symbols) == sum(
        1 for s in spec.symbols if s.defined)


@settings(max_examples=120, deadline=None)
@given(specs())
def test_roundtrip_structure(spec: BinarySpec):
    elf = parse_elf(write_elf(spec))
    assert elf.header.machine is spec.machine
    assert elf.header.bits == spec.elf_class.bits
    assert elf.header.data is spec.data
    assert elf.header.etype is spec.etype
    assert elf.dynamic.needed == spec.needed
    assert elf.dynamic.soname == spec.soname
    assert elf.dynamic.rpath == spec.rpath
    refs = {}
    for filename, version in (
            (req.filename, v.name)
            for req in elf.version_requirements for v in req.versions):
        refs.setdefault(filename, []).append(version)
    expected = {f: list(vs) for f, vs in spec.version_requirements.items()
                if vs}
    assert refs == expected
    assert tuple(d.name.name for d in elf.version_definitions) == \
        spec.version_definitions
    # Comments are deduplicated and stripped, never invented.
    assert set(elf.comment) <= {c.strip() for c in spec.comment}


@settings(max_examples=60, deadline=None)
@given(specs())
def test_write_is_deterministic(spec: BinarySpec):
    assert write_elf(spec) == write_elf(spec)


@settings(max_examples=60, deadline=None)
@given(specs())
def test_no_parse_crash_on_any_spec(spec: BinarySpec):
    elf = parse_elf(write_elf(spec))
    assert elf.header.shnum == len(elf.sections)


@settings(max_examples=200, deadline=None)
@given(st.text(string.printable, max_size=64))
def test_elf_hash_is_32bit_and_stable(name: str):
    h = elf_hash(name)
    assert 0 <= h <= 0xFFFFFFFF
    assert h == elf_hash(name)


def test_elf_hash_known_values():
    # Known SysV hash values used by real glibc version tables.
    assert elf_hash("GLIBC_2.5") == 0x0D696915
    assert elf_hash("") == 0
