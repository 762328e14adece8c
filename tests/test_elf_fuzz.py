"""Robustness fuzzing: corrupted images never crash the parser.

The parser's contract is: valid ELF parses; anything else raises
:class:`ElfError` (or parses as best it can) -- never an uncontrolled
IndexError/struct.error/UnicodeDecodeError.  FEAM runs on untrusted
binaries, so this matters.
"""

from hypothesis import example, given, settings, strategies as st

from repro.elf import BinarySpec, ElfError, parse_elf, write_elf
from repro.elf.structs import DynamicSymbol

_BASE_IMAGE = write_elf(BinarySpec(
    needed=("libmpi.so.0", "libm.so.6", "libc.so.6"),
    version_requirements={"libc.so.6": ("GLIBC_2.2.5", "GLIBC_2.3.4")},
    version_definitions=(),
    comment=("GCC: (GNU) 4.1.2",),
    symbols=(DynamicSymbol("main", True),
             DynamicSymbol("printf", False, "GLIBC_2.2.5")),
    payload_size=256))


def _try_parse(data: bytes) -> None:
    try:
        elf = parse_elf(data)
        # If it parsed, the parsed structures must be traversable.
        _ = elf.dynamic.needed
        _ = elf.version_requirements
        _ = elf.version_definitions
        _ = elf.symbols
        _ = elf.comment
    except ElfError:
        pass  # the sanctioned failure mode


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_BASE_IMAGE) - 1), st.integers(0, 255))
@example(offset=1152, value=6)  # .dynsym sh_entsize 24 -> 6
def test_single_byte_corruption(offset, value):
    mutated = bytearray(_BASE_IMAGE)
    mutated[offset] = value
    _try_parse(bytes(mutated))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_BASE_IMAGE) - 1),
                          st.integers(0, 255)),
                min_size=2, max_size=16))
def test_multi_byte_corruption(mutations):
    mutated = bytearray(_BASE_IMAGE)
    for offset, value in mutations:
        mutated[offset] = value
    _try_parse(bytes(mutated))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(_BASE_IMAGE)))
def test_truncation(length):
    _try_parse(_BASE_IMAGE[:length])


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=512))
def test_random_bytes(data):
    _try_parse(data)


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_valid_magic_random_tail(tail):
    _try_parse(b"\x7fELF" + tail)
