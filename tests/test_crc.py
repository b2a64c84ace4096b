"""CRC-32C: the table loop checked against a table-free bit loop and the
RFC 3720 vectors, and the lane path cross-checked against the table loop."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from provrun.crc import _crc32c_bytewise, crc32c

KIB, MIB = 1024, 1024 * 1024
_SETTINGS = settings(max_examples=8)


def _data(n: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(n)


def _crc32c_bitwise(data: bytes, crc: int = 0) -> int:
    """One bit at a time, from the reflected polynomial alone: no tables."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


# RFC 3720 (iSCSI), appendix B.4
_RFC3720_VECTORS = [
    (bytes(32), 0x8A9136AA),
    (b"\xff" * 32, 0x62A8AB43),
    (bytes(range(32)), 0x46DD794E),
    (bytes(range(31, -1, -1)), 0x113FDB5C),
    (b"123456789", 0xE3069283),
]


@pytest.mark.parametrize("data, expected", _RFC3720_VECTORS,
                         ids=["zeros", "ones", "ascending", "descending", "check"])
def test_published_vectors(data, expected):
    assert _crc32c_bitwise(data) == expected
    assert _crc32c_bytewise(data) == expected
    assert crc32c(data) == expected


def test_table_loop_matches_the_bit_loop_at_every_short_length():
    data = _data(257, 13)
    for n in range(258):
        for crc in (0, 0xFFFFFFFF, 0x1EDC6F41):
            expected = _crc32c_bitwise(data[:n], crc)
            for form in (data[:n], bytearray(data[:n]),
                         memoryview(b"\x00\x00\x00" + data[:n])[3:]):
                assert _crc32c_bytewise(form, crc) == expected, (n, crc, type(form))
                assert crc32c(form, crc) == expected, (n, crc, type(form))


@settings(max_examples=20)
@given(data=st.binary(max_size=4 * KIB), crc=st.integers(0, 0xFFFFFFFF))
def test_table_loop_matches_the_bit_loop(data, crc):
    assert _crc32c_bytewise(data, crc) == _crc32c_bitwise(data, crc)


# Lengths: below, at and above the 64-lane threshold; up to a few MB, where
# the input spans several 1 MiB chunks of 512-byte lanes.
_lengths = st.one_of(st.integers(0, 40 * KIB), st.integers(32 * KIB, 5 * MIB // 2))
_crcs = st.integers(0, 0xFFFFFFFF)
_seeds = st.integers(0, 2**32 - 1)


@_SETTINGS
@given(n=_lengths, seed=_seeds, crc=_crcs)
@example(n=0, seed=1, crc=0)
@example(n=1, seed=2, crc=0)
@example(n=7, seed=3, crc=0xDEADBEEF)
@example(n=32 * KIB - 1, seed=4, crc=0)
@example(n=32 * KIB, seed=5, crc=0x12345678)
@example(n=32 * KIB + 1, seed=6, crc=0)
@example(n=512 * 65, seed=7, crc=0)
@example(n=MIB, seed=8, crc=0xFFFFFFFF)
@example(n=MIB + 1, seed=9, crc=0)
@example(n=2 * MIB, seed=10, crc=0)
@example(n=1_234_567, seed=11, crc=0x0BADF00D)
@example(n=2_100_003, seed=12, crc=0)  # 4101 lanes: the last chunk is shortened
def test_crc32c_matches_bytewise_reference(n, seed, crc):
    data = _data(n, seed)
    expected = _crc32c_bytewise(data, crc)
    assert crc32c(data, crc) == expected
    assert crc32c(bytearray(data), crc) == expected
    assert crc32c(memoryview(b"\x00" + data)[1:], crc) == expected


# A split at 512*k + r with 0 < r < 512 falls inside a lane of the whole input.
_splits = st.builds(lambda k, r: 512 * k + r, st.integers(0, 3000), st.integers(1, 511))


@_SETTINGS
@given(split=_splits, rest=st.integers(0, 3 * MIB // 2), seed=_seeds)
@example(split=64 * 512 + 1, rest=MIB, seed=1)
@example(split=2048 * 512 + 511, rest=64 * 512, seed=2)
def test_crc32c_chains_across_a_split_inside_a_lane(split, rest, seed):
    data = _data(split + rest, seed)
    head, tail = data[:split], data[split:]
    assert crc32c(tail, crc32c(head)) == crc32c(data)
