"""CRC-32C: every path (byte-serial, parity span, fold) checked against a
table-free bit loop at its thresholds and against the RFC 3720 vectors, the
fold cross-checked against the table loop over random lengths, the fold's
table against its rule, and a check against the join of its halves."""

import random
import struct
import sys
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings, strategies as st

from provrun import ContainerReader, crc as crc_module, write_container
from provrun.crc import (
    _MIN_FOLD,
    _MIN_PARITY,
    _PIECE,
    _TAPS,
    _WIDTHS,
    _append_zeros,
    _crc32c_bytewise,
    _register,
    crc32c,
)
from provrun.errors import ChecksumMismatch

from helpers import fold_widths, forks

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


# Lengths: up to 40 KiB, across the parity and fold thresholds; up to a few
# MB, where the input spans many pieces of 64 KiB.
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
@example(n=2_100_003, seed=12, crc=0)  # 32 whole pieces and one of 2851 bytes
def test_crc32c_matches_bytewise_reference(n, seed, crc):
    data = _data(n, seed)
    expected = _crc32c_bytewise(data, crc)
    assert crc32c(data, crc) == expected
    assert crc32c(bytearray(data), crc) == expected
    assert crc32c(memoryview(b"\x00" + data)[1:], crc) == expected


# A split at _PIECE*k + r with 0 < r < _PIECE falls inside a piece of the whole input.
_splits = st.builds(lambda k, r: _PIECE * k + r, st.integers(0, 24),
                    st.integers(1, _PIECE - 1))


@_SETTINGS
@given(split=_splits, rest=st.integers(0, 3 * MIB // 2), seed=_seeds, crc=_crcs)
@example(split=64 * 512 + 1, rest=MIB, seed=1, crc=0)
@example(split=2048 * 512 + 511, rest=64 * 512, seed=2, crc=0)
@example(split=_MIN_FOLD + 1, rest=_PIECE, seed=3, crc=0xFFFFFFFF)
@example(split=2 * _PIECE - 1, rest=_MIN_FOLD, seed=4, crc=0x1EDC6F41)
def test_crc32c_chains_across_a_split_inside_a_piece(split, rest, seed, crc):
    data = _data(split + rest, seed)
    head, tail = data[:split], data[split:]
    assert crc32c(tail, crc32c(head, crc)) == crc32c(data, crc)


# Each family puts lengths at, just below and just above one path's edge.
# The rest after the last whole piece runs byte by byte when it is shorter
# than _MIN_PARITY, through one parity span when it is shorter than
# _MIN_FOLD, and is folded as a last piece otherwise.
_THRESHOLDS = {
    "byte_serial_to_parity": [0, 1, 3, 4, _MIN_PARITY - 1, _MIN_PARITY, _MIN_PARITY + 1],
    "parity_to_fold": [_MIN_FOLD + d for d in (-1, 0, 1)],
    # (m - 32) / 4 bytes fill width m exactly (2m = N + 32); one more byte
    # takes the next width
    "fold_widths": [(m - 32) // 4 + d for m in _WIDTHS for d in (0, 1)
                    if _MIN_FOLD <= (m - 32) // 4 < _PIECE],
    "piece": [_PIECE + d for d in (-1, 0, 1)] + [2 * _PIECE],
    "piece_remainder": [_PIECE + r for r in (3, 4, _MIN_PARITY - 1, _MIN_PARITY,
                                             _MIN_FOLD - 1)],
    # a rest of _MIN_FOLD or more after whole pieces is folded as one more piece
    "short_last_piece": [2 * _PIECE + r for r in (_MIN_FOLD, _MIN_FOLD + 1, _PIECE - 1)],
}
_INITIAL_CRC = 0x1EDC6F41


@pytest.fixture(scope="module")
def bit_loop_prefixes():
    """A random buffer and the bit loop's CRC of each threshold-length prefix,
    from _INITIAL_CRC, computed in one pass by chaining prefix to prefix."""
    lengths = sorted({n for family in _THRESHOLDS.values() for n in family})
    data = _data(lengths[-1], 21)
    expected, crc, done = {}, _INITIAL_CRC, 0
    for n in lengths:
        crc = _crc32c_bitwise(data[done:n], crc)
        expected[n], done = crc, n
    return data, expected


@pytest.mark.parametrize("family", sorted(_THRESHOLDS))
def test_every_path_matches_the_bit_loop_at_its_thresholds(bit_loop_prefixes, family):
    data, expected = bit_loop_prefixes
    padded = b"\x00" + data
    for n in _THRESHOLDS[family]:
        for form in (data[:n], bytearray(data[:n]), memoryview(padded)[1:n + 1]):
            assert crc32c(form, _INITIAL_CRC) == expected[n], (family, n, type(form))


# Heads and tails that each take the byte loop, a parity span or the fold.
_short = st.integers(0, 2 * _MIN_FOLD)


@_SETTINGS
@given(split=_short, rest=_short, seed=_seeds)
@example(split=_MIN_PARITY + 1, rest=_MIN_FOLD, seed=1)
@example(split=_MIN_FOLD - 1, rest=_MIN_PARITY - 1, seed=2)
def test_crc32c_chains_across_a_split_inside_a_parity_span(split, rest, seed):
    data = _data(split + rest, seed)
    head, tail = data[:split], data[split:]
    expected = _crc32c_bitwise(data)
    assert crc32c(tail, crc32c(head)) == expected
    assert crc32c(data) == expected


# one length on each path: the byte loop, the parity span, the fold
@pytest.mark.parametrize("n", [3, 72, 6144])
@pytest.mark.parametrize("crc", [-1, -0xFFFFFFFF, 1 << 32, 1 << 64])
def test_a_crc_outside_32_bits_is_refused_on_every_path(n, crc):
    with pytest.raises(ValueError, match="outside 0..0xFFFFFFFF"):
        crc32c(bytes(n), crc)


_VIEW_LENGTHS = pytest.mark.parametrize(
    "n", [_MIN_PARITY - 8, 8 * (_MIN_FOLD // 8 - 1), _PIECE + _MIN_FOLD + 8],
    ids=["byte_loop", "parity", "fold"])


@_VIEW_LENGTHS
@pytest.mark.parametrize("fmt", ["I", "d"])
def test_a_memoryview_is_checksummed_by_its_bytes_whatever_its_format(fmt, n):
    data = _data(n, 31)
    view = memoryview(data).cast(fmt)
    assert crc32c(view, _INITIAL_CRC) == _crc32c_bitwise(data, _INITIAL_CRC)


@_VIEW_LENGTHS
def test_a_strided_memoryview_is_refused_on_every_path(n):
    with pytest.raises(TypeError, match="C-contiguous"):
        crc32c(memoryview(bytes(2 * n))[::2])


def test_the_kernel_tables_stay_small():
    """The one-table loop's table, the parity masks and the fold table, as
    Python objects, are resident for the life of the process."""
    size = sys.getsizeof

    def deep(table):
        return size(table) + sum(deep(item) if isinstance(item, tuple) else size(item)
                                 for item in table)

    total = sum(map(deep, (tuple(crc_module._T0), crc_module._MASKS, crc_module._WIDTHS,
                           crc_module._TAPS, crc_module._FOLDS)))
    assert total <= 96 * KIB, f"{total} bytes"


# --- the fold's table --------------------------------------------------------------

def _residue_by_bits(m: int) -> int:
    """x^m mod P, one bit at a time, x^0 at bit 31."""
    residue = 1 << 31
    for _ in range(m):
        residue = (residue >> 1) ^ (0x82F63B78 if residue & 1 else 0)
    return residue


def test_the_fold_table_keeps_its_laws():
    assert _WIDTHS[0] == 64
    for m, taps in zip(_WIDTHS, _TAPS):
        assert m % 8 == 0, m
        residue = _residue_by_bits(m)
        assert taps == tuple(31 - j for j in range(32) if residue >> j & 1), m
    for m, n in zip(_WIDTHS, _WIDTHS[1:]):
        assert 3 * m // 2 <= n <= 2 * m - 32, (m, n)  # every fold's result fits the next
    assert 2 * _WIDTHS[-1] - 32 >= 8 * _PIECE + 32  # a whole piece and its register fit


def test_the_first_fold_holds_the_register_at_every_piece_length():
    # the register is xored into H, the piece's first h bytes, so h >= 4
    for size in range(_MIN_FOLD, _PIECE + 1):
        m = _WIDTHS[bisect_left(_WIDTHS, 4 * size + 32)]
        assert size + 4 - m // 8 >= 4, size


def test_the_fold_table_is_what_its_rule_gives():
    assert tuple(fold_widths(_PIECE)) == _WIDTHS


# Lengths at and next to the crossovers and the first pieces' edges.
_edges = st.builds(lambda edge, d: max(0, edge + d),
                   st.sampled_from([_MIN_PARITY, _MIN_FOLD, _PIECE, 2 * _PIECE, 3 * _PIECE]),
                   st.integers(-3, 3))


@settings(max_examples=40)
@given(n=_edges, seed=_seeds, crc=_crcs)
def test_crc32c_matches_the_table_loop_at_every_edge(n, seed, crc):
    data = _data(n, seed)
    expected = _crc32c_bytewise(data, crc)
    assert crc32c(data, crc) == expected
    assert crc32c(memoryview(b"\x00" + data)[1:], crc) == expected
    whole = n - n % 8
    assert crc32c(memoryview(data[:whole]).cast("d"), crc) == _crc32c_bytewise(data[:whole], crc)


# --- a check as the join of its halves by Z_n --------------------------------------

def _join(crc: int, second: int, n: int) -> int:
    """The CRC-32C of a + b, from crc = crc32c(a, c) and b's raw register,
    R(b) from a zero register, n = len(b)."""
    return _append_zeros(crc ^ 0xFFFFFFFF, n) ^ second ^ 0xFFFFFFFF


@settings(max_examples=30)
@given(a=st.binary(max_size=8 * KIB), b=st.binary(max_size=8 * KIB), c=_crcs)
@example(a=b"", b=b"", c=0)
@example(a=b"123", b=b"456789", c=0)
@example(a=_data(_MIN_FOLD + 5, 1), b=_data(_PIECE + 7, 2), c=0xFFFFFFFF)
def test_a_check_is_the_join_of_its_halves(a, b, c):
    assert crc32c(a + b, c) == _join(crc32c(a, c), _register(b, 0), len(b))


def _zero_byte(reg: int) -> int:
    """The raw register after one zero byte, through the table loop."""
    return _crc32c_bytewise(b"\x00", reg ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


def test_appending_zeros_matches_the_table_loop_up_to_2048_bytes():
    for start in (0x1EDC6F41, 0xFFFFFFFF, 1):
        reg = start
        for n in range(2049):
            assert _append_zeros(start, n) == reg, (start, n)
            reg = _zero_byte(reg)


@pytest.mark.parametrize("n", [65_537, MIB, 3_000_001])
def test_appending_many_zeros_matches_the_table_loop(n):
    reg = 0x0BADF00D
    assert _append_zeros(reg, n) == _crc32c_bytewise(bytes(n), reg ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


def test_a_refused_check_forks_no_worker(monkeypatch):
    pids = forks(monkeypatch)
    with pytest.raises(ValueError, match="outside 0..0xFFFFFFFF"):
        crc32c(bytes(4 * MIB), 1 << 32)
    with pytest.raises(TypeError, match="C-contiguous"):
        crc32c(memoryview(bytes(8 * MIB))[::2])
    assert pids == []


def test_a_forged_toc_offset_fails_its_check_and_forks_nothing(tmp_path, monkeypatch):
    # the TOC "found" at the end of the header runs over the whole payload
    path = tmp_path / "forged.pdc"
    write_container(path, [("events", _data(4 * MIB, 43))])
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, 12, 20)
    path.write_bytes(data)
    pids = forks(monkeypatch)
    with pytest.raises(ChecksumMismatch, match="table of contents"):
        ContainerReader(path)
    assert pids == []
