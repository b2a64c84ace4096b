"""CRC-32C: every path (byte-serial, parity spans, lanes) checked against a
table-free bit loop at its thresholds and against the RFC 3720 vectors, the
lane path cross-checked against the table loop over random lengths, and the
split check's halves and join against the unsplit check."""

import os
import random
import struct
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from provrun import ContainerReader, crc as crc_module, write_container
from provrun.crc import (
    SPLIT_BYTES,
    _CHUNK_LANES,
    _LANE,
    _MIN_LANES,
    _MIN_PARITY,
    _SPAN,
    _append_zeros,
    _crc32c_bytewise,
    _register,
    crc32c,
)
from provrun.errors import AlgorithmFailure, ChecksumMismatch

from helpers import forks
from test_rng import _no_child

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


# Lengths: up to 40 KiB, across the parity and lane thresholds; up to a few
# MB, where the input spans several chunks of 4096 lanes (768 KiB each).
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
@example(n=2_100_003, seed=12, crc=0)  # 10,937 lanes: two whole chunks and one of 2745
def test_crc32c_matches_bytewise_reference(n, seed, crc):
    data = _data(n, seed)
    expected = _crc32c_bytewise(data, crc)
    assert crc32c(data, crc) == expected
    assert crc32c(bytearray(data), crc) == expected
    assert crc32c(memoryview(b"\x00" + data)[1:], crc) == expected


# A split at _LANE*k + r with 0 < r < _LANE falls inside a lane of the whole input.
_splits = st.builds(lambda k, r: _LANE * k + r, st.integers(0, 8000),
                    st.integers(1, _LANE - 1))


@_SETTINGS
@given(split=_splits, rest=st.integers(0, 3 * MIB // 2), seed=_seeds)
@example(split=64 * 512 + 1, rest=MIB, seed=1)
@example(split=2048 * 512 + 511, rest=64 * 512, seed=2)
@example(split=_MIN_LANES * _LANE + 1, rest=_MIN_LANES * _LANE, seed=3)
@example(split=_CHUNK_LANES * _LANE + _LANE - 1, rest=_MIN_LANES * _LANE, seed=4)
def test_crc32c_chains_across_a_split_inside_a_lane(split, rest, seed):
    data = _data(split + rest, seed)
    head, tail = data[:split], data[split:]
    assert crc32c(tail, crc32c(head)) == crc32c(data)


# Each family puts lengths at, just below and just above one path's edge.
# The remainder after the lanes or the last whole span runs byte by byte
# when it is shorter than _MIN_PARITY, and through one parity span otherwise.
_THRESHOLDS = {
    "byte_serial_to_parity": [0, 1, 3, 4, _MIN_PARITY - 1, _MIN_PARITY, _MIN_PARITY + 1],
    "span_multiples": [k * _SPAN + tail for k in (1, 2, 3) for tail in range(4)]
    + [_SPAN - 1, 2 * _SPAN + _MIN_PARITY - 1, 2 * _SPAN + _MIN_PARITY],
    "parity_to_lanes": [_MIN_LANES * _LANE + d for d in (-1, 0, 1)],
    "lane_remainder": [_MIN_LANES * _LANE + r
                       for r in (_MIN_PARITY - 1, _MIN_PARITY, _LANE - 1)],
    "chunk": [_CHUNK_LANES * _LANE + d for d in (-1, 0, 1)]
    + [(_CHUNK_LANES + 1) * _LANE],
    # fewer than _MIN_LANES lanes left after whole chunks go to the parity
    # spans; _MIN_LANES or more make one more chunk
    "short_last_chunk": [(_CHUNK_LANES + _MIN_LANES - 1) * _LANE + 5,
                         (_CHUNK_LANES + _MIN_LANES) * _LANE]
    + [(_CHUNK_LANES + _MIN_LANES - 1) * _LANE + r for r in (0, _MIN_PARITY - 1, _LANE - 1)],
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


# A split at _SPAN*k + r with 0 < r < _SPAN falls inside a parity span.
_span_splits = st.builds(lambda k, r: _SPAN * k + r, st.integers(0, 6),
                         st.integers(1, _SPAN - 1))


@_SETTINGS
@given(split=_span_splits, rest=st.integers(0, _MIN_LANES * _LANE), seed=_seeds)
@example(split=_MIN_PARITY + 1, rest=_SPAN, seed=1)
@example(split=_SPAN + 3, rest=_MIN_PARITY - 1, seed=2)
def test_crc32c_chains_across_a_split_inside_a_parity_span(split, rest, seed):
    data = _data(split + rest, seed)
    head, tail = data[:split], data[split:]
    expected = _crc32c_bitwise(data)
    assert crc32c(tail, crc32c(head)) == expected
    assert crc32c(data) == expected


# one length on each path: the byte loop, the parity spans, the lanes
@pytest.mark.parametrize("n", [3, 72, _MIN_LANES * _LANE])
@pytest.mark.parametrize("crc", [-1, -0xFFFFFFFF, 1 << 32, 1 << 64])
def test_a_crc_outside_32_bits_is_refused_on_every_path(n, crc):
    with pytest.raises(ValueError, match="outside 0..0xFFFFFFFF"):
        crc32c(bytes(n), crc)


_VIEW_LENGTHS = pytest.mark.parametrize(
    "n", [_MIN_PARITY - 8, 8 * _MIN_PARITY, (_MIN_LANES + 1) * _LANE + 8],
    ids=["byte_loop", "parity", "lanes"])


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
    """The lane path's per-column tables and fold tables and the parity
    masks, as Python objects, are resident for the life of the process."""
    size = sys.getsizeof
    columns = crc_module._COLUMNS
    folds = (crc_module._Z0, crc_module._Z1, crc_module._Z2, crc_module._Z3)
    total = (size(columns) + sum(size(column) + sum(map(size, column))
                                 for column in columns)
             + size(crc_module._MASKS) + sum(map(size, crc_module._MASKS))
             + sum(size(fold) + sum(map(size, fold)) for fold in folds))
    assert total <= 320 * KIB, f"{total} bytes"


# --- the split check: the halves joined by Z_n ------------------------------------

def _join(crc: int, second: int, n: int) -> int:
    """The CRC-32C of a + b, from crc = crc32c(a, c) and b's raw register,
    R(b) from a zero register, n = len(b)."""
    return _append_zeros(crc ^ 0xFFFFFFFF, n) ^ second ^ 0xFFFFFFFF


@settings(max_examples=30)
@given(a=st.binary(max_size=8 * KIB), b=st.binary(max_size=8 * KIB), c=_crcs)
@example(a=b"", b=b"", c=0)
@example(a=b"123", b=b"456789", c=0)
@example(a=_data(_SPAN + 5, 1), b=_data(_MIN_LANES * _LANE + 7, 2), c=0xFFFFFFFF)
def test_a_check_is_the_join_of_its_halves(a, b, c):
    assert crc32c(a + b, c) == _join(crc32c(a, c), _register(b, 0, len(b), 0), len(b))


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


_SPLIT_LENGTHS = [SPLIT_BYTES - 1, SPLIT_BYTES, SPLIT_BYTES + 1, SPLIT_BYTES + 191,
                  3 * MIB // 2 + 77]


@pytest.fixture(scope="module")
def split_input():
    return _data(_SPLIT_LENGTHS[-1], 41)


@pytest.mark.parametrize("n", _SPLIT_LENGTHS)
@pytest.mark.parametrize("form", ["bytes", "bytearray", "doubles"])
def test_a_split_check_equals_the_unsplit_one(monkeypatch, split_input, form, n):
    if form == "doubles":
        n -= n % 8
    data = split_input[:n]
    if form == "bytearray":
        data = bytearray(data)
    elif form == "doubles":
        data = memoryview(data).cast("d")
    pids = forks(monkeypatch)
    split = crc32c(data, _INITIAL_CRC)
    assert len(pids) == (n >= SPLIT_BYTES)
    monkeypatch.delattr(os, "fork")
    assert split == crc32c(data, _INITIAL_CRC)


def test_a_refused_check_forks_no_worker(monkeypatch):
    pids = forks(monkeypatch)
    with pytest.raises(ValueError, match="outside 0..0xFFFFFFFF"):
        crc32c(bytes(SPLIT_BYTES), 1 << 32)
    with pytest.raises(TypeError, match="C-contiguous"):
        crc32c(memoryview(bytes(2 * SPLIT_BYTES))[::2])
    assert pids == []


def test_a_forged_toc_offset_fails_its_split_check_and_leaves_no_child(tmp_path, monkeypatch):
    # the TOC "found" at the end of the header runs over the whole payload
    path = tmp_path / "forged.pdc"
    write_container(path, [("events", _data(2 * MIB, 43))])
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, 12, 20)
    path.write_bytes(data)
    pids = forks(monkeypatch)
    with pytest.raises(ChecksumMismatch, match="table of contents"):
        ContainerReader(path)
    assert len(pids) == 1
    _no_child()


def test_a_split_check_whose_worker_fails_raises(monkeypatch):
    def broken(data, pos, end, feed, results):
        raise RuntimeError("the worker broke")

    monkeypatch.setattr(crc_module, "_write_register", broken)
    pids = forks(monkeypatch)
    with pytest.raises(AlgorithmFailure, match="the checksum worker stopped early"):
        crc32c(bytes(SPLIT_BYTES))
    assert len(pids) == 1
    _no_child()
