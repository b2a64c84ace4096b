"""CRC-32C (Castagnoli polynomial) in pure Python.

Reflected polynomial 0x82F63B78, init and final xor 0xFFFFFFFF.
crc32c(b"123456789") == 0xE3069283.

Two paths give the same value:

- `_crc32c_bytewise`, a slice-by-8 table loop (Kounavis & Berry, ISCC
  2005), is the reference. `crc32c` uses it for inputs below 64 lanes
  (32 KiB) and for the last partial lane of longer ones. One
  `struct.iter_unpack("<I4B")` record is one 8-byte step: the low four
  bytes come as one little-endian word, xored into the register whole,
  and the high four as the bytes that index `_T3`..`_T0`. A tail of up to
  7 bytes runs a byte at a time.
- Longer inputs take the lane path. The input is cut into 512-byte lanes,
  up to 2048 of them (1 MiB) per chunk. Every lane of a chunk runs from a
  zero register at once, one byte column (`chunk[j::512]`) at a time: the
  lanes' registers are four byte planes of one int, a table lookup is
  `bytes.translate` on four byte-plane tables of `_T0`, and the xors are
  int xors. Each lane's register is then folded into the running CRC.

The fold is exact because the CRC register update is linear over GF(2):
running data D from register r ends in Z_|D|(r) ^ R(D), where R(D) is
D's register from zero and Z_k appends k zero bytes. So with lanes
L1..Ln, the register after L1..Li is Z_512(register after L1..Li-1) ^
R(Li). Z_512 is one constant operator, four 256-entry tables built at
import: zlib's `crc32_combine` idea (M. Adler), and the folding of Gopal
et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
(Intel, 2009).
"""

import struct

_POLY = 0x82F63B78
_LANE = 512
_CHUNK_LANES = 2048
_MIN_LANES = 64


def _build_tables() -> list[list[int]]:
    tables = [[0] * 256 for _ in range(8)]
    t0 = tables[0]
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ _POLY if c & 1 else c >> 1
        t0[i] = c
    for i in range(256):
        c = t0[i]
        for k in range(1, 8):
            c = t0[c & 0xFF] ^ (c >> 8)
            tables[k][i] = c
    return tables


_T0, _T1, _T2, _T3, _T4, _T5, _T6, _T7 = _build_tables()


_STEP = struct.Struct("<I4B")


def _crc32c_bytewise(data: bytes, crc: int = 0) -> int:
    crc ^= 0xFFFFFFFF
    view = memoryview(data)
    end8 = len(view) - len(view) % 8
    for low, b4, b5, b6, b7 in _STEP.iter_unpack(view[:end8]):
        crc ^= low
        crc = (_T7[crc & 0xFF] ^ _T6[(crc >> 8) & 0xFF]
               ^ _T5[(crc >> 16) & 0xFF] ^ _T4[crc >> 24]
               ^ _T3[b4] ^ _T2[b5] ^ _T1[b6] ^ _T0[b7])
    for byte in view[end8:]:
        crc = _T0[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


# Byte k of _T0[i], for i in 0..255: the lookup of one register byte plane.
_PLANES = tuple(bytes((t >> (8 * k)) & 0xFF for t in _T0) for k in range(4))


def _build_zero_lane_tables() -> list[list[int]]:
    """Z_512 as four tables: tables[k][v] appends 512 zero bytes to v << 8k."""
    zeros = bytes(_LANE)
    basis = [_crc32c_bytewise(zeros, (1 << b) ^ 0xFFFFFFFF) ^ 0xFFFFFFFF
             for b in range(32)]
    tables = [[0] * 256 for _ in range(4)]
    for k, table in enumerate(tables):
        for v in range(1, 256):
            low = v & -v
            table[v] = table[v ^ low] ^ basis[8 * k + low.bit_length() - 1]
    return tables


_Z0, _Z1, _Z2, _Z3 = _build_zero_lane_tables()


def _fold_chunk(chunk: bytes, lanes: int, reg: int) -> int:
    """Run the raw register `reg` over `chunk`, `lanes` lanes of 512 bytes."""
    p0, p1, p2, p3 = _PLANES
    width = 8 * lanes
    mask = (1 << width) - 1
    from_bytes = int.from_bytes
    regs = 0  # plane k of every lane's register in bytes k*lanes..(k+1)*lanes
    for j in range(_LANE):
        idx = ((regs & mask) ^ from_bytes(chunk[j::_LANE], "little")).to_bytes(
            lanes, "little")
        regs = from_bytes(b"".join((idx.translate(p0), idx.translate(p1),
                                    idx.translate(p2), idx.translate(p3))),
                          "little") ^ (regs >> width)
    planes = regs.to_bytes(4 * lanes, "little")
    interleaved = bytearray(4 * lanes)
    for k in range(4):
        interleaved[k::4] = planes[k * lanes:(k + 1) * lanes]
    for lane in struct.unpack(f"<{lanes}I", interleaved):
        reg = (_Z0[reg & 0xFF] ^ _Z1[(reg >> 8) & 0xFF]
               ^ _Z2[(reg >> 16) & 0xFF] ^ _Z3[reg >> 24] ^ lane)
    return reg


def crc32c(data: bytes, crc: int = 0) -> int:
    lanes_left = len(data) // _LANE
    if lanes_left < _MIN_LANES:
        return _crc32c_bytewise(data, crc)
    view = memoryview(data)
    reg = crc ^ 0xFFFFFFFF
    pos = 0
    while lanes_left:
        lanes = min(lanes_left, _CHUNK_LANES)
        if 0 < lanes_left - lanes < _MIN_LANES:
            lanes -= _MIN_LANES  # a last chunk of fewer lanes would be slow
        end = pos + lanes * _LANE
        reg = _fold_chunk(bytes(view[pos:end]), lanes, reg)
        pos = end
        lanes_left -= lanes
    return _crc32c_bytewise(view[pos:], reg ^ 0xFFFFFFFF)
