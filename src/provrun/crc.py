"""CRC-32C (Castagnoli polynomial) in pure Python.

Reflected polynomial 0x82F63B78, init and final xor 0xFFFFFFFF.
crc32c(b"123456789") == 0xE3069283.

Three paths give the same value. `crc32c` sends every input, and each half
of a split check in place, through one dispatch, `_register`: lanes while
32 or more remain, then parity spans while 48 bytes or more remain, then
the byte loop over the rest, so an input under 48 bytes takes the byte
loop alone. All three rest on one fact: the register update is linear
over GF(2). Write T_d[v] for the register that byte v followed by d zero
bytes leaves behind, starting from a zero register, and Z_d for the map
that appends d zero bytes to a register. Running data D from register r
then ends in

    Z_|D|(r) ^ R(D),  R(D) = XOR over positions i of T_{|D|-1-i}[D[i]],

so a byte's share of the result depends only on its value and its
distance to the end of the run, never on the bytes before it.

- `_crc32c_bytewise`, the one-table loop (Sarwate, CACM 1988), is the
  reference, and takes the last remainder under 48 bytes.
- The parity path takes inputs from 48 bytes up to the lane threshold,
  and the remainder after the lanes, a span of up to 768 bytes at a
  time. Xoring a register r into the first four bytes of a span (r's
  little-endian bytes) is the same as starting the span from r, so the
  span's result is R of the altered span alone: a linear map of its
  bits. Read the span as one big-endian int x; the bit for byte
  distance d and bit b sits at 8d + b. Result bit j is then the parity
  of x & M_j, where M_j holds bit j of T_d[1 << b] at 8d + b. The masks
  are laid out from the end of the span, so one set serves every span
  length, and longer inputs chain span by span.
- Inputs of 32 lanes (6 KiB) or more take the lane path. Whole chunks
  of up to 4096 lanes of 192 bytes are walked while at least 32 lanes
  remain; fewer leftover lanes go to the parity spans. Lane column j of
  the chunk from `pos` to `end` (`data[pos + j:end:192]`, sliced from the
  input itself), the byte at distance 191 - j from each lane's end,
  is translated through the four byte planes of T_{191-j} with
  `bytes.translate`, and the planes of all lanes are xored into one int:
  that gives every lane's R from a zero register at once, with no
  register carried from column to column. Each lane's R is then folded
  into the running register: after lanes L1..Li it is Z_192(register
  after L1..Li-1) ^ R(Li). Z_192 is four 256-entry tables, zlib's
  `crc32_combine` idea (M. Adler) and the folding of Gopal et al., "Fast
  CRC Computation for Generic Polynomials Using PCLMULQDQ" (Intel, 2009).

Because of the same fact, a run splits: D = A + B ends in
Z_|B|(register after A) ^ R(B). `crc32c` checks an input of `SPLIT_BYTES`
or more in two halves when the fork rule of `workers` allows a worker: it
cuts the input at a lane boundary near the middle, a worker computes R of
the second half from the bytes it shares copy-on-write and writes back its
4 bytes, the caller runs the first half meanwhile, and the two are joined
with Z_n. Z_n is multiplication by x^(8n) mod P: square-and-multiply over
the bits of n, with the powers x^(8·2^k) mod P precomputed (zlib's
`crc32_combine`). Both halves are walked by offset, so neither is copied.
`SPLIT_BYTES` comes from the break-even measured in CHANGES.md: below
about 800 KB the fork costs more than the half it saves, and from 1 MiB
the split wins clearly.

Every table is built at import from `_T0`, one zero byte at a time
(T_{d+1}[v] = Z_1(T_d[v]) = _T0[T_d[v] & 0xFF] ^ (T_d[v] >> 8)): the
per-column tables for all 256 byte values at once, Z_192 from the first
four of them (Z_192(v << 8k) = T_{191-k}[v]), and the masks from the
single-bit bytes 1 << b stepped through 767 zero bytes.
"""

import struct
from functools import partial
from itertools import repeat
from operator import and_

from . import workers
from .errors import AlgorithmFailure

_POLY = 0x82F63B78
_LANE = 192  # keeps the column tables, fold tables and masks under 320 KiB
_CHUNK_LANES = 4096
_MIN_LANES = 32  # below this the parity path is the faster one
_SPAN = 4 * _LANE
_MIN_PARITY = 48  # below this the byte loop is the faster one
SPLIT_BYTES = 1 << 20  # the size from which a split check wins clearly


def _build_table() -> list[int]:
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ _POLY if c & 1 else c >> 1
        table.append(c)
    return table


_T0 = _build_table()


def _crc32c_bytewise(data: bytes, crc: int = 0) -> int:
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = _T0[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def _registers(planes: bytes, n: int) -> tuple[int, ...]:
    """The n registers whose byte k is planes[k*n:(k+1)*n]."""
    interleaved = bytearray(4 * n)
    for k in range(4):
        interleaved[k::4] = planes[k * n:(k + 1) * n]
    return struct.unpack(f"<{n}I", interleaved)


def _build_columns() -> tuple[tuple[bytes, bytes, bytes, bytes], ...]:
    """Per lane column j, the four byte planes of T_{_LANE-1-j}."""
    t0_planes = [bytes((t >> (8 * k)) & 0xFF for t in _T0) for k in range(4)]
    table = b"".join(t0_planes)  # the planes of T_d, 256 bytes each
    columns = []
    for _ in range(_LANE):
        planes = (table[:256], table[256:512], table[512:768], table[768:])
        columns.append(planes)
        low = planes[0]
        table = (int.from_bytes(b"".join([low.translate(p) for p in t0_planes]), "little")
                 ^ (int.from_bytes(table, "little") >> 2048)).to_bytes(1024, "little")
    return tuple(reversed(columns))


_COLUMNS = _build_columns()
# Z_LANE: appending a lane of zeros to v << 8k gives T_{_LANE-1-k}[v]
_Z0, _Z1, _Z2, _Z3 = (list(_registers(b"".join(_COLUMNS[k]), 256)) for k in range(4))


def _build_masks() -> tuple[int, ...]:
    """M_31 .. M_0 over a span of _SPAN bytes."""
    ones = int.from_bytes(b"\x01" * _SPAN, "big")
    masks = [0] * 32
    for b in range(8):
        regs = [_T0[1 << b]]  # T_d[1 << b] for d = 0 .. _SPAN-1
        for _ in range(_SPAN - 1):
            c = regs[-1]
            regs.append(_T0[c & 0xFF] ^ (c >> 8))
        packed = struct.pack(f"<{_SPAN}I", *regs)
        for k in range(4):
            plane = int.from_bytes(packed[k::4], "little")  # byte d at bit 8d
            for t in range(8):
                masks[8 * k + t] |= ((plane >> t) & ones) << b
    return tuple(reversed(masks))


_MASKS = _build_masks()
_COUNTS = struct.Struct("<32I")
_LOW_BIT = bytes(b"01"[v & 1] for v in range(256))


def _parity_span(span, reg: int) -> int:
    """Run the raw register `reg` over `span`, 4 to _SPAN bytes."""
    x = int.from_bytes(span, "big") ^ (
        int.from_bytes(reg.to_bytes(4, "little"), "big") << (8 * len(span) - 32))
    counts = _COUNTS.pack(*map(int.bit_count, map(and_, repeat(x), _MASKS)))
    return int(counts[::4].translate(_LOW_BIT), 2)


def _fold_chunk(data, pos: int, lanes: int, reg: int) -> int:
    """Run the raw register `reg` over the `lanes` lanes of _LANE bytes of
    `data`, a bytes or bytearray, from `pos`; each column is sliced from
    `data` itself, so the chunk is never copied whole."""
    end = pos + lanes * _LANE
    regs = 0  # plane k of every lane's R in bytes k*lanes..(k+1)*lanes
    for j, (p0, p1, p2, p3) in enumerate(_COLUMNS):
        column = data[pos + j:end:_LANE]
        regs ^= int.from_bytes(b"".join((column.translate(p0), column.translate(p1),
                                         column.translate(p2), column.translate(p3))),
                               "little")
    for lane in _registers(regs.to_bytes(4 * lanes, "little"), lanes):
        reg = (_Z0[reg & 0xFF] ^ _Z1[(reg >> 8) & 0xFF]
               ^ _Z2[(reg >> 16) & 0xFF] ^ _Z3[reg >> 24] ^ lane)
    return reg


def _multiply(a: int, b: int) -> int:
    """a·b mod P, for registers read as polynomials, x^0 at bit 31 (zlib's
    `multmodp`)."""
    product = 0
    while a:
        if a & 0x80000000:
            product ^= b
        a = (a << 1) & 0xFFFFFFFF
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1
    return product


def _build_powers() -> tuple[int, ...]:
    """x^(8·2^k) mod P for k = 0 .. 63: Z_(2^k) as a factor."""
    powers = [1 << 23]  # x^8
    for _ in range(63):
        powers.append(_multiply(powers[-1], powers[-1]))
    return tuple(powers)


_POWERS = _build_powers()


def _append_zeros(reg: int, n: int) -> int:
    """Z_n(reg), the raw register `reg` run over n zero bytes: reg·x^(8n)
    mod P, by square-and-multiply over the bits of n."""
    for power in _POWERS:
        if not n:
            break
        if n & 1:
            reg = _multiply(power, reg)
        n >>= 1
    return reg


def _register(data, pos: int, end: int, reg: int) -> int:
    """Run the raw register `reg` over data[pos:end]; `data` is a bytes,
    bytearray or memoryview of bytes, and no more of it than a chunk of
    lanes of a memoryview is copied."""
    view = memoryview(data)
    lanes_left = (end - pos) // _LANE
    while lanes_left >= _MIN_LANES:
        lanes = min(lanes_left, _CHUNK_LANES)
        stop = pos + lanes * _LANE
        if isinstance(data, (bytes, bytearray)):
            reg = _fold_chunk(data, pos, lanes, reg)
        else:  # a memoryview's strided slice has no translate
            reg = _fold_chunk(bytes(view[pos:stop]), 0, lanes, reg)
        pos = stop
        lanes_left -= lanes
    while end - pos >= _MIN_PARITY:
        stop = min(pos + _SPAN, end)
        reg = _parity_span(view[pos:stop], reg)
        pos = stop
    if pos < end:
        return _crc32c_bytewise(view[pos:end], reg ^ 0xFFFFFFFF) ^ 0xFFFFFFFF
    return reg


def _write_register(data, pos: int, end: int, feed, results) -> None:
    """A worker's half of a split check: R(data[pos:end]), as 4 bytes."""
    results.write(_register(data, pos, end, 0).to_bytes(4, "little"))


def crc32c(data: bytes, crc: int = 0) -> int:
    """The CRC-32C of `data`, continued from `crc`, the CRC-32C of the bytes
    before it: crc32c(b + c) == crc32c(c, crc32c(b)). A memoryview counts
    by its bytes, whatever its item format; a non-contiguous one is refused.
    An input of `SPLIT_BYTES` bytes or more is checked in two halves, the second
    by a worker, when `workers` allows one."""
    if not 0 <= crc <= 0xFFFFFFFF:
        raise ValueError(f"crc {crc!r} is outside 0..0xFFFFFFFF")
    if isinstance(data, memoryview):
        data = data.cast("B")
    n = len(data)
    reg = crc ^ 0xFFFFFFFF
    if n >= SPLIT_BYTES:
        half = n // (2 * _LANE) * _LANE
        worker = workers.start("checksum", partial(_write_register, data, half, n))
        if worker is not None:
            try:
                reg = _register(data, 0, half, reg)
                second = worker.results.read(4)
                if len(second) < 4:
                    raise AlgorithmFailure("the checksum worker stopped early")
            except BaseException:
                worker.kill()
                raise
            worker.wait()
            return _append_zeros(reg, n - half) ^ int.from_bytes(second, "little") ^ 0xFFFFFFFF
    return _register(data, 0, n, reg) ^ 0xFFFFFFFF
