"""CRC-32C (Castagnoli polynomial) in pure Python.

Reflected polynomial 0x82F63B78, init and final xor 0xFFFFFFFF.
crc32c(b"123456789") == 0xE3069283.

`crc32c` sends every input through one dispatch, `_register`, in the
caller's process: it folds pieces of up to 64 KiB while `_MIN_FOLD`
bytes or more remain, then runs a rest of 48 bytes or more as one parity
span and a shorter rest through the byte loop, so an input under 48
bytes takes the byte loop alone. The three paths give the same
value, and all rest on one fact: the register update is linear over
GF(2). Write T_d[v] for the register that byte v followed by d zero bytes
leaves behind, starting from a zero register, and Z_d for the map that
appends d zero bytes to a register. Running data D from register r then
ends in

    Z_|D|(r) ^ R(D),  R(D) = XOR over positions i of T_{|D|-1-i}[D[i]],

so a byte's share of the result depends only on its value and its
distance to the end of the run, never on the bytes before it.

- `_crc32c_bytewise`, the one-table loop (Sarwate, CACM 1988), is the
  reference, and takes a rest under 48 bytes.
- The parity path takes a rest from 48 bytes up to `_MIN_FOLD`. Xoring a
  register r into the first four bytes of a span (r's little-endian
  bytes) is the same as starting the span from r, so the span's result is
  R of the altered span alone: a linear map of its bits. Read the span as
  one big-endian int x; the bit for byte distance d and bit b sits at
  8d + b. Result bit j is then the parity of x & M_j, where M_j holds bit
  j of T_d[1 << b] at 8d + b. The masks are laid out from the end of the
  span, so one set serves every span length.
- The fold takes the input while `_MIN_FOLD` bytes (the measured
  crossover) remain, a piece of at most `_PIECE` bytes at a time. Read as
  polynomials over GF(2), a piece run from register r leaves A mod P: A is
  the piece, with r xored into its first four bytes, times x^32, of
  N = 8·len + 32 bits. Read as one little-endian int, bit k holds the
  term x^(N-1-k), since a reflected CRC takes the first byte's low bit as
  the highest term. Split A = H·x^m + L, H its N - m highest terms (the
  int's low bits); with taps(m) the exponents t < 32 of x^m mod P,

      A ≡ H·(x^m mod P) + L = L ^ XOR over t in taps(m) of H << (2m - N - t)

  as an int of m bits, if 2m ≥ N + 32. A fold is thus a few big-int
  shifts and xors, at C speed. The first takes the smallest width m of
  the table with 2m ≥ N + 32, with H and L read from the piece's bytes
  and r xored into H; each next one takes the next smaller width, down
  to 64 bits, whose low half four steps of the byte loop multiply by x^32
  before the high half is xored in. This is the folding of Gopal et al.,
  "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ" (Intel,
  2009), with big-int shifts for the carry-less multiply.

The widths, `_WIDTHS`, follow one rule that `tests/test_crc.py` reruns:
from 64, each next width is the multiple of 8 in [⌊3m/2⌋, 2m - 32] whose
x^m mod P has the fewest terms (the first on a tie), until 2m - 32 holds a
whole piece. The bound makes each fold's result fit the next fold, and
few terms make each fold cheap: 17 at the bottom, 5 at the top, where an
arbitrary m has about 16.

Every table is built at import from `_T0`: the masks from the single-bit
bytes 1 << b stepped through `_MIN_FOLD` - 1 zero bytes, one at a time
(T_{d+1}[v] = Z_1(T_d[v]) = _T0[T_d[v] & 0xFF] ^ (T_d[v] >> 8)), and the
taps of each width m as x^m mod P = Z_(m/8)(x^0). Z_n is multiplication
by x^(8n) mod P, `_append_zeros`: square-and-multiply over the bits of n,
with the powers x^(8·2^k) mod P precomputed (zlib's `crc32_combine`).
"""

import struct
from bisect import bisect_left
from itertools import repeat
from operator import and_

_POLY = 0x82F63B78
_MIN_PARITY = 48  # below this the byte loop is the faster one
_MIN_FOLD = 512  # about the measured crossover: the parity path is as fast below it
_PIECE = 1 << 16


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


def _build_masks() -> tuple[int, ...]:
    """M_31 .. M_0 over a span of _MIN_FOLD bytes."""
    ones = int.from_bytes(b"\x01" * _MIN_FOLD, "big")
    masks = [0] * 32
    for b in range(8):
        regs = [_T0[1 << b]]  # T_d[1 << b] for d = 0 .. _MIN_FOLD-1
        for _ in range(_MIN_FOLD - 1):
            c = regs[-1]
            regs.append(_T0[c & 0xFF] ^ (c >> 8))
        packed = struct.pack(f"<{_MIN_FOLD}I", *regs)
        for k in range(4):
            plane = int.from_bytes(packed[k::4], "little")  # byte d at bit 8d
            for t in range(8):
                masks[8 * k + t] |= ((plane >> t) & ones) << b
    return tuple(reversed(masks))


_MASKS = _build_masks()
_COUNTS = struct.Struct("<32I")
_LOW_BIT = bytes(b"01"[v & 1] for v in range(256))


def _parity_span(span, reg: int) -> int:
    """Run the raw register `reg` over `span`, 4 to _MIN_FOLD bytes."""
    x = int.from_bytes(span, "big") ^ (
        int.from_bytes(reg.to_bytes(4, "little"), "big") << (8 * len(span) - 32))
    counts = _COUNTS.pack(*map(int.bit_count, map(and_, repeat(x), _MASKS)))
    return int(counts[::4].translate(_LOW_BIT), 2)


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


# The widths m of the folds, in bits, by the rule in the module docstring.
_WIDTHS = (64, 96, 144, 256, 400, 664, 1032, 1664, 2800, 4888, 7368, 13664, 22376,
           33608, 52744, 89496, 134376, 204920, 343952)


def _taps(m: int) -> tuple[int, ...]:
    """The exponents t of the terms x^t of x^m mod P."""
    residue = _append_zeros(1 << 31, m // 8)  # x^0 at bit 31
    return tuple(31 - j for j in range(32) if residue >> j & 1)


_TAPS = tuple(map(_taps, _WIDTHS))
# The fold from width n down to the next width m: H is the low n - m bits
# (the mask), and is shifted by 2m - n - t for each tap t.
_FOLDS = tuple(((1 << (n - m)) - 1, n - m, tuple(2 * m - n - t for t in taps))
               for m, n, taps in zip(_WIDTHS, _WIDTHS[1:], _TAPS))


def _fold_piece(piece, reg: int) -> int:
    """Run the raw register `reg` over `piece`, _MIN_FOLD to _PIECE bytes,
    folding it down the table of widths."""
    size = len(piece)
    n = 8 * size + 32
    i = bisect_left(_WIDTHS, 4 * size + 32)  # the smallest m with 2m >= n + 32
    m = _WIDTHS[i]
    h = size + 4 - m // 8  # H's bytes, the n - m highest terms
    high = int.from_bytes(piece[:h], "little") ^ reg
    x = int.from_bytes(piece[h:], "little")
    for t in _TAPS[i]:
        x ^= high << (2 * m - n - t)
    for mask, h, shifts in reversed(_FOLDS[:i]):
        high = x & mask
        x >>= h
        for s in shifts:
            x ^= high << s
    low = x & 0xFFFFFFFF  # times x^32, by four zero bytes
    for _ in range(4):
        low = _T0[low & 0xFF] ^ (low >> 8)
    return low ^ (x >> 32)


def _register(data, reg: int) -> int:
    """Run the raw register `reg` over `data`, a bytes, bytearray or
    memoryview of bytes, of which no more than a piece is copied at a
    time."""
    view = memoryview(data)
    while len(view) >= _MIN_FOLD:
        reg = _fold_piece(view[:_PIECE], reg)
        view = view[_PIECE:]
    if len(view) >= _MIN_PARITY:
        return _parity_span(view, reg)
    return _crc32c_bytewise(view, reg ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


def crc32c(data: bytes, crc: int = 0) -> int:
    """The CRC-32C of `data`, continued from `crc`, the CRC-32C of the bytes
    before it: crc32c(b + c) == crc32c(c, crc32c(b)). A memoryview counts
    by its bytes, whatever its item format; a non-contiguous one is refused."""
    if not 0 <= crc <= 0xFFFFFFFF:
        raise ValueError(f"crc {crc!r} is outside 0..0xFFFFFFFF")
    if isinstance(data, memoryview):
        data = data.cast("B")
    return _register(data, crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF
