"""SplitMix64: the fixed deterministic generator behind the demo event source.

The constants are the standard public ones, so any implementation seeded
identically produces the identical stream; event payloads are reproducible
byte-for-byte because of this.

The state is a counter: draw k (k = 1, 2, ...) of `SplitMix64(seed)` is
mix((seed + k·γ) mod 2^64), so any draw can be computed without the ones
before it (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
Generators", OOPSLA 2014). Two paths give the same doubles:

- `SplitMix64`, one draw per call, is the reference.
- `draw_doubles` computes up to 2048 draws at once, one per lane. A lane is
  a 128-bit slot of one Python int: base·ONES + STEPS puts base + i·γ in
  lane i. Every lane is masked to 64 bits before and after each multiply,
  so a product by a 64-bit constant never carries into the next lane, and
  the bits a right shift brings down from the next lane are masked off.
  The lanes come out as the even (low) words of an `array('Q')` and are
  scaled to doubles, which is exact because they are below 2^53. A
  chunk of fewer draws uses only as many lanes as it has draws, so a short
  run costs no more than its draws.
"""

import sys
from array import array

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# one draw consumes the top 53 bits, giving a uniform double in [0, 1)
_DOUBLE_SCALE = 1.0 / (1 << 53)

LANES = 2048
_SLOT = 16  # bytes per lane
_ONES = int.from_bytes((b"\x01" + bytes(_SLOT - 1)) * LANES, "little")
_STEPS = int.from_bytes(b"".join((i * _GAMMA).to_bytes(_SLOT, "little")
                                 for i in range(LANES)), "little")
_MASKS = _MASK64 * _ONES


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * _DOUBLE_SCALE


def draw_doubles(seed: int, start: int, count: int) -> list[float]:
    """Draws start+1 .. start+count of `SplitMix64(seed)`, as `next_double`
    returns them."""
    out: list[float] = []
    ones, steps, masks = _ONES, _STEPS, _MASKS
    end = start + count
    while start < end:
        lanes = min(end - start, LANES)
        if lanes < LANES:  # the last chunk
            cut = (1 << (8 * _SLOT * lanes)) - 1
            ones, steps, masks = ones & cut, steps & cut, masks & cut
        z = (((seed + (start + 1) * _GAMMA) & _MASK64) * ones + steps) & masks
        z = ((z ^ (z >> 30)) & masks) * _MIX1 & masks
        z = ((z ^ (z >> 27)) & masks) * _MIX2 & masks
        # bits 64.. of a lane are left unmasked: only the low word is read
        z = (z ^ (z >> 31)) >> 11
        words = array("Q", z.to_bytes(_SLOT * lanes, "little"))[::2]
        if sys.byteorder == "big":
            words.byteswap()
        out += [x * _DOUBLE_SCALE for x in words]
        start += lanes
    return out
