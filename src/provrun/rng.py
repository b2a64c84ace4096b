"""SplitMix64: the fixed deterministic generator behind the demo event source.

The constants are the standard public ones, so any implementation seeded
identically produces the identical stream; event payloads are reproducible
byte-for-byte because of this.

The state is a counter: draw k (k = 1, 2, ...) of `SplitMix64(seed)` is
mix((seed + k·γ) mod 2^64), so any draw can be computed without the ones
before it (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
Generators", OOPSLA 2014). Two paths give the same doubles:

- `SplitMix64`, one draw per call, is the reference.
- `lane_chunks` computes up to 2048 draws at once, one per lane. A lane is
  a 128-bit slot of one Python int: base·ONES + STEPS puts base + i·γ in
  lane i. Every lane is masked to 64 bits before and after each multiply,
  so a product by a 64-bit constant never carries into the next lane, and
  the bits a right shift brings down from the next lane are never read.
  A chunk of fewer draws uses only as many lanes as it has draws, so a
  short run costs no more than its draws.

  Each chunk comes out as the bytes of its slots, laid out so that one
  float subtraction makes the double. With x the draw's top 53 bits, a
  slot's low word is the double A = 0.5 + (x mod 2^52)·2^-53, and its high
  word is C = 0.5 when bit 52 of x is clear and +0.0 when it is set.
  `doubles` reads the words as doubles and yields A − C for each slot. The
  difference is exact and equals x·2^-53, as `next_double` gives it, bit
  for bit: with the bit clear, C/2 <= A <= 2C, so A − C is exact by
  Sterbenz's lemma and equals (x mod 2^52)·2^-53 = x·2^-53; with it set,
  A − 0 = A = 0.5 + (x − 2^52)·2^-53 = x·2^-53.

A run of at least `FORK_DRAWS` draws computes its chunks in a worker when
the fork rule of `workers` allows one: the worker writes them to a pipe,
and the run reads them, so the lane arithmetic takes another core. The
bytes depend only on the seed and the draws' positions, so the doubles are
identical either way. The run reaps the worker at its end, or kills and
reaps it when it is closed early; a short read, like a non-zero exit
status, is an `AlgorithmFailure`.
"""

import sys
from array import array
from functools import partial
from itertools import chain
from operator import sub

from . import workers
from .errors import AlgorithmFailure

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
_HALF = 0x3FE0000000000000  # the bits of the double 0.5, 0x1FF << 53
_HALVES = (_HALF << 64 | _HALF) * _ONES
_MANTISSAS = ((1 << 52) - 1) * _ONES
_TOP_BITS = (1 << 63) * _ONES  # bit 52 of x is bit 63 of the draw

# the fewest draws that repay forking a worker (see CHANGES.md)
FORK_DRAWS = 40_000


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


def _lanes(seed: int, start: int, count: int):
    """The slots of draws start+1 .. start+count of `SplitMix64(seed)`, as
    bytes, a chunk of up to `LANES` at a time; made in this process."""
    ones, steps, masks, halves = _ONES, _STEPS, _MASKS, _HALVES
    end = start + count
    while start < end:
        lanes = min(end - start, LANES)
        if lanes < LANES:  # the last chunk
            cut = (1 << (8 * _SLOT * lanes)) - 1
            ones, steps, masks, halves = ones & cut, steps & cut, masks & cut, halves & cut
        z = (((seed + (start + 1) * _GAMMA) & _MASK64) * ones + steps) & masks
        z = ((z ^ (z >> 30)) & masks) * _MIX1 & masks
        z = ((z ^ (z >> 27)) & masks) * _MIX2 & masks
        yield _layout(z ^ (z >> 31), halves).to_bytes(_SLOT * lanes, "little")
        start += lanes


def _layout(z: int, halves: int) -> int:
    """The slots of the draws in the low words of the lanes of `z` (the
    bits above them are not read); `halves` has 0.5 in both words of each
    of those lanes, and the high word loses it where bit 52 of x is set."""
    return ((z >> 11) & _MANTISSAS) | (halves ^ (z & _TOP_BITS) * 0x1FF << 54)


def lane_chunks(seed: int, start: int, count: int):
    """The slots of draws start+1 .. start+count of `SplitMix64(seed)`, as
    bytes, a chunk of up to `LANES` at a time: from a worker when the run
    is long enough to repay the fork and `workers` allows one, else made
    here."""
    worker = (workers.start("draw", partial(_write_lanes, seed, start, count))
              if count >= FORK_DRAWS else None)
    if worker is None:
        yield from _lanes(seed, start, count)
        return
    try:
        for drawn in range(0, count, LANES):
            size = _SLOT * min(LANES, count - drawn)
            slots = worker.results.read(size)
            if len(slots) < size:
                raise AlgorithmFailure(
                    f"the draw worker stopped after {drawn} of {count} draws")
            yield slots
    except BaseException:
        worker.kill()
        raise
    worker.wait()


def _write_lanes(seed: int, start: int, count: int, results) -> None:
    """The worker's side of `lane_chunks`: `_lanes`, written to `results`."""
    for slots in _lanes(seed, start, count):
        results.write(slots)


def _slot_doubles(slots: bytes):
    """The draws of one chunk of slots: each slot's low word minus its high."""
    words = array("d", slots)
    if sys.byteorder == "big":
        words.byteswap()
    return map(sub, words[::2], words[1::2])


def doubles(chunks):
    """The draws of `chunks` of slots, as floats, one per slot."""
    return chain.from_iterable(map(_slot_doubles, chunks))
