"""Generator golden vectors, frozen from an independent straight-line run,
and the lane-parallel batch path checked against the stateful reference."""

from hypothesis import example, given, settings, strategies as st

from provrun.rng import LANES, SplitMix64, draw_doubles

# widely published reference stream for seed 0
SEED0_FIRST4 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]

SEED1234567_FIRST3 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
]


def reference_stream(seed: int, count: int) -> list[int]:
    # straight-line reimplementation, independent of the package class
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_seed0_golden_vector():
    rng = SplitMix64(0)
    assert [rng.next_uint64() for _ in range(4)] == SEED0_FIRST4


def test_seed1234567_golden_vector():
    rng = SplitMix64(1234567)
    assert [rng.next_uint64() for _ in range(3)] == SEED1234567_FIRST3


def test_matches_reference_for_many_seeds():
    for seed in (1, 2, 42, 2011, 2012, -1, (1 << 63) - 1):
        rng = SplitMix64(seed)
        assert [rng.next_uint64() for _ in range(16)] == reference_stream(seed, 16)


def test_doubles_are_uniform_unit_interval():
    rng = SplitMix64(1)
    draws = [rng.next_double() for _ in range(1000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    # top-53-bit mapping: value * 2^53 must be integral
    assert all(float(int(d * (1 << 53))) == d * (1 << 53) for d in draws)


# --- draw_doubles -----------------------------------------------------------------

# both paths reduce the seed mod 2**64: -1 and 2**64 - 1 are one seed
_EDGE_SEEDS = (0, 2**64 - 1, -1, -(2**63), 2**64, 2**64 + 2019, 2**70 + 3)
_EDGE_COUNTS = (0, 1, LANES - 1, LANES, LANES + 1)


@settings(max_examples=60)
@given(seed=st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(-2**70, 2**70)),
       start=st.integers(0, 3 * LANES),
       count=st.one_of(st.sampled_from(_EDGE_COUNTS), st.integers(0, 2 * LANES + 5)))
@example(seed=2**64 - 1, start=1000, count=0)
@example(seed=-1, start=1000, count=1)
@example(seed=0, start=1000, count=LANES - 1)
@example(seed=2**64, start=1000, count=LANES)
@example(seed=-12345, start=1000, count=LANES + 1)
def test_draw_doubles_equals_the_stateful_reference(seed, start, count):
    rng = SplitMix64(seed)
    stream = [rng.next_double() for _ in range(start + count)]
    assert draw_doubles(seed, start, count) == stream[start:]


def test_draw_doubles_equals_the_straight_line_stream():
    seed, start, count = 2**64 - 1, 777, 3 * LANES + 11
    words = reference_stream(seed, start + count)[start:]
    assert draw_doubles(seed, start, count) == [(w >> 11) / 2**53 for w in words]
