"""Generator golden vectors, frozen from an independent straight-line run,
the lane-parallel batch path checked against the stateful reference bit for
bit, and the forked draw worker's bytes and life cycle."""

import gc
import os
import signal
import threading
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

import provrun.rng
from provrun import Kind, PhaseStatus, build_job, read_block, run_job, standard_catalogue
from provrun.algorithms import Algorithm
from provrun.errors import AlgorithmFailure
from provrun.rng import FORK_DRAWS, LANES, SplitMix64, doubles, lane_chunks

from helpers import demo_config, forks

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


def bits(draws) -> bytes:
    """The doubles' bits: float == cannot tell -0.0 from +0.0."""
    return array("d", draws).tobytes()


# --- draw_doubles -----------------------------------------------------------------

def draw_doubles(seed: int, start: int, count: int) -> list[float]:
    """Draws start+1 .. start+count of `SplitMix64(seed)` through the lanes,
    as `next_double` returns them."""
    return list(doubles(lane_chunks(seed, start, count)))


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
    reference = SplitMix64(seed)
    stream = [reference.next_double() for _ in range(start + count)]
    assert bits(draw_doubles(seed, start, count)) == bits(stream[start:])


def test_draw_doubles_equals_the_straight_line_stream():
    seed, start, count = 2**64 - 1, 777, 3 * LANES + 11
    words = reference_stream(seed, start + count)[start:]
    assert bits(draw_doubles(seed, start, count)) == bits([(w >> 11) / 2**53 for w in words])


# the top 53 bits x of a draw at the edges of the slot layout's two cases
_EDGE_XS = (0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1)


@pytest.mark.parametrize("junk", [0, 2**11 - 1])
def test_the_slot_layout_makes_each_double_with_one_exact_subtraction(junk):
    # each draw z = x·2^11 + junk in its lane's low word, and junk in the
    # lane's upper bits, as the lane arithmetic leaves them
    lanes = len(_EDGE_XS)
    z = sum(((x << 11 | junk) | junk << 100) << (128 * i) for i, x in enumerate(_EDGE_XS))
    cut = (1 << (128 * lanes)) - 1
    slots = provrun.rng._layout(z, provrun.rng._HALVES & cut).to_bytes(16 * lanes, "little")
    assert bits(doubles([slots])) == bits([x * 2**-53 for x in _EDGE_XS])
    assert bits(doubles([slots]))[:8] == bytes(8)  # +0.0, not -0.0


# --- the forked draw worker ---------------------------------------------------------

@pytest.mark.parametrize("count", [FORK_DRAWS - 1, FORK_DRAWS])
def test_a_run_forks_a_worker_from_its_break_even_on(monkeypatch, count):
    forked = forks(monkeypatch)
    draws = draw_doubles(2019, 5, count)
    assert len(forked) == (count >= FORK_DRAWS)
    assert bits(draws[-3:]) == bits(draw_doubles(2019, 5 + count - 3, 3))


def test_a_run_does_not_fork_while_another_thread_runs(monkeypatch):
    forked = forks(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        draws = draw_doubles(7, 0, FORK_DRAWS)
    finally:
        release.set()
        other.join()
    assert forked == []
    assert bits(draws) == bits(draw_doubles(7, 0, FORK_DRAWS))


def test_a_run_does_not_fork_while_the_process_ignores_its_children(monkeypatch):
    # the kernel would reap the worker, leaving no exit status to check
    forked = forks(monkeypatch)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        draws = draw_doubles(7, 0, FORK_DRAWS)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert forked == []
    assert bits(draws) == bits(draw_doubles(7, 0, FORK_DRAWS))


def _generate(out, field_count, events=None, later=(), **assignments):
    """A generate job of `field_count` fields, by default of just enough
    events to fork a worker, then the `later` algorithms."""
    if events is None:
        events = FORK_DRAWS // field_count + 1
    return demo_config(out, algorithms=("RandomEventSource", *later),
                       RandomEventSource__Seed=-5, RandomEventSource__NumEvents=events,
                       RandomEventSource__FieldCount=field_count, **assignments)


@pytest.mark.parametrize("field_count", [3, 2051])
def test_a_job_writes_the_same_bytes_through_the_worker_and_in_process(
        tmp_path, monkeypatch, field_count):
    # 3 and 2051 fields: rows straddle the edges of the 2048-draw chunks
    out = tmp_path / "out.pdc"
    pids = forks(monkeypatch)
    assert run_job(_generate(out, field_count)).report.succeeded
    # the writer takes rows of 2051 fields one at a time, so the first unit
    # of 20 such events is written while the draw worker is alive, and the
    # writer chains the block's crc32c itself
    assert len(pids) == 1
    forked = out.read_bytes()
    monkeypatch.delattr(os, "fork")
    assert run_job(_generate(out, field_count)).report.succeeded
    assert out.read_bytes() == forked


class StopsAt(Algorithm):
    """At event `At`, raises an AlgorithmFailure ("fail") or a
    KeyboardInterrupt ("interrupt"), as `How` says."""

    PROPERTIES = (("At", Kind.INTEGER, 0), ("How", Kind.TEXT, "fail"))

    def process(self, job, event):
        if event.index == self.value("At"):
            if self.value("How") == "interrupt":
                raise KeyboardInterrupt
            raise AlgorithmFailure(f"stopped at event {event.index}")
        return True


def _stopped(out, at, how):
    return _generate(out, 4, later=("StopsAt",), StopsAt__At=at, StopsAt__How=how)


def _first_rows(tmp_path, events):
    """The `events` block of the first `events` four-field events."""
    whole = tmp_path / "whole.pdc"
    assert run_job(_generate(whole, 4, events)).report.succeeded
    payload = read_block(whole, "events")
    whole.unlink()
    return payload


def _no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_later_stage_failing_ends_the_worker_with_execute(tmp_path, monkeypatch):
    pids = forks(monkeypatch)
    out = tmp_path / "stopped.pdc"
    job = build_job(_stopped(out, 7000, "fail"), (*standard_catalogue(), StopsAt))
    assert job.initialize() is PhaseStatus.OK
    assert job.execute() is PhaseStatus.FAILED
    assert len(pids) == 1
    _no_child()  # while the job and its failure's traceback live on
    assert job.finalize() is PhaseStatus.OK
    assert (job.report.events_seen, job.report.events_written) == (7000, 7000)
    assert read_block(out, "events") == _first_rows(tmp_path, 7000)
    assert [p.name for p in tmp_path.iterdir()] == ["stopped.pdc"]


def test_an_interrupt_mid_stream_ends_the_worker(tmp_path, monkeypatch):
    pids = forks(monkeypatch)
    out = tmp_path / "interrupted.pdc"
    # past the first 256 KiB unit, so the output's temporary file exists
    job = build_job(_stopped(out, 9000, "interrupt"), (*standard_catalogue(), StopsAt))
    job.initialize()
    with pytest.raises(KeyboardInterrupt):
        job.execute()
    assert len(pids) == 1
    _no_child()
    assert not out.exists()
    assert len(list(tmp_path.glob("*.tmp"))) == 1
    del job
    gc.collect()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("chunks", [2, None])
def test_a_worker_that_exits_early_fails_execute(tmp_path, monkeypatch, chunks):
    # the worker writes `chunks` chunks (None: all of them), then exits with
    # status 1: a short read, or a full read and a failed exit
    out = tmp_path / "short.pdc"
    config = _generate(out, 4)
    planned = config.get("RandomEventSource.NumEvents").value
    made = planned if chunks is None else chunks * LANES // 4
    expected = _first_rows(tmp_path, made)

    def lanes(seed, start, count, real=provrun.rng._lanes):
        whole = real(seed, start, count)
        yield from (whole if chunks is None else (next(whole) for _ in range(chunks)))
        raise RuntimeError("the worker broke")

    monkeypatch.setattr(provrun.rng, "_lanes", lanes)
    pids = forks(monkeypatch)
    job = run_job(config)
    assert len(pids) == 1
    _no_child()
    message = ("the draw worker exited with status 1" if chunks is None
               else f"the draw worker stopped after {chunks * LANES} of {4 * planned} draws")
    assert job.report.error == f"execute: {message}"
    assert (job.report.events_seen, job.report.events_written) == (made, made)
    assert read_block(out, "events") == expected
    assert [p.name for p in tmp_path.iterdir()] == ["short.pdc"]
