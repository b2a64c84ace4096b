"""Memory follows the packed bytes: a job's peak Python allocation stays
within a small multiple of the container bytes it reads and writes, so
the event count does not multiply into per-row Python objects. The output
is streamed to its file a unit at a time, so a job does not hold it: the
peak does not grow with the output."""

import os
import signal
import tracemalloc

import pytest

from provrun import run_job
from provrun.services import _UNIT

from helpers import demo_config

_FILTER_SUM = ("ThresholdFilter", "Accumulator")
# the peak may hold the input, the output and a transient copy of each
_BOUND = 4


def _peak_of_job(config) -> int:
    """The peak of the bytes Python allocates while `config` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        job = run_job(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert job.report.succeeded, job.report.error
    return peak


def test_a_generate_job_peaks_within_a_few_times_its_output(tmp_path):
    out = tmp_path / "generate.pdc"
    peak = _peak_of_job(demo_config(
        out, algorithms=("RandomEventSource", *_FILTER_SUM), RandomEventSource__Seed=3,
        RandomEventSource__NumEvents=100_000, RandomEventSource__FieldCount=4,
        ThresholdFilter__Min=0.5))
    size = os.path.getsize(out)
    assert peak <= _BOUND * size, f"peak {peak / 2**20:.1f} MiB for {size} bytes"


def test_a_file_source_job_peaks_within_a_few_times_its_input_and_output(tmp_path):
    source, out = tmp_path / "source.pdc", tmp_path / "derived.pdc"
    made = run_job(demo_config(source, algorithms=("RandomEventSource",),
                               RandomEventSource__Seed=3,
                               RandomEventSource__NumEvents=100_000,
                               RandomEventSource__FieldCount=4))
    assert made.report.succeeded, made.report.error
    peak = _peak_of_job(demo_config(
        out, algorithms=("FileEventSource", *_FILTER_SUM),
        FileEventSource__Input=str(source), ThresholdFilter__Min=0.5))
    size = os.path.getsize(source) + os.path.getsize(out)
    assert peak <= _BOUND * size, f"peak {peak / 2**20:.1f} MiB for {size} bytes"


def _kept_config(out, events):
    """A generate job of `events` four-field events, every one kept."""
    return demo_config(out, algorithms=("RandomEventSource",), RandomEventSource__Seed=3,
                       RandomEventSource__NumEvents=events, RandomEventSource__FieldCount=4)


def test_a_generate_job_peaks_the_same_at_four_times_the_events(tmp_path):
    # 1.5 and 6.1 MiB of output: the peak holds about one unit of either
    small, large = (_peak_of_job(_kept_config(tmp_path / f"{n}.pdc", n))
                    for n in (50_000, 200_000))
    assert large <= small + 2**20, f"peak {small / 2**20:.2f} -> {large / 2**20:.2f} MiB"


def test_a_file_source_job_does_not_hold_its_output(tmp_path):
    source, out = tmp_path / "source.pdc", tmp_path / "derived.pdc"
    made = run_job(_kept_config(source, 100_000))
    assert made.report.succeeded, made.report.error
    peak = _peak_of_job(demo_config(out, algorithms=("FileEventSource",),
                                    FileEventSource__Input=str(source)))
    # the input is read whole; the output, as large, is held a unit at a time
    assert os.path.getsize(out) > 8 * _UNIT
    limit = os.path.getsize(source) + 4 * _UNIT
    assert peak <= limit, f"peak {peak / 2**20:.2f} MiB over {limit / 2**20:.2f} MiB"


def test_a_wide_generate_job_holds_about_one_unit(tmp_path):
    # rows of 2051 fields are packed one at a time, not a thousand at once
    out = tmp_path / "wide.pdc"
    peak = _peak_of_job(demo_config(out, algorithms=("RandomEventSource",),
                                    RandomEventSource__Seed=3, RandomEventSource__NumEvents=200,
                                    RandomEventSource__FieldCount=2051))
    assert os.path.getsize(out) > 12 * _UNIT
    assert peak <= 8 * _UNIT, f"peak {peak / 2**20:.2f} MiB"


class Overrun(BaseException):
    """A job ran too long; no `except Exception` in the job can swallow it."""


def _finishes(config, seconds=60):
    """The job of `config`, stopped by an alarm if it runs over `seconds`."""
    def overrun(signum, frame):
        raise Overrun(f"the job ran over {seconds} s")
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(seconds)
    try:
        return run_job(config)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("events", [0, 3])
def test_a_job_of_rows_wider_than_a_chunk_finishes(tmp_path, events):
    # 4097 fields pack to 32776 bytes a row, over the writer's 32 KiB chunk
    source, out = tmp_path / "source.pdc", tmp_path / "derived.pdc"
    made = _finishes(demo_config(source, algorithms=("RandomEventSource",),
                                 RandomEventSource__Seed=3, RandomEventSource__NumEvents=events,
                                 RandomEventSource__FieldCount=4097))
    assert made.report.succeeded, made.report.error
    read = _finishes(demo_config(out, algorithms=("FileEventSource",),
                                 FileEventSource__Input=str(source)))
    assert read.report.succeeded, read.report.error
    assert os.path.getsize(out) >= events * 4097 * 8
