"""Memory follows the packed bytes: a job's peak Python allocation stays
within a small multiple of the container bytes it reads and writes, so
the event count does not multiply into per-row Python objects. The output
is streamed to its file a unit at a time, so a job does not hold it: the
peak does not grow with the output."""

import os
import tracemalloc

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
