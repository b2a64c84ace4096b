"""The fork rule of `workers`, checked where each caller forks, and the life
cycle of the writer's checksum worker: however a job ends, it leaves no
child and no temporary file behind, and its bytes are the same whether it
forked or not."""

import errno
import os
import re
import signal
from pathlib import Path

import pytest

import provrun
import provrun.container
from provrun import PhaseStatus, build_job, read_block, run_job, standard_catalogue, workers
from provrun.crc import SPLIT_BYTES, crc32c
from provrun.errors import WriteFailure
from provrun.services import _UNIT

from helpers import FailingFile, demo_config, forks
from test_rng import StopsAt, _no_child

_ROW = 32  # bytes of a four-field row


def _source(path, events):
    """A container of `events` four-field events."""
    job = run_job(demo_config(path, algorithms=("RandomEventSource",),
                              RandomEventSource__Seed=11, RandomEventSource__NumEvents=events,
                              RandomEventSource__FieldCount=4))
    assert job.report.succeeded, job.report.error
    return path


@pytest.fixture(scope="module")
def big_source(tmp_path_factory):
    """A container whose `events` block is over 3 MB."""
    return _source(tmp_path_factory.mktemp("big") / "source.pdc", 100_000)


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    """A container whose `events` block is a few units, and under the split."""
    return _source(tmp_path_factory.mktemp("small") / "source.pdc", 20_000)


def _generate(out):
    return demo_config(out, algorithms=("RandomEventSource", "ThresholdFilter"),
                       RandomEventSource__Seed=7, RandomEventSource__NumEvents=50_000,
                       RandomEventSource__FieldCount=2, ThresholdFilter__Min=0.25)


def _derive(out, source, later=(), **assignments):
    return demo_config(out, algorithms=("FileEventSource", *later),
                       FileEventSource__Input=str(source), **assignments)


def _config(kind, out, big_source):
    return _generate(out) if kind == "generate" else _derive(out, big_source)


_JOBS = pytest.mark.parametrize("kind", ["generate", "file_source"])


@_JOBS
def test_one_usable_cpu_forks_nothing_and_writes_the_same_bytes(
        tmp_path, monkeypatch, big_source, kind):
    out = tmp_path / "out.pdc"
    pids = forks(monkeypatch)
    assert run_job(_config(kind, out, big_source)).report.succeeded
    assert len(pids) == {"generate": 1, "file_source": 2}[kind]
    forked = out.read_bytes()
    pids = forks(monkeypatch, cpus=1)
    assert run_job(_config(kind, out, big_source)).report.succeeded
    assert pids == []
    assert out.read_bytes() == forked


def _reap_children(signum, frame):
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


@_JOBS
def test_a_job_forks_nothing_while_a_sigchld_handler_may_reap(
        tmp_path, monkeypatch, big_source, kind):
    # a forked worker's exit status would go to the handler, and the job
    # would find no child to reap
    out = tmp_path / "out.pdc"
    pids = forks(monkeypatch)
    previous = signal.signal(signal.SIGCHLD, _reap_children)
    try:
        job = run_job(_config(kind, out, big_source))
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert job.report.succeeded, job.report.error
    assert pids == []
    handled = out.read_bytes()
    monkeypatch.delattr(os, "fork")
    assert run_job(_config(kind, out, big_source)).report.succeeded
    assert out.read_bytes() == handled


def test_while_a_draw_worker_is_alive_the_writer_chains_in_process(tmp_path, monkeypatch):
    # the draws of 50,000 two-field events outlast the first 256 KiB unit
    out = tmp_path / "out.pdc"
    pids = forks(monkeypatch)
    assert run_job(_generate(out)).report.succeeded
    assert len(pids) == 1
    in_process = out.read_bytes()
    pids = forks(monkeypatch, cpus=3)
    assert run_job(_generate(out)).report.succeeded
    assert len(pids) == 2
    assert out.read_bytes() == in_process


def test_a_worker_forks_no_worker(monkeypatch):
    pids = forks(monkeypatch, cpus=8)

    def work(feed, results):
        nested = workers.start("nested", lambda feed, results: None)
        results.write(bytes([len(pids), nested is None]))

    worker = workers.start("outer", work)
    assert worker.results.read() == bytes([0, True])
    worker.wait()
    assert len(pids) == 1


def test_only_the_workers_module_forks():
    # and makes pipes, so that every pipe is made where its failure is handled
    forking = re.compile(r"\bos\.(fork|pipe)|\bfork(pty)?\s*\(|\bmultiprocessing\b"
                         r"|\bsubprocess\b")
    package = Path(provrun.__file__).parent
    found = sorted(path.name for path in package.glob("*.py")
                   if forking.search(path.read_text(encoding="utf-8")))
    assert found == ["workers.py"]


# --- a failed pipe counts as a failed fork ----------------------------------------

def _descriptors():
    """The descriptors this process has open, or None where it cannot tell."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def _pipes_fail(monkeypatch, after: int) -> list:
    """Let `after` calls of os.pipe succeed and fail every later one, as a
    process out of descriptors does; the calls made."""
    calls = []

    def pipe(real=os.pipe):
        calls.append(len(calls))
        if len(calls) > after:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return real()

    monkeypatch.setattr(os, "pipe", pipe)
    return calls


@pytest.mark.parametrize("after", [0, 1], ids=["first_pipe", "second_pipe"])
def test_a_failed_pipe_checks_in_process_and_closes_what_it_opened(monkeypatch, after):
    data = bytes(range(256)) * (SPLIT_BYTES // 256) + bytes(10)
    expected = crc32c(data)
    pids = forks(monkeypatch)
    calls = _pipes_fail(monkeypatch, after)
    before = _descriptors()
    assert crc32c(data) == expected
    assert len(calls) == after + 1
    assert pids == []
    assert _descriptors() == before


@_JOBS
def test_a_job_whose_pipes_fail_writes_the_same_bytes_in_process(
        tmp_path, monkeypatch, big_source, kind):
    out = tmp_path / "out.pdc"
    assert run_job(_config(kind, out, big_source)).report.succeeded
    forked = out.read_bytes()
    pids = forks(monkeypatch)
    calls = _pipes_fail(monkeypatch, 1)
    before = _descriptors()
    assert run_job(_config(kind, out, big_source)).report.succeeded
    assert calls and pids == []
    assert _descriptors() == before
    assert out.read_bytes() == forked


# --- the writer's checksum worker, fed the units of the `events` block ---------------

def _first_rows(source, rows: int) -> bytes:
    """The `events` block of the first `rows` events of `source`."""
    payload = read_block(source, "events")
    return payload[:len(payload) % _ROW + rows * _ROW]


def _stopped(out, source, how):
    # past the first unit, so the checksum worker has been forked
    return _derive(out, source, ("StopsAt",), StopsAt__At=15_000, StopsAt__How=how)


def _built(config):
    job = build_job(config, (*standard_catalogue(), StopsAt))
    assert job.initialize() is PhaseStatus.OK
    return job


def test_a_file_source_job_forks_to_check_its_input_and_its_output(
        tmp_path, monkeypatch, big_source):
    out = tmp_path / "out.pdc"
    pids = forks(monkeypatch)
    job = _built(_derive(out, big_source))
    assert len(pids) == 1  # the split check of the input, reaped
    _no_child()
    assert job.execute() is PhaseStatus.OK
    assert len(pids) == 2  # the output's checksum worker, alive until finalize
    # past the first unit, every chunk was streamed as it was packed
    [temporary] = tmp_path.glob("*.tmp")
    assert temporary.stat().st_size == 20 + len(read_block(big_source, "events"))
    assert job.finalize() is PhaseStatus.OK
    _no_child()
    assert read_block(out, "events") == read_block(big_source, "events")


def test_a_later_stage_failing_mid_stream_keeps_the_rows_before_it(
        tmp_path, monkeypatch, source):
    out = tmp_path / "out.pdc"
    pids = forks(monkeypatch)
    job = run_job(_stopped(out, source, "fail"), (*standard_catalogue(), StopsAt))
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert job.report.phases["finalize"] is PhaseStatus.OK
    assert len(pids) == 1
    _no_child()
    assert read_block(out, "events") == _first_rows(source, 15_000)
    assert [p.name for p in tmp_path.iterdir()] == ["out.pdc"]


def test_an_interrupt_mid_stream_leaves_the_job_to_finish(tmp_path, monkeypatch, source):
    out = tmp_path / "out.pdc"
    pids = forks(monkeypatch)
    job = _built(_stopped(out, source, "interrupt"))
    with pytest.raises(KeyboardInterrupt):
        job.execute()
    assert len(pids) == 1
    assert job.finalize() is PhaseStatus.OK
    _no_child()
    assert read_block(out, "events") == _first_rows(source, 15_000)
    assert [p.name for p in tmp_path.iterdir()] == ["out.pdc"]


def test_a_failed_write_during_execute_ends_the_worker(tmp_path, monkeypatch, source):
    # the second unit fails to reach the temporary file
    pids = forks(monkeypatch)
    job = _built(_derive(tmp_path / "out.pdc", source))
    monkeypatch.setattr(provrun.container, "open", lambda file, mode: FailingFile(
        open(file, mode), _UNIT + 100), raising=False)
    assert job.execute() is PhaseStatus.OK
    assert len(pids) == 1
    _no_child()
    assert list(tmp_path.iterdir()) == []
    assert job.finalize() is PhaseStatus.FAILED
    assert isinstance(job.failure, WriteFailure)
    assert list(tmp_path.iterdir()) == []


def test_a_job_dropped_unfinished_ends_the_worker(tmp_path, monkeypatch, source):
    pids = forks(monkeypatch)
    job = _built(_derive(tmp_path / "out.pdc", source))
    assert job.execute() is PhaseStatus.OK
    assert len(pids) == 1
    assert len(list(tmp_path.glob("*.tmp"))) == 1
    del job
    _no_child()
    assert list(tmp_path.iterdir()) == []


def test_a_worker_killed_before_the_block_ends_fails_finalize(tmp_path, monkeypatch, source):
    pids = forks(monkeypatch)
    job = _built(_derive(tmp_path / "out.pdc", source))
    assert job.execute() is PhaseStatus.OK
    [pid] = pids
    os.kill(pid, signal.SIGKILL)
    assert job.finalize() is PhaseStatus.FAILED
    assert isinstance(job.failure, WriteFailure)
    _no_child()
    assert list(tmp_path.iterdir()) == []
