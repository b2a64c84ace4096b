"""The fork rule of `workers`, checked where its one caller, the draws of
`rng.lane_chunks`, forks; and a job's output writer, which checksums in
the job's own process: however a job ends, it leaves no child and no
temporary file behind, and its bytes are the same whether it forked or
not."""

import errno
import os
import re
import signal
from pathlib import Path

import pytest

import provrun
import provrun.container
from provrun import PhaseStatus, build_job, read_block, run_job, standard_catalogue, workers
from provrun.cli import EXIT_OK, main
from provrun.errors import WriteFailure
from provrun.rng import FORK_DRAWS, lane_chunks
from provrun.services import _UNIT

from helpers import FailingFile, demo_config, forks
from test_rng import StopsAt

_ROW = 32  # bytes of a four-field row
MIB = 1024 * 1024


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
    """A container whose `events` block is a few units."""
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
    assert len(pids) == {"generate": 1, "file_source": 0}[kind]
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


def test_a_worker_forks_no_worker(monkeypatch):
    pids = forks(monkeypatch, cpus=8)

    def work(results):
        nested = workers.start("nested", lambda results: None)
        results.write(bytes([len(pids), nested is None]))

    worker = workers.start("outer", work)
    assert worker.results.read() == bytes([0, True])
    worker.wait()
    assert len(pids) == 1


def test_only_the_workers_module_forks():
    # and makes pipes, so that every pipe is made where its failure is handled;
    # and only the draws of `rng` start a worker
    forking = re.compile(r"\bos\.(fork|pipe)|\bfork(pty)?\s*\(|\bmultiprocessing\b"
                         r"|\bsubprocess\b")
    starting = re.compile(r"^from \. import .*\bworkers\b|^from \.workers import|\bworkers\.start\b",
                          re.MULTILINE)
    package = Path(provrun.__file__).parent
    texts = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    assert sorted(name for name, text in texts.items() if forking.search(text)) == ["workers.py"]
    assert sorted(name for name, text in texts.items() if starting.search(text)) == ["rng.py"]


# --- a failed pipe counts as a failed fork ----------------------------------------

def _descriptors():
    """The descriptors this process has open, or None where it cannot tell."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def _pipes_fail(monkeypatch) -> list:
    """Fail every call of os.pipe, as a process out of descriptors does; the
    calls made."""
    calls = []

    def pipe():
        calls.append(len(calls))
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", pipe)
    return calls


def test_a_failed_pipe_draws_in_process_and_closes_what_it_opened(monkeypatch):
    pids = forks(monkeypatch)
    forked = b"".join(lane_chunks(5, 0, FORK_DRAWS))
    assert len(pids) == 1
    pids.clear()
    calls = _pipes_fail(monkeypatch)
    before = _descriptors()
    assert b"".join(lane_chunks(5, 0, FORK_DRAWS)) == forked
    assert len(calls) == 1
    assert pids == []
    assert _descriptors() == before


@_JOBS
def test_a_job_whose_pipes_fail_writes_the_same_bytes_in_process(
        tmp_path, monkeypatch, big_source, kind):
    out = tmp_path / "out.pdc"
    assert run_job(_config(kind, out, big_source)).report.succeeded
    forked = out.read_bytes()
    pids = forks(monkeypatch)
    calls = _pipes_fail(monkeypatch)
    before = _descriptors()
    assert run_job(_config(kind, out, big_source)).report.succeeded
    assert len(calls) == {"generate": 1, "file_source": 0}[kind]
    assert pids == []
    assert _descriptors() == before
    assert out.read_bytes() == forked


# --- the writer, which checksums the `events` block in the job's process ------------

def _first_rows(source, rows: int) -> bytes:
    """The `events` block of the first `rows` events of `source`."""
    payload = read_block(source, "events")
    return payload[:len(payload) % _ROW + rows * _ROW]


def _stopped(out, source, how):
    # past the first unit, so the temporary file is open
    return _derive(out, source, ("StopsAt",), StopsAt__At=15_000, StopsAt__How=how)


def _built(config):
    job = build_job(config, (*standard_catalogue(), StopsAt))
    assert job.initialize() is PhaseStatus.OK
    return job


def test_a_file_source_job_forks_nothing_and_streams_whole_units(
        tmp_path, monkeypatch, big_source):
    out = tmp_path / "out.pdc"
    pids = forks(monkeypatch)
    job = _built(_derive(out, big_source))
    assert job.execute() is PhaseStatus.OK
    # the rows of the last, partial unit are held until finalize
    [temporary] = tmp_path.glob("*.tmp")
    streamed = temporary.stat().st_size - 20 - len(read_block(big_source, "events")) % _ROW
    assert streamed > 0 and streamed % _UNIT == 0
    assert job.finalize() is PhaseStatus.OK
    assert pids == []
    assert read_block(out, "events") == read_block(big_source, "events")


def test_a_replay_of_an_input_over_3_mib_forks_nothing_and_verifies(
        tmp_path, monkeypatch, big_source):
    assert len(read_block(big_source, "events")) > 3 * MIB
    derived, replayed = tmp_path / "derived.pdc", tmp_path / "replayed.pdc"
    pids = forks(monkeypatch)
    assert run_job(_derive(derived, big_source)).report.succeeded
    assert main(["replay", str(derived), str(replayed)]) == EXIT_OK
    assert pids == []
    assert read_block(replayed, "events") == read_block(derived, "events")


def test_a_later_stage_failing_mid_stream_keeps_the_rows_before_it(
        tmp_path, monkeypatch, source):
    out = tmp_path / "out.pdc"
    pids = forks(monkeypatch)
    job = run_job(_stopped(out, source, "fail"), (*standard_catalogue(), StopsAt))
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert job.report.phases["finalize"] is PhaseStatus.OK
    assert pids == []
    assert read_block(out, "events") == _first_rows(source, 15_000)
    assert [p.name for p in tmp_path.iterdir()] == ["out.pdc"]


def test_an_interrupt_mid_stream_leaves_the_job_to_finish(tmp_path, monkeypatch, source):
    out = tmp_path / "out.pdc"
    pids = forks(monkeypatch)
    job = _built(_stopped(out, source, "interrupt"))
    with pytest.raises(KeyboardInterrupt):
        job.execute()
    assert job.finalize() is PhaseStatus.OK
    assert pids == []
    assert read_block(out, "events") == _first_rows(source, 15_000)
    assert [p.name for p in tmp_path.iterdir()] == ["out.pdc"]


def test_a_failed_write_during_execute_ends_the_worker(tmp_path, monkeypatch, source):
    # the second unit fails to reach the temporary file
    pids = forks(monkeypatch)
    job = _built(_derive(tmp_path / "out.pdc", source))
    monkeypatch.setattr(provrun.container, "open", lambda file, mode: FailingFile(
        open(file, mode), _UNIT + 100), raising=False)
    assert job.execute() is PhaseStatus.OK
    assert pids == []
    assert list(tmp_path.iterdir()) == []
    assert job.finalize() is PhaseStatus.FAILED
    assert isinstance(job.failure, WriteFailure)
    assert list(tmp_path.iterdir()) == []


def test_a_job_dropped_unfinished_ends_the_worker(tmp_path, monkeypatch, source):
    pids = forks(monkeypatch)
    job = _built(_derive(tmp_path / "out.pdc", source))
    assert job.execute() is PhaseStatus.OK
    assert len(list(tmp_path.glob("*.tmp"))) == 1
    del job
    assert pids == []
    assert list(tmp_path.iterdir()) == []
