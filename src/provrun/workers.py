"""Forked workers: the one place provrun forks.

A worker is a child process that takes a share of a job's work on another
core. It computes from the copy-on-write memory it shares with the job,
and hands its result back over one pipe (`Worker.results`). Its result is
the one the job would have computed itself, so a job's bytes are the same
whether it forks or not. One caller forks one: `rng.lane_chunks`, for a
long run of draws. Every CRC-32C runs in the process that asks for it.

The fork rule. `start` forks only

- where `os.fork` exists;
- while one Python thread runs, since a fork copies only the calling
  thread;
- while SIGCHLD is at SIG_DFL: with SIGCHLD ignored the kernel reaps the
  worker, and a handler that reaps takes its exit status, so either would
  leave the job nothing to reap (`ChildProcessError`);
- from a process that is not itself a worker;
- while fewer than `USABLE_CPUS` - 1 workers of this process are alive,
  `USABLE_CPUS` being the CPUs that `os.sched_getaffinity` lets it run on:
  one worker on two CPUs, none on one.

Otherwise, or when the pipe or the fork fails (a failed pipe counts as a
failed fork, and a failed fork closes the pipe), `start` returns None,
and the caller does the work itself.

SIGINT is blocked across the fork and stays blocked in the worker, so an
interrupt reaches the job alone, which then ends the worker. The worker
runs its work inside `try/finally: os._exit`, so it never unwinds into the
frames it was forked from, and exits 0 when the work returns, 1 when it
raises. The job reaps it with `wait`, once its result is read, where a
non-zero exit status is an `AlgorithmFailure`; or ends it with `kill`,
which kills and reaps it, when the job stops early. A worker that is
dropped unreaped is killed and reaped then.
"""

from __future__ import annotations

import os
import signal
import threading
import weakref
from typing import BinaryIO, Callable, Optional

from .errors import AlgorithmFailure

try:
    USABLE_CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity on this platform
    USABLE_CPUS = os.cpu_count() or 1

_alive = 0  # workers of this process forked and not yet reaped
_in_worker = False


def _may_fork() -> bool:
    return (hasattr(os, "fork") and not _in_worker and _alive < USABLE_CPUS - 1
            and threading.active_count() == 1
            and signal.getsignal(signal.SIGCHLD) == signal.SIG_DFL)


def _reap(pid: int, results: BinaryIO, kill: bool) -> int:
    """Close the job's end of the worker's pipe, `results`, and reap the
    worker `pid`, killed first if `kill`; its exit code."""
    global _alive
    if _in_worker:  # a copy of the job's Worker, inherited by a worker
        return 0
    if kill:
        os.kill(pid, signal.SIGKILL)
    results.close()
    _alive -= 1
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


class Worker:
    """The job's side of a forked worker: `results`, the pipe it reads the
    worker's result from."""

    def __init__(self, name: str, pid: int, results: BinaryIO):
        self.name = name
        self.pid = pid
        self.results = results
        self._kill = weakref.finalize(self, _reap, pid, results, True)

    def wait(self) -> None:
        """Reap the worker, whose work has ended; a non-zero exit status is
        an AlgorithmFailure."""
        if self._kill.detach() is not None:
            status = _reap(self.pid, self.results, False)
            if status:
                raise AlgorithmFailure(f"the {self.name} worker exited with status {status}")

    def kill(self) -> None:
        """End the worker now and reap it, unless it is reaped already."""
        self._kill()


def start(name: str, work: Callable[[BinaryIO], None]) -> Optional[Worker]:
    """Fork the worker `name`, which runs work(results) on its end of the
    pipe; or None when the fork rule allows no worker, or the pipe or the
    fork fails."""
    global _alive, _in_worker
    if not _may_fork():
        return None
    fds: tuple[int, ...] = ()  # read end, write end
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT,))
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError:
        pid = -1
    if pid == 0:
        status = 1
        try:
            _in_worker = True
            os.close(fds[0])
            with open(fds[1], "wb") as results:
                work(results)
            status = 0
        finally:
            os._exit(status)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    for fd in fds if pid < 0 else fds[1:]:  # both ends, or the worker's
        os.close(fd)
    if pid < 0:
        return None
    _alive += 1
    return Worker(name, pid, open(fds[0], "rb"))
