"""Suite-wide hypothesis settings: every property test is deterministic.
And no test may leave a child process behind: a job that forks a draw
worker reaps it however the job ends."""

import os

import pytest
from hypothesis import settings

settings.register_profile("provrun", derandomize=True, database=None, deadline=None)
settings.load_profile("provrun")


@pytest.fixture(autouse=True)
def no_child_is_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child, running or exited
        return
    pytest.fail(f"the test left a child process: {'running' if pid == 0 else pid}")
