import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from sepselect import forkmap  # noqa: E402


@pytest.fixture
def pin_workers(monkeypatch):
    """pin(count) makes forkmap.run_tasks use count workers, whatever the
    CPUs and the task count."""
    return lambda count: monkeypatch.setattr(forkmap, "_worker_count", lambda task_count: count)


@pytest.fixture
def bounded_and_no_child_left():
    """Fails a test that takes more than 120 s or leaves a child process,
    running or zombie."""

    def hung(signum, frame):
        raise TimeoutError("the worker processes took more than 120 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)  # forked children do not inherit the alarm
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):  # no child, running or zombie
        os.waitpid(-1, os.WNOHANG)
