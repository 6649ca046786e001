"""Ordered fork map: independent zero-argument tasks run on one process per
usable CPU, and each task's outcome comes back to the caller, who settles
it where a serial loop would have run the task.

Workers: one per usable CPU (os.sched_getaffinity), at most one per task.
Task t runs in worker t mod workers; worker 0 is the calling process and
the others are forked children (os.fork). A child sends each outcome of
its share back through a pipe, pickled, as soon as the task ends. Where
the platform has no os.fork or no os.sched_getaffinity, or one CPU is
usable, every task runs in the calling process. A share runs its tasks
in order and stops at its first error.

Outcomes: (warnings, error, value), the task's warnings recorded as
(message, category, filename, lineno), the exception it raised or None,
and its return value. settle() issues the warnings again, then raises
the error or returns the value; settled in task order, outputs, warnings
and errors do not depend on the worker count. A child that dies gives
the task it died in a RuntimeError naming the task and the exit status.
An outcome larger than the pipe's buffer holds its child until the
calling process has run its own share and reads it. Every child is
reaped before run_tasks returns or raises. multiprocessing and
concurrent.futures are not imported: either would add 20-85 ms to every
run's start-up.
"""

import os
import pickle
import signal
import sys
import warnings


def _worker_count(task_count):
    """Processes the tasks run on: the usable CPUs, at most one per task;
    1 where the platform cannot fork or report the CPUs usable."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), task_count)


def _run_share(tasks, share):
    """(task, outcome) for the tasks of share, run in order; the share stops
    at its first error, as no later task's outcome is settled after it."""
    for t in share:
        value = error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = tasks[t]()
            except Exception as exc:  # raised again by settle, in task order
                error = exc
        yield t, ([(w.message, w.category, w.filename, w.lineno) for w in caught], error, value)
        if error is not None:
            return


def _child(write_fd, tasks, share):
    """Body of a forked worker: send each (task, outcome) of the share,
    pickled, through write_fd as soon as it is known, and exit without
    returning; status 0 only once all is sent."""
    status = 1
    try:
        with open(write_fd, "wb") as pipe:
            for record in _run_share(tasks, share):
                pipe.write(pickle.dumps(record))  # whole, or nothing if it fails
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _received(pipe):
    """The (task, outcome) records read from a child's pipe, up to its end
    or to a record that the child's death cut short."""
    while True:
        try:
            yield pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return


def run_tasks(tasks, labels):
    """The outcome of every task, in task order, over _worker_count
    processes (see the module docstring). labels[t] names task t in the
    error of a child that dies in it. A task after its share's first error
    has no outcome (None); settling in task order raises before it."""
    workers = _worker_count(len(tasks))
    shares = [range(w, len(tasks), workers) for w in range(workers)]
    outcomes = {}  # task -> outcome
    children = []  # (pid, read end of its pipe, its share)
    exit_codes = {}  # pid -> exit code, once reaped
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child(write_fd, tasks, share)
            os.close(write_fd)
            children.append((pid, read_fd, share))
        outcomes.update(_run_share(tasks, shares[0]))
        for pid, read_fd, share in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                outcomes.update(_received(pipe))
            exit_codes[pid] = code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            missing = [t for t in share if t not in outcomes]
            if code != 0 and missing:  # it died in missing[0]
                died = f"the worker process of {labels[missing[0]]} exited with status {code}"
                outcomes[missing[0]] = ([], RuntimeError(f"{died} without a result"), None)
    finally:
        for pid, read_fd, _ in children:
            os.close(read_fd)
            if pid not in exit_codes:  # leaving on an error or an interrupt
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [outcomes.get(t) for t in range(len(tasks))]


def _replay_warning(message, category, filename, lineno):
    """Issue a recorded warning again as warnings.warn issued it: same
    location, module and per-module registry, so a filter that shows a
    warning once per location still does."""
    module = next(
        (m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename), None
    )
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        registry = vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno, module.__name__, registry)


def settle(outcome):
    """Issue an outcome's warnings again, then raise its error or return its
    value."""
    caught, error, value = outcome
    for record in caught:
        _replay_warning(*record)
    if error is not None:
        raise error
    return value
