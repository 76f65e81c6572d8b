"""A time limit on every test phase, so a test that loops fails instead of
hanging the suite.

Each phase of a test (setup, call, teardown) runs under a real-time
interval timer; when it expires, SIGALRM stops the worker processes the test
started and fails the phase, and it fires again each period until the phase
ends.  The limit applies on POSIX in the main thread and is skipped where
there is no SIGALRM.
"""

import contextlib
import multiprocessing
import signal
import threading

import pytest

# Seconds per phase: the slowest phases, criterion 1's fixture and the slow
# test, take about 21 and 23 s on a 2-vCPU host, so this leaves a wide margin
# for a loaded machine.
PHASE_TIME_LIMIT = 180


def _expired(signum, frame):
    # a process pool waits for its busy workers when it shuts down, so a
    # worker that loops would hang the phase after it failed
    for child in multiprocessing.active_children():
        child.terminate()
    pytest.fail(f"test phase ran longer than {PHASE_TIME_LIMIT} s", pytrace=False)


@contextlib.contextmanager
def _time_limit():
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, PHASE_TIME_LIMIT, PHASE_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with _time_limit():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _time_limit():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    with _time_limit():
        yield
