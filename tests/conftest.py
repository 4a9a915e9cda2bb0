"""A time cap on each test, from the standard library: a test that hangs fails
with ``TimeoutError`` instead of stalling the run. The slowest test takes about
11 s, so the cap is far above any passing test."""

from __future__ import annotations

import signal

import pytest

CAP_SECONDS = 120


def _expire(signum, frame):
    raise TimeoutError(f"the test ran over its {CAP_SECONDS} s cap")


@pytest.fixture(autouse=True)
def _time_cap():
    if not hasattr(signal, "SIGALRM"):  # no alarm on Windows: run uncapped
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(CAP_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
