import signal
import time
from contextlib import contextmanager

import pytest

from supercong.registry import load_registry

# Each test fails once it has run this long, so that a hang fails the suite
# instead of stalling it.  The slowest test takes about a minute.
TEST_WALL_CLOCK_LIMIT_S = 600


class WallClockExceeded(BaseException):
    """A test ran past its wall-clock limit.  It is not an ``Exception``, so
    hypothesis does not shrink on it: the test fails at once."""


@contextmanager
def wall_clock_limit(seconds: float):
    """Raise WallClockExceeded in the main thread once ``seconds`` of wall
    time have passed inside the block, by SIGALRM.  An enclosing limit is
    re-armed with what is left of it on exit.  Where the platform has no
    ``setitimer`` the block runs unguarded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise WallClockExceeded(f"wall-clock limit of {seconds} s exceeded")

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-3))


@pytest.fixture(autouse=True)
def _wall_clock_guard():
    with wall_clock_limit(TEST_WALL_CLOCK_LIMIT_S):
        yield


@pytest.fixture
def time_limit():
    """The guard itself, for a test of it."""
    return wall_clock_limit


@pytest.fixture(scope="session")
def registry():
    return load_registry()
