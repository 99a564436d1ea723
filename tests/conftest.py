import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Wall-clock limit per test, so a hang fails its test instead of stalling the
# suite: the largest time budget in test_acceptance.py, which none outgrows.
TEST_TIME_LIMIT_S = 600


def _over_limit(signum, frame):
    pytest.fail(f"over the {TEST_TIME_LIMIT_S} s per-test time limit")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _over_limit)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
