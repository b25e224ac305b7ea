"""The per-test wall bound that ``conftest.py`` sets."""

import signal

import pytest

from conftest import TEST_WALL_S

needs_alarm = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="the bound is a no-op without SIGALRM"
)


@needs_alarm
def test_each_test_runs_under_the_bound():
    left, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= TEST_WALL_S and interval == 0


@needs_alarm
def test_an_expired_bound_fails_the_test():
    expired = signal.getsignal(signal.SIGALRM)
    with pytest.raises(pytest.fail.Exception, match=f"past its {TEST_WALL_S} s wall bound"):
        expired(signal.SIGALRM, None)
