"""Shared fixtures: mpmath at 50 digits for the tests of rounding allowances."""

import pytest


@pytest.fixture
def mp50():
    """The mpmath module, working at 50 digits for the test's duration only;
    the test skips where mpmath is not installed."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        yield mp


@pytest.fixture
def h50(mp50):
    """Binary entropy at 50 digits, 0 outside (0, 1)."""

    def h(x):
        x = mp50.mpf(x)
        return -x * mp50.log(x, 2) - (1 - x) * mp50.log(1 - x, 2) if 0 < x < 1 else mp50.mpf(0)

    return h
