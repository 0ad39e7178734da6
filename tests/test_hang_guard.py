"""The stand-in hang guard of ``tests/conftest.py`` (used without pytest-timeout)."""

from __future__ import annotations

import importlib.util
import signal
import time

import pytest

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("pytest_timeout") is not None,
    reason="pytest-timeout is installed and provides the guard itself",
)


def test_ini_key_arms_the_default_guard(request):
    assert float(request.config.getini("timeout")) == 60.0
    assert 1.0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 60.0


@pytest.mark.timeout(0.2)
def test_stalled_test_fails_instead_of_hanging():
    started = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="hang guard"):
        time.sleep(30)  # stands in for a blocking recv on a stalled node
    assert time.monotonic() - started < 5
