"""Shared fixtures: the random generator, and a check that no test leaves a
thread running; plain helpers live in helpers.py."""
import threading

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread alive that was not there before it
    ran, such as the management thread of a process pool that was never shut down."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"
