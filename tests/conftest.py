"""The shared random-generator fixture; plain helpers live in helpers.py."""
import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
