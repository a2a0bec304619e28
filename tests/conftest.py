"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# One profile for every property test: no per-example deadline, because a
# shared 2-core host can stall any example past hypothesis's 200 ms default,
# and a reproduction blob printed with each failure.
settings.register_profile("randldl", deadline=None, print_blob=True)
settings.load_profile("randldl")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(12345))
