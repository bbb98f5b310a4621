"""Shared fixtures."""

import numpy as np
import pytest

from triphoton import coherence


def _quadrature(density, delays):
    delays = np.asarray(delays, dtype=float)
    return coherence._transform_quadrature(density, delays.ravel()).reshape(delays.shape)[()]


@pytest.fixture(scope="session")
def quadrature():
    """The quadrature engine on any 1D density, shaped as ``transforms`` shapes
    its result (a 0-d delay gives a numpy complex scalar): the path a table
    takes, and on the analytic shapes the reference for their closed forms.
    Session-scoped, so hypothesis tests may take it."""
    return _quadrature
