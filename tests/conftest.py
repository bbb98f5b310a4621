"""Shared fixtures."""

import numpy as np
import pytest

import window_quadrature
from triphoton import coherence
from triphoton.spectra import Tabulated


def _quadrature(density, delays):
    delays = np.asarray(delays, dtype=float)
    engine = (coherence._transform_quadrature if isinstance(density, Tabulated)
              else window_quadrature.transform)
    return engine(density, delays.ravel()).reshape(delays.shape)[()]


@pytest.fixture(scope="session")
def quadrature():
    """The quadrature engine on any 1D density, shaped as ``transforms`` shapes
    its result (a 0-d delay gives a numpy complex scalar): the library's path
    for a table, and on the analytic shapes the graded-window reference for
    their closed forms (``window_quadrature``). Session-scoped, so hypothesis
    tests may take it."""
    return _quadrature
