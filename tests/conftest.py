"""Shared fixtures."""

import numpy as np
import pytest

import quadrature_engine
import window_quadrature
from triphoton.spectra import Tabulated


def _quadrature(density, delays):
    delays = np.asarray(delays, dtype=float)
    engine = (quadrature_engine.transform if isinstance(density, Tabulated)
              else window_quadrature.transform)
    return engine(density, delays.ravel()).reshape(delays.shape)[()]


@pytest.fixture(scope="session")
def quadrature():
    """The quadrature engine on any 1D density, shaped as ``transforms`` shapes
    its result (a 0-d delay gives a numpy complex scalar): the reference for
    the closed forms, over a table's knots (``quadrature_engine``) and over
    the analytic shapes' graded window (``window_quadrature``).
    Session-scoped, so hypothesis tests may take it."""
    return _quadrature
