"""One home for the phasor: every cosine and sine in ``coherence`` comes from
``_cos_sin``, rational functions of one vectorized ``tan`` of the half angle,
which must stay within 4.4e-16 of libm's and keep cos even and sin odd bit
for bit."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton import coherence
from triphoton.coherence import _cos_sin
from enclosing import enclosing_functions

HOME = "_cos_sin"

_angles = st.one_of(
    st.floats(-1.7e308, 1.7e308, allow_nan=False),
    st.floats(-1e-300, 1e-300),  # tiny and subnormal
    st.floats(-40.0, 40.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308,
                     6381956970095103 * 2.0 ** 797]),  # the double nearest a multiple of pi/2
)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


class TestCosSin:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_angles, min_size=1, max_size=20))
    def test_matches_libm_within_two_ulps_of_one(self, angles):
        theta = np.array(angles)
        c, s = _cos_sin(theta)
        assert np.abs(c - np.cos(theta)).max() <= 4.4e-16
        assert np.abs(s - np.sin(theta)).max() <= 4.4e-16
        assert _bits(theta) == _bits(angles)  # the argument is left as it was

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_angles, min_size=1, max_size=20))
    def test_cos_even_and_sin_odd_bit_for_bit(self, angles):
        theta = np.array(angles)
        c, s = _cos_sin(theta)
        c_neg, s_neg = _cos_sin(-theta)
        assert _bits(c_neg) == _bits(c)
        assert _bits(s_neg) == _bits(-s)

    def test_signed_zeros(self):
        c, s = _cos_sin(np.array([0.0, -0.0]))
        assert _bits(c) == _bits([1.0, 1.0])
        assert _bits(s) == _bits([0.0, -0.0])


def _trig_callers(source: str) -> list[str]:
    """The name of the function around each use of numpy's ``sin`` or ``cos``
    in ``source`` (``"<module>"`` outside any function)."""
    return enclosing_functions(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr in ("sin", "cos")
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")))


@pytest.mark.parametrize("source, found", [
    ("def f(x):\n    return np.cos(x)", ["f"]),
    ("def f(x):\n    return numpy.sin(x), np.sin(-x)", ["f", "f"]),
    ("class C:\n    def g(self, x):\n        return np.sin(x)", ["g"]),
    ("def f(x):\n    trig = np.cos\n    return trig(x)", ["f"]),
    ("y = np.sin(0.5)", ["<module>"]),
    ("def f(x):\n    return math.sin(x), np.tan(x), np.exp(1j * x), cmath.cos(x)", []),
])
def test_the_guard_finds_what_it_forbids(source, found):
    assert _trig_callers(source) == found


def test_only_the_phasor_helper_calls_numpy_sin_or_cos():
    source = Path(coherence.__file__).read_text(encoding="utf-8")
    assert callable(getattr(coherence, HOME))
    assert [f for f in _trig_callers(source) if f != HOME] == []
