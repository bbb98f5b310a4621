"""The one rule for a real-valued field, ``errors._real``, and the record
fields and entry points that apply it: an int beyond int64 is stored as its
float, an int too large for a float and a non-finite or out-of-bound value
each fail with one ValueError line that names the field, and a string is a
TypeError. ``ReducedParameters`` and the ``DelayTriple`` constructor have
their own tests of the rule in ``test_pathgeom.py`` and ``test_coherence.py``."""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from triphoton.coherence import DelayTriple
from triphoton.errors import _real, _store_reals
from triphoton.experiments import SweepSpec, SweepVariable
from triphoton.oracle import LinearShift, OracleConfig
from triphoton.pathgeom import CentralFrequencies, PathConfiguration, ReducedParameters
from triphoton.rates import AlternativeAmplitudes, SourceModel
from triphoton.spectra import Gaussian, Lorentzian, Separable, SincSquared, Tabulated


def _table(offset=0.0):
    # knots 1e6 apart stay apart at an offset near 1e20
    return Tabulated([-1e6, 0.0, 1e6], [0.0, 1.0, 0.0], center_offset=offset)


def _sweep(start, stop):
    source = SourceModel.cpdc(Gaussian(1e12), Separable(Gaussian(2e12), Gaussian(3e12)),
                              CentralFrequencies(2.4e15, 1.2e15, 1.2e15))
    return SweepSpec(SweepVariable.DELTA_PHI, start, stop, 9, ReducedParameters(0, 0, 0, 0),
                     source, AlternativeAmplitudes.balanced())


# (id, build from one value, the field the message names, its bound, the
# stored float the value becomes, read from what was built)
SITES = [
    ("PathConfiguration.length", lambda v: PathConfiguration(l_b2=v), "l_b2", ">= 0",
     lambda p: p.l_b2),
    ("PathConfiguration.phase", lambda v: PathConfiguration(phi_c1=v), "phi_c1", "",
     lambda p: p.phi_c1),
    ("CentralFrequencies", lambda v: CentralFrequencies(1e15, 1e15, v), "omega_c0",
     "positive", lambda c: c.omega_c0),
    ("from_wavelengths_nm", lambda v: CentralFrequencies.from_wavelengths_nm(810, v, 810),
     "lambda_b_nm", "positive", lambda c: c.omega_b0),
    ("DelayTriple.from_lengths", lambda v: DelayTriple.from_lengths(0, v, 0),
     "delta_l_prime", "", lambda d: d.delta_tau_prime),
    ("Gaussian.sigma", lambda v: Gaussian(v), "sigma", "positive", lambda g: g.sigma),
    ("Gaussian.center_offset", lambda v: Gaussian(1.0, v), "center_offset", "",
     lambda g: g.center_offset),
    ("Lorentzian.gamma", lambda v: Lorentzian(v), "gamma", "positive", lambda g: g.gamma),
    ("Lorentzian.center_offset", lambda v: Lorentzian(1.0, v), "center_offset", "",
     lambda g: g.center_offset),
    ("SincSquared.width", lambda v: SincSquared(v), "width", "positive", lambda s: s.width),
    ("SincSquared.center_offset", lambda v: SincSquared(1.0, v), "center_offset", "",
     lambda s: s.center_offset),
    ("Tabulated.center_offset", _table, "center_offset", "", lambda t: t.support()[0]),
    ("_AnalyticShape.with_width_scaled", lambda v: Lorentzian(1.0).with_width_scaled(v),
     "factor", "positive", lambda g: g.gamma),
    ("Tabulated.with_width_scaled", lambda v: _table().with_width_scaled(v), "factor",
     "positive", lambda t: t.support()[1]),
    ("AlternativeAmplitudes.k1_mag", lambda v: AlternativeAmplitudes(v, 1.0), "k1_mag",
     ">= 0", lambda a: a.k1_mag),
    ("AlternativeAmplitudes.k2_mag", lambda v: AlternativeAmplitudes(1.0, v), "k2_mag",
     ">= 0", lambda a: a.k2_mag),
    ("AlternativeAmplitudes.c_mag_sq", lambda v: AlternativeAmplitudes(1.0, 1.0, v),
     "c_mag_sq", "positive", lambda a: a.c_mag_sq),
    ("AlternativeAmplitudes.balanced", AlternativeAmplitudes.balanced, "total_scale",
     "positive", lambda a: a.k1_mag),
    ("LinearShift", LinearShift, "slope", "", lambda s: s.slope),
    ("OracleConfig", lambda v: OracleConfig(support_multiplier=v), "support_multiplier",
     "", lambda c: c.support_multiplier),
    ("SweepSpec.start", lambda v: _sweep(v, 1e21), "start", "", lambda s: s.start),
    ("SweepSpec.stop", lambda v: _sweep(-1e21, v), "stop", "", lambda s: s.stop),
]
_PARAMS = [pytest.param(*site, id=site[0]) for site in SITES]


@pytest.mark.parametrize("site, build, field, bound, read", _PARAMS)
@pytest.mark.parametrize("big", [2 ** 63, -(10 ** 20)], ids=["2**63", "-10**20"])
def test_an_int_beyond_int64_is_stored_as_its_float(site, build, field, bound, read, big):
    if big < 0 and bound:
        message = f"{field} must be finite and {bound}, got -1e+20"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(big)
        return
    if big < 0 and site == "OracleConfig":
        with pytest.raises(ValueError, match="^support_multiplier must be at least 4$"):
            build(big)
        return
    stored = read(build(big))
    assert type(stored) is float and stored == read(build(float(big)))


@pytest.mark.parametrize("site, build, field, bound, read", _PARAMS)
def test_a_bad_value_is_named_in_one_line(site, build, field, bound, read):
    # an int too large for a float once ended in a bare OverflowError
    for huge in (10 ** 400, -(10 ** 400)):
        with pytest.raises(ValueError, match=f"^{field} is too large for a float$"):
            build(huge)
    rule = f"must be finite and {bound}" if bound else "must be finite"
    for bad in (math.inf, -math.inf, math.nan, np.float64(np.nan)):
        message = f"{field} {rule}, got {float(bad)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(bad)
    with pytest.raises(TypeError):  # a number's text is not a number
        build("1.5")


def test_real_has_three_message_forms():
    with pytest.raises(ValueError, match=r"^x is too large for a float$"):
        _real("x", 10 ** 400)
    with pytest.raises(ValueError, match=r"^x must be finite, got nan$"):
        _real("x", math.nan)
    with pytest.raises(ValueError, match=r"^x must be finite and >= 0, got -1\.0$"):
        _real("x", -1, ">= 0")
    with pytest.raises(ValueError, match=r"^x must be finite and positive, got 0\.0$"):
        _real("x", 0, "positive")
    for v in (0, -0.0, 2 ** 63, np.int64(7), np.float32(0.1), Fraction(1, 3), True):
        assert type(_real("x", v)) is float and _real("x", v) == float(v)
    assert _real("x", 0, ">= 0") == 0.0 and _real("x", 5e-324, "positive") == 5e-324
    with pytest.raises(TypeError):
        _real("x", "1")


def test_store_reals_stores_each_named_field():
    @dataclass(frozen=True)
    class Record:
        a: float
        b: float
        n: int = 3

        def __post_init__(self):
            _store_reals(self, ("a", "b"), ">= 0")

    r = Record(2 ** 63, Fraction(1, 4))
    assert (r.a, r.b, r.n) == (2.0 ** 63, 0.25, 3)
    assert type(r.a) is float and type(r.b) is float and type(r.n) is int
    with pytest.raises(ValueError, match=r"^b must be finite and >= 0, got -1\.0$"):
        Record(0, -1)
