"""Time-averaged triple-coincidence rate assembly.

The rate for a two-alternative setup is

    R = |c|^2 [ |K1|^2 + |K2|^2
                + 2 |K1||K2| g(dt) g'(dt', dt'') cos(arg) ]

with ``arg = phase + arg g + arg g'`` and ``phase = w_p0*dt + w0'*dt' +
w0''*dt'' + dphi``. That sign is a known defect: the oracle gives ``phase -
arg g - arg g'``, so an off-centre or asymmetric density whose mean sits at
``w_p0 + offset`` puts the fringes at ``w_p0 - offset``. For
equal alternative amplitudes the bracket reduces to C [1 + g g' cos], a
textbook visibility form, because the densities are unit-area.

One column core computes a block of rows at once, after rejecting an
overflowing carrier phase. It computes a factor that a sweep holds fixed once
per sweep (the sweep hands the core one dict of them from block to block), and
a swept one once per row, in row order, with any axis the sweep holds fixed once
per block; the entry points are its one-row views, equal to a sweep bit for bit.
They accept either a delay triple (seconds) or reduced lengths (meters);
the two agree exactly since the length form just divides by c.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import pathgeom
from .coherence import DelayTriple, _polar, joint_transforms, transforms
from .coherence import gamma_prime  # noqa: F401  (bench/spans.py traces rates.gamma_prime)
from .errors import CarrierPhaseOverflowError, _real, _store_reals
from .pathgeom import CentralFrequencies, ReducedParameters, SourceKind, carrier_omegas
from .spectra import JointSpectralDensity, SpectralDensity


@dataclass(frozen=True)
class SourceModel:
    """Source type plus its pump and phase-matching spectral model.

    The joint density is expressed in the choice-1 detuning coordinates;
    rates computed under the other third-order labelings map their delays
    back to these coordinates (an exact linear identity).
    """

    kind: SourceKind
    pump: SpectralDensity
    phase_matching: JointSpectralDensity
    centrals: CentralFrequencies

    @classmethod
    def cpdc(cls, pump, phase_matching, centrals) -> "SourceModel":
        return cls(SourceKind.CPDC, pump, phase_matching, centrals)

    @classmethod
    def topdc(cls, pump, phase_matching, centrals) -> "SourceModel":
        return cls(SourceKind.TOPDC, pump, phase_matching, centrals)

    def with_pump(self, pump: SpectralDensity) -> "SourceModel":
        return SourceModel(self.kind, pump, self.phase_matching, self.centrals)


@dataclass(frozen=True)
class AlternativeAmplitudes:
    """Magnitudes of the two alternatives' amplitudes and the common scale.

    ``c_mag_sq`` bundles detector efficiencies and transmission
    magnitudes; any phases of those coefficients belong in the setup's
    phase difference, not here.
    """

    k1_mag: float
    k2_mag: float
    c_mag_sq: float = 1.0

    def __post_init__(self):
        _store_reals(self, ("k1_mag", "k2_mag"), ">= 0")
        _store_reals(self, ("c_mag_sq",), "positive")
        k1, k2, c = self.k1_mag, self.k2_mag, self.c_mag_sq
        # the rate peaks at twice the baseline; x * x overflows to inf where x ** 2 raises
        if 2.0 * c * (k1 * k1 + k2 * k2) == math.inf:
            raise ValueError("the peak rate 2 * c_mag_sq * (k1_mag**2 + k2_mag**2) overflows")

    @classmethod
    def balanced(cls, total_scale: float = 1.0) -> "AlternativeAmplitudes":
        """Equal amplitudes normalized so the baseline rate equals ``total_scale``."""
        k = math.sqrt(_real("total_scale", total_scale, "positive") / 2.0)
        return cls(k1_mag=k, k2_mag=k, c_mag_sq=1.0)

    @property
    def baseline(self) -> float:
        return self.c_mag_sq * (self.k1_mag ** 2 + self.k2_mag ** 2)

    @property
    def amplitude_visibility(self) -> float:
        s = self.k1_mag ** 2 + self.k2_mag ** 2
        if s == 0.0:
            return 0.0
        return 2.0 * self.k1_mag * self.k2_mag / s


@dataclass(frozen=True)
class RateResult:
    """Coincidence rate with its interference ingredients exposed.

    ``rate == baseline * (1 + visibility_bound * cos(cosine_argument))``
    and ``visibility_bound`` already includes both coherence magnitudes.
    """

    rate: float
    gamma_mag: float
    gamma_prime_mag: float
    cosine_argument: float
    visibility_bound: float
    baseline: float


def rate_time(source: SourceModel, delays: DelayTriple, delta_phi: float,
              amps: AlternativeAmplitudes, *, choice: int = 1) -> RateResult:
    """Rate as a function of the three delays (s) and the phase difference.

    With equal amplitudes this is the C [1 + g g' cos(...)] form; unequal
    amplitudes give the general bracket with its 2|K1||K2| factor. An
    invalid labeling or an overflowing carrier phase is rejected before
    any coherence factor is computed.
    """
    columns = _rate_columns(source, [np.array([d]) for d in astuple(delays)],
                            delta_phi, amps, choice)
    return RateResult(*(float(c[0]) for c in columns), amps.baseline)


def _rate_columns(source: SourceModel, delays, delta_phi, amps, choice: int,
                  fixed: dict | None = None):
    """The :class:`RateResult` columns but the baseline at the delay columns
    ``(dt, dt', dt'')`` (s) and ``delta_phi``. ``fixed`` keeps the factors at
    fixed delays for the next call on this source (see :func:`_factor_columns`)."""
    carriers = carrier_omegas(source.centrals, source.kind, choice)
    phase = _carrier_phase(carriers, delays, delta_phi)
    u, v = pathgeom._native_pm_delays(source.kind, choice, delays[1], delays[2])
    g = _factor_columns(transforms, source.pump, delays[0], fixed=fixed)
    gp = _factor_columns(joint_transforms, source.phase_matching, u, v, fixed=fixed)
    rate, arg, vis = _assemble_rate(phase, *g, *gp, amps.amplitude_visibility,
                                    amps.baseline)
    return rate, g[0], gp[0], arg, vis


def _factor_columns(core, density, *columns: np.ndarray, fixed: dict | None = None):
    """``core`` at the one or two delay columns of a block of rows, in polar
    form per row. A column that holds one delay on every row of the block
    (``==``: +0.0 and -0.0 alike) is passed as its first row, which ``core``
    broadcasts against a swept one, so a fixed axis is transformed once per
    block. If every column is held, ``fixed`` keeps the first row's polar
    values by core and delays, so a caller that passes one dict to every
    block of a sweep computes a fixed factor once per sweep."""
    held = [c.size > 0 and not (c != c[0]).any() for c in columns]
    args = [c[:1] if h else c for c, h in zip(columns, held)]
    if not all(held):
        return _polar(core(density, *args))
    fixed = {} if fixed is None else fixed
    key = (core, *(float(c[0]) for c in columns))
    if key not in fixed:
        fixed[key] = [x[0] for x in _polar(core(density, *args))]
    return tuple(np.full(columns[0].size, x) for x in fixed[key])


def _carrier_phase(carriers: tuple[float, float, float], delays, delta_phi):
    """``w_p0*dt + w0'*dt' + w0''*dt'' + delta_phi`` per row, summed in that order;
    a row where it overflows raises :class:`CarrierPhaseOverflowError`."""
    (w_p0, w0_prime, w0_dprime), (dt, dt_prime, dt_dprime) = carriers, delays
    with np.errstate(over="ignore", invalid="ignore"):
        phase = w_p0 * dt + w0_prime * dt_prime + w0_dprime * dt_dprime + delta_phi
    bad = np.flatnonzero(~np.isfinite(phase))
    if bad.size:
        row = [float(np.ravel(x)[bad[0]]) for x in np.broadcast_arrays(*delays, delta_phi)]
        raise CarrierPhaseOverflowError(
            "the carrier phase overflows at delta_tau = {!r}, delta_tau_prime = {!r}, "
            "delta_tau_dprime = {!r} s, delta_phi = {!r} rad".format(*row))
    return phase


def _assemble_rate(phase, g_mag, g_phase, gp_mag, gp_phase,
                   amplitude_visibility: float, baseline: float):
    """``(rate, cosine_argument, visibility_bound)`` from the carrier phase, the
    coherence factors in polar form and the setup's constants, elementwise."""
    arg = phase + g_phase + gp_phase
    vis = amplitude_visibility * g_mag * gp_mag
    rate = baseline * (1.0 + vis * np.cos(arg))
    return rate, arg, vis


def rate_length(source: SourceModel, lengths: ReducedParameters,
                amps: AlternativeAmplitudes) -> RateResult:
    """Rate as a function of reduced lengths (m); phase comes from ``lengths``.

    Delegates to :func:`rate_time` after dividing the lengths by c, so the
    two entry points agree exactly for consistent inputs. The third-order
    labeling recorded in ``lengths.topdc_choice`` is honored.
    """
    delays = DelayTriple.from_lengths(lengths.delta_l, lengths.delta_l_prime,
                                      lengths.delta_l_dprime)
    return rate_time(source, delays, lengths.delta_phi, amps, choice=lengths.topdc_choice)
