"""Time-averaged triple-coincidence rate assembly.

The rate for a two-alternative setup is

    R = |c|^2 [ |K1|^2 + |K2|^2
                + 2 |K1||K2| g(dt) g'(dt', dt'') cos(arg) ]

with ``arg = w_p0*dt + w0'*dt' + w0''*dt'' + dphi`` plus any phases the
coherence factors carry (nonzero only for asymmetric densities). For
equal alternative amplitudes the bracket reduces to C [1 + g g' cos], a
textbook visibility form, because the densities are unit-area.

Entry points accept either a delay triple (seconds) or reduced lengths
(meters); the two agree exactly since the length form just divides by c.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .coherence import DelayTriple, gamma_pump, gamma_prime
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
        if not (self.k1_mag >= 0 and self.k2_mag >= 0):
            raise ValueError("amplitude magnitudes must be nonnegative")
        if not self.c_mag_sq > 0:
            raise ValueError("c_mag_sq must be positive")

    @classmethod
    def balanced(cls, total_scale: float = 1.0) -> "AlternativeAmplitudes":
        """Equal amplitudes normalized so the baseline rate equals ``total_scale``."""
        if not total_scale > 0:
            raise ValueError("total_scale must be positive")
        k = math.sqrt(total_scale / 2.0)
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


def _native_pm_delays(kind: SourceKind, choice: int,
                      dt_prime: float, dt_dprime: float) -> tuple[float, float]:
    """Map choice-n asymmetry delays to the joint density's native coordinates.

    The three third-order labelings are linear reshuffles of the same
    detuning plane; expressing the transform of the one stored density in
    each labeling is equivalent to evaluating the choice-1 transform at
    these remapped delays.
    """
    if kind is SourceKind.CPDC or choice == 1:
        return dt_prime, dt_dprime
    if choice == 2:
        return -dt_prime, dt_dprime - dt_prime
    if choice == 3:
        return dt_prime - dt_dprime, -dt_dprime
    raise ValueError("choice must be 1, 2 or 3")


def rate_time(source: SourceModel, delays: DelayTriple, delta_phi: float,
              amps: AlternativeAmplitudes, *, choice: int = 1,
              method: str = "auto") -> RateResult:
    """Rate as a function of the three delays (s) and the phase difference.

    With equal amplitudes this is the C [1 + g g' cos(...)] form; unequal
    amplitudes give the general bracket with its 2|K1||K2| factor. An
    invalid labeling is rejected before any coherence factor is computed.
    """
    carriers = carrier_omegas(source.centrals, source.kind, choice)
    g = gamma_pump(source.pump, delays.delta_tau, method=method)
    u, v = _native_pm_delays(source.kind, choice,
                             delays.delta_tau_prime, delays.delta_tau_dprime)
    gp = gamma_prime(source.phase_matching, u, v, method=method)
    rate, arg, vis = _assemble_rate(astuple(delays), delta_phi, g.magnitude, g.phase,
                                    gp.magnitude, gp.phase, carriers,
                                    amps.amplitude_visibility, amps.baseline)
    return RateResult(float(rate), g.magnitude, gp.magnitude, float(arg),
                      float(vis), float(amps.baseline))


def _assemble_rate(delays, delta_phi, g_mag, g_phase, gp_mag, gp_phase,
                   carriers: tuple[float, float, float],
                   amplitude_visibility: float, baseline: float):
    """``(rate, cosine_argument, visibility_bound)`` from the delay triple,
    the coherence factors in polar form and the setup's constants.
    Elementwise: a sweep passes numpy columns and :func:`rate_time` one row
    of floats, and both get the same operations in the same order."""
    w_p0, w0_prime, w0_dprime = carriers
    dt, dt_prime, dt_dprime = delays
    arg = (w_p0 * dt + w0_prime * dt_prime + w0_dprime * dt_dprime
           + delta_phi + g_phase + gp_phase)
    vis = amplitude_visibility * g_mag * gp_mag
    rate = baseline * (1.0 + vis * np.cos(arg))
    return rate, arg, vis


def rate_length(source: SourceModel, lengths: ReducedParameters,
                amps: AlternativeAmplitudes, *, method: str = "auto") -> RateResult:
    """Rate as a function of reduced lengths (m); phase comes from ``lengths``.

    Delegates to :func:`rate_time` after dividing the lengths by c, so the
    two entry points agree exactly for consistent inputs. The third-order
    labeling recorded in ``lengths.topdc_choice`` is honored.
    """
    delays = DelayTriple.from_lengths(lengths.delta_l, lengths.delta_l_prime,
                                      lengths.delta_l_dprime)
    return rate_time(source, delays, lengths.delta_phi, amps,
                     choice=lengths.topdc_choice, method=method)
