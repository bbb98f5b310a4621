"""Two-alternative setup geometry and its reduction to three length parameters.

A generic two-alternative triple-coincidence setup is described by eight
optical path lengths and eight non-dynamical phases (one per photon per
alternative, plus the pump arm of each alternative). Interference depends
only on three length differences and one phase difference; this module
performs that reduction for both source types and exposes the carrier
frequency/wave-number combinations that multiply each reduced length in
the interference cosine.

For the third-order source there are three equivalent parameterizations,
the labelings of :data:`_TOPDC_LABELS`. They produce different individual
(delta_l_prime, delta_l_dprime) pairs but the same total cosine argument
and, with the matching coordinate mapping :func:`_native_pm_delays`, the
same coincidence rate.

A source's ``pm1`` and ``pm2`` densities are functions of the detunings
of the frequencies conjugate to the asymmetry delays: for the cascaded
source ``omega'`` and ``omega''`` of :func:`cpdc_freq_transform`; for the
third-order source ``nu' = (2/3) omega'`` and ``nu'' = (2/3) omega''``
(``omega'``, ``omega''`` of :func:`topdc_freq_transform`). These are
conjugate to choice 1's delays and centred on its :func:`carrier_omegas`;
choices 2 and 3 map their delays onto them, so the widths mean the same
under every choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .constants import SPEED_OF_LIGHT


class SourceKind(Enum):
    CPDC = "cpdc"
    TOPDC = "topdc"


_LENGTH_FIELDS = ("l_a1", "l_b1", "l_c1", "l_p1", "l_a2", "l_b2", "l_c2", "l_p2")
_PHASE_FIELDS = ("phi_a1", "phi_b1", "phi_c1", "phi_p1",
                 "phi_a2", "phi_b2", "phi_c2", "phi_p2")

_TOPDC_LABELS = {1: "abc", 2: "bac", 3: "cba"}
"""Each third-order labeling choice's (reference, prime, double-prime) photons.
Choice 2 swaps photons a and b of choice 1 and choice 3 swaps a and c: they are
transpositions, not cyclic relabelings."""


def _topdc_photons(choice: int) -> str:
    """The (reference, prime, double-prime) photons of a labeling ``choice``."""
    if choice not in _TOPDC_LABELS:
        raise ValueError("choice must be 1, 2 or 3")
    return _TOPDC_LABELS[choice]


@dataclass(frozen=True)
class PathConfiguration:
    """Eight optical path lengths (m) and eight non-dynamical phases (rad).

    Phases are stored unwrapped; they only ever enter through a cosine.
    """

    l_a1: float = 0.0
    l_b1: float = 0.0
    l_c1: float = 0.0
    l_p1: float = 0.0
    l_a2: float = 0.0
    l_b2: float = 0.0
    l_c2: float = 0.0
    l_p2: float = 0.0
    phi_a1: float = 0.0
    phi_b1: float = 0.0
    phi_c1: float = 0.0
    phi_p1: float = 0.0
    phi_a2: float = 0.0
    phi_b2: float = 0.0
    phi_c2: float = 0.0
    phi_p2: float = 0.0

    def __post_init__(self):
        for name in _LENGTH_FIELDS:
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        for name in _PHASE_FIELDS:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")

    @property
    def delta_phi(self) -> float:
        return ((self.phi_a1 + self.phi_b1 + self.phi_c1 + self.phi_p1)
                - (self.phi_a2 + self.phi_b2 + self.phi_c2 + self.phi_p2))


@dataclass(frozen=True)
class ReducedParameters:
    """Three length differences (m) and one phase difference (rad).

    ``topdc_choice`` records which of the three equivalent third-order
    parameterizations produced the lengths (always 1 for CPDC); the
    carrier wave numbers that multiply the lengths come from
    :func:`carrier_wavenumbers`.
    """

    delta_l: float
    delta_l_prime: float
    delta_l_dprime: float
    delta_phi: float = 0.0
    topdc_choice: int = 1

    def __post_init__(self):
        if self.topdc_choice not in _TOPDC_LABELS:
            raise ValueError("topdc_choice must be 1, 2 or 3")
        for name in ("delta_l", "delta_l_prime", "delta_l_dprime", "delta_phi"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class CentralFrequencies:
    """Central angular frequencies of the three photons (rad/s)."""

    omega_a0: float
    omega_b0: float
    omega_c0: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{f.name} must be finite and positive")

    @property
    def omega_p0(self) -> float:
        return self.omega_a0 + self.omega_b0 + self.omega_c0

    @classmethod
    def from_wavelengths_nm(cls, lambda_a_nm, lambda_b_nm, lambda_c_nm):
        def w(lam):
            if not lam > 0:
                raise ValueError("wavelengths must be positive")
            return 2.0 * math.pi * SPEED_OF_LIGHT / (lam * 1e-9)
        return cls(w(lambda_a_nm), w(lambda_b_nm), w(lambda_c_nm))


def reduce_cpdc(p: PathConfiguration) -> ReducedParameters:
    """Reduce a cascaded-source geometry to its three length parameters.

    The weights (1/2 on the photon-a arm, 1/4 on the b and c arms, 1 on
    the pump arm) reflect how each arm's delay enters the collective,
    asymmetry-prime and asymmetry-double-prime time coordinates.
    """
    dl = ((p.l_a1 / 2 + (p.l_b1 + p.l_c1) / 4 + p.l_p1)
          - (p.l_a2 / 2 + (p.l_b2 + p.l_c2) / 4 + p.l_p2))
    dlp = ((p.l_a1 / 2 - (p.l_b1 + p.l_c1) / 4)
           - (p.l_a2 / 2 - (p.l_b2 + p.l_c2) / 4))
    dldp = (p.l_b1 - p.l_c1) / 2 - (p.l_b2 - p.l_c2) / 2
    return ReducedParameters(dl, dlp, dldp, p.delta_phi)


def reduce_topdc(p: PathConfiguration, choice: int = 1) -> ReducedParameters:
    """Reduce a third-order-source geometry; ``choice`` picks the labeling.

    dL' and dL'' are the reference photon's arm difference less the prime and
    the double-prime photon's (choice 1: a-b and a-c; see :data:`_TOPDC_LABELS`).
    dL and dphi are identical across choices.
    """
    r, s, t = _topdc_photons(choice)
    l1 = {"a": p.l_a1, "b": p.l_b1, "c": p.l_c1}
    l2 = {"a": p.l_a2, "b": p.l_b2, "c": p.l_c2}
    dl = ((p.l_a1 + p.l_b1 + p.l_c1) / 3 + p.l_p1) \
        - ((p.l_a2 + p.l_b2 + p.l_c2) / 3 + p.l_p2)
    return ReducedParameters(dl, (l1[r] - l1[s]) - (l2[r] - l2[s]),
                             (l1[r] - l1[t]) - (l2[r] - l2[t]), p.delta_phi,
                             topdc_choice=choice)


def carrier_omegas(f: CentralFrequencies, source: SourceKind,
                   choice: int = 1) -> tuple[float, float, float]:
    """Central-frequency combinations (rad/s) multiplying the three delays.

    These are the exact central values of the collective frequency
    coordinates conjugate to the reduced delays, so the total cosine
    argument is independent of the third-order labeling choice.
    """
    wa, wb, wc = f.omega_a0, f.omega_b0, f.omega_c0
    wp = f.omega_p0
    if source is SourceKind.CPDC:
        if choice != 1:
            raise ValueError("CPDC has a single parameterization (choice 1)")
        return (wp, wa - wb - wc, wb - wc)
    omega = {"a": wa, "b": wb, "c": wc}
    wr, ws, wt = (omega[x] for x in _topdc_photons(choice))
    return (wp, (wr + wt - 2 * ws) / 3, (wr + ws - 2 * wt) / 3)


def _native_pm_delays(kind: SourceKind, choice: int, dt_prime, dt_dprime):
    """Choice-n asymmetry delays in the joint density's native (choice-1)
    coordinates, an exact linear identity (``carrier_omegas`` has rejected any
    other choice): photon a's lead over b and over c, from each photon's delay
    behind the reference. The reference has no term, so signed zeros keep their bits.
    """
    if kind is SourceKind.CPDC:
        return dt_prime, dt_dprime
    behind = dict(zip(_TOPDC_LABELS[choice][1:], (dt_prime, dt_dprime)))
    if "a" not in behind:  # photon a is the reference
        return dt_prime, dt_dprime
    return tuple(behind[x] - behind["a"] if x in behind else -behind["a"] for x in "bc")


def carrier_wavenumbers(f: CentralFrequencies, source: SourceKind,
                        choice: int = 1) -> tuple[float, float, float]:
    """Vacuum wave-number combinations (rad/m): carrier omegas over c."""
    wp, w1, w2 = carrier_omegas(f, source, choice)
    c = SPEED_OF_LIGHT
    return (wp / c, w1 / c, w2 / c)


def cpdc_freq_transform(omega_p, omega_prime, omega_dprime):
    """Collective (pump, prime, double-prime) to photon (a, b, c) frequencies."""
    omega_a = omega_p / 2 + omega_prime / 2
    omega_b = omega_p / 4 - omega_prime / 4 + omega_dprime / 2
    omega_c = omega_p / 4 - omega_prime / 4 - omega_dprime / 2
    return omega_a, omega_b, omega_c


def cpdc_freq_inverse(omega_a, omega_b, omega_c):
    """Inverse of :func:`cpdc_freq_transform`."""
    return (omega_a + omega_b + omega_c,
            omega_a - omega_b - omega_c,
            omega_b - omega_c)


def topdc_freq_transform(omega_p, omega_prime, omega_dprime):
    """Collective to photon frequencies for the third-order source."""
    omega_a = omega_p / 3 + 2 * omega_prime / 3 + 2 * omega_dprime / 3
    omega_b = omega_p / 3 - 2 * omega_prime / 3
    omega_c = omega_p / 3 - 2 * omega_dprime / 3
    return omega_a, omega_b, omega_c


def topdc_freq_inverse(omega_a, omega_b, omega_c):
    """Inverse of :func:`topdc_freq_transform`."""
    return (omega_a + omega_b + omega_c,
            (omega_a + omega_c) / 2 - omega_b,
            (omega_a + omega_b) / 2 - omega_c)
