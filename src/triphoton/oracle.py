"""Brute-force 3D validation of the factorized interference term.

The factorized engine assumes the phase-matching density does not vary
across the pump spectrum, which is what lets the triple integral split
into a pump factor and a phase-matching factor. This module evaluates
the interference term directly on a 3D tensor grid over (pump detuning,
prime detuning, double-prime detuning), with an optional one-parameter
pump coupling that shifts the phase-matching center linearly with the
pump detuning. With the coupling off, the 3D sum must converge to the
factorized product; with it on, the difference quantifies how fast the
factorization degrades as the pump stops being narrowband.

The double-prime axis is contracted first, leaving a profile over the
prime detuning. A bilinear table is linear in the prime detuning between
its knots, so its profile is the exact linear interpolation of the
contracted column at the prime knots. At a prime knot the table is its
own row, linear along the double-prime axis, so the column reads the
stored rows with the table's own cell rule and no 2D evaluation runs (the
result is bit-identical to one); the coupled prime sum then
evaluates that profile at every shifted prime detuning in one array, with
no loop over the pump axis. Memory stays O(n_pump * n_prime).

Trapezoid tensor quadrature is used deliberately: it shares no method
with the adaptive engine in :mod:`triphoton.coherence` (only the
trapezoid-weight helper), so a disagreement localizes a bug instead of
hiding it. Sums are plain numpy
reductions (pairwise, deterministic at a fixed grid and single thread).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .coherence import DelayTriple, _trapezoid_weights
from .pathgeom import carrier_omegas
from .rates import AlternativeAmplitudes, RateResult, SourceModel, rate_time
from .spectra import Separable, Tabulated2D, _interpolation_cell, joint_widths

# Zero-delay magnitude of the interference term (2 * g * g' * cos with
# everything at 1); relative errors are quoted against this scale.
INTERFERENCE_SCALE = 2.0

# Relative change under grid halving above which a result is flagged coarse.
COARSE_GRID_TOLERANCE = 1e-4


@dataclass(frozen=True)
class LinearShift:
    """Phase-matching center moves by ``slope * pump_detuning``."""

    slope: float

    def __post_init__(self):
        if not math.isfinite(self.slope):
            raise ValueError("slope must be finite")


@dataclass(frozen=True)
class OracleConfig:
    """Tensor grid sizes and coupling model for the 3D evaluation."""

    n_pump: int = 129
    n_prime: int = 129
    n_dprime: int = 129
    support_multiplier: float = 8.0
    pump_coupling: LinearShift | None = None

    def __post_init__(self):
        for name in ("n_pump", "n_prime", "n_dprime"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if getattr(self, name) < 32:
                raise ValueError(f"{name} must be at least 32")
        if not self.support_multiplier >= 4:
            raise ValueError("support_multiplier must be at least 4")
        if not math.isfinite(self.support_multiplier):
            raise ValueError("support_multiplier must be finite")

    @property
    def slope(self) -> float:
        return 0.0 if self.pump_coupling is None else self.pump_coupling.slope


@dataclass(frozen=True)
class OracleTerm:
    """3D interference term with its self-consistency diagnostics."""

    value: float
    imag_residual: float
    coarse_value: float

    @property
    def coarse_rel_change(self) -> float:
        return abs(self.value - self.coarse_value) / INTERFERENCE_SCALE

    @property
    def coarse_grid_warning(self) -> bool:
        return self.coarse_rel_change > COARSE_GRID_TOLERANCE


@dataclass(frozen=True)
class RatioErrorRow:
    """One (bandwidth ratio, delay) comparison of oracle vs factorized."""

    ratio: float
    delays: DelayTriple
    factorized: float
    oracle: float
    rel_error: float


def _span(density, mult: float) -> tuple[float, float]:
    """Finite support, else ``mult`` characteristic widths about the center."""
    lo, hi = density.support()
    if math.isfinite(lo) and math.isfinite(hi):
        return lo, hi
    half = mult * density.characteristic_width
    return density.center - half, density.center + half


def _axes(source: SourceModel, cfg: OracleConfig):
    """Integration axes for (pump, prime, dprime) detunings.

    The prime axis is widened by the maximum coupling shift so the
    shifted density never leaks off the grid.
    """
    lo, hi = _span(source.pump, cfg.support_multiplier)
    pump_axis = np.linspace(lo, hi, cfg.n_pump)
    shift = abs(cfg.slope) * max(abs(lo), abs(hi))

    pm = source.phase_matching
    if isinstance(pm, Separable):
        (lo1, hi1), (lo2, hi2) = (_span(d, cfg.support_multiplier)
                                  for d in (pm.d1, pm.d2))
    elif isinstance(pm, Tabulated2D):
        lo1, hi1 = pm.grid1[0], pm.grid1[-1]
        lo2, hi2 = pm.grid2[0], pm.grid2[-1]
    else:
        raise TypeError(f"unsupported joint density type {type(pm).__name__}")
    prime_axis = np.linspace(lo1 - shift, hi1 + shift, cfg.n_prime)
    dprime_axis = np.linspace(lo2, hi2, cfg.n_dprime)
    return pump_axis, prime_axis, dprime_axis


def _triple_sum(source: SourceModel, delays: DelayTriple, cfg: OracleConfig) -> complex:
    """Tensor trapezoid of pump(w) pm(w'-s*w, w'') exp(-i(w dt + w' dt' + w'' dt''))."""
    pump_axis, prime_axis, dprime_axis = _axes(source, cfg)
    ep = (_trapezoid_weights(pump_axis) * np.asarray(source.pump.evaluate(pump_axis))
          * np.exp(-1j * pump_axis * delays.delta_tau))
    e1 = _trapezoid_weights(prime_axis) * np.exp(-1j * prime_axis * delays.delta_tau_prime)
    e2 = _trapezoid_weights(dprime_axis) * np.exp(-1j * dprime_axis * delays.delta_tau_dprime)

    # the dprime sum is taken first; what remains is a profile over the
    # prime detuning, which the pump couples to only through the shift
    shifted = prime_axis[None, :] - cfg.slope * pump_axis[:, None]
    pm = source.phase_matching
    if isinstance(pm, Separable):
        s2 = complex(np.asarray(pm.d2.evaluate(dprime_axis)) @ e2)
        profile = np.asarray(pm.d1.evaluate(shifted)) * s2
    else:
        # bilinear: linear in the prime detuning between knots, so the
        # column summed at the prime knots interpolates exactly; there the
        # table is its rows, and the dprime axis spans grid2 (no mask)
        j, ty = _interpolation_cell(pm.grid2, dprime_axis)
        col = ((1 - ty) * pm.values[:, j] + ty * pm.values[:, j + 1]) @ e2
        profile = (np.interp(shifted, pm.grid1, col.real, left=0.0, right=0.0)
                   + 1j * np.interp(shifted, pm.grid1, col.imag, left=0.0, right=0.0))
    return complex(ep @ (profile @ e1))


def interference_term_3d(source: SourceModel, delays: DelayTriple,
                         delta_phi: float, cfg: OracleConfig) -> OracleTerm:
    """Interference term from the direct 3D sum, normalized like 2*g*g'*cos.

    The same sum at roughly half resolution per axis is reported alongside;
    a large relative change flags the grid as too coarse to trust.
    """
    w_p0, w0_prime, w0_dprime = carrier_omegas(source.centrals, source.kind, 1)
    arg0 = (delta_phi + w_p0 * delays.delta_tau
            + w0_prime * delays.delta_tau_prime
            + w0_dprime * delays.delta_tau_dprime)
    phase0 = complex(math.cos(arg0), -math.sin(arg0))

    raw = _triple_sum(source, delays, cfg)
    coarse_cfg = replace(cfg,
                         n_pump=max(32, cfg.n_pump // 2 + 1),
                         n_prime=max(32, cfg.n_prime // 2 + 1),
                         n_dprime=max(32, cfg.n_dprime // 2 + 1))
    raw_coarse = _triple_sum(source, delays, coarse_cfg)
    # the raw sum is real for even centered densities; its imaginary part
    # is the numerical residue worth reporting (the carrier rotation would
    # mix real and imaginary parts trivially)
    return OracleTerm(value=2.0 * (phase0 * raw).real,
                      imag_residual=abs(raw.imag),
                      coarse_value=2.0 * (phase0 * raw_coarse).real)


def factorized_interference_term(source: SourceModel, delays: DelayTriple,
                                 delta_phi: float, method: str = "auto") -> float:
    """2 g g' cos(...) from the factorized engine, for oracle comparison."""
    r: RateResult = rate_time(source, delays, delta_phi,
                              AlternativeAmplitudes.balanced(), method=method)
    return 2.0 * r.gamma_mag * r.gamma_prime_mag * math.cos(r.cosine_argument)


def factorization_error_sweep(source: SourceModel, delays: list[DelayTriple],
                              ratios: list[float],
                              cfg: OracleConfig) -> list[RatioErrorRow]:
    """Oracle-vs-factorized error per (pump/phase-matching bandwidth ratio, delay).

    For each ratio the pump is rescaled to ``ratio`` times the prime-axis
    phase-matching width and both engines are evaluated at every delay.
    Relative errors are quoted against the zero-delay interference scale.
    """
    if any(r <= 0 for r in ratios):
        raise ValueError("bandwidth ratios must be positive")
    pm_width, _ = joint_widths(source.phase_matching)
    rows: list[RatioErrorRow] = []
    for ratio in ratios:
        factor = ratio * pm_width / source.pump.characteristic_width
        src = source.with_pump(source.pump.with_width_scaled(factor))
        for d in delays:
            fac = factorized_interference_term(src, d, 0.0)
            orc = interference_term_3d(src, d, 0.0, cfg).value
            rows.append(RatioErrorRow(
                ratio=ratio, delays=d, factorized=fac, oracle=orc,
                rel_error=abs(fac - orc) / INTERFERENCE_SCALE))
    return rows


def max_error_by_ratio(rows: list[RatioErrorRow]) -> list[tuple[float, float]]:
    """(ratio, max relative error over delays), in the rows' ratio order."""
    out: list[tuple[float, float]] = []
    for row in rows:
        if out and out[-1][0] == row.ratio:
            out[-1] = (row.ratio, max(out[-1][1], row.rel_error))
        else:
            out.append((row.ratio, row.rel_error))
    return out
