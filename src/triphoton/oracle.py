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
rows are bit-identical to one, and so is the column to one cast to complex
in the same memory order). The rows are cast once per grid, so a delay's
column is one complex matrix-vector product; the coupled prime sum then
evaluates that profile at every shifted prime detuning with one complex
interpolation, in one array, with no loop over the pump axis. Memory stays
O(n_pump * n_prime).

Everything but the three delay phase columns is delay-independent, so
the core :func:`_triple_sum` builds the axes, the trapezoid weights, the
weighted pump column and the density columns (or the table's knot-row
matrix) once per grid and then sums delay by delay. The terms rotate those
sums by the rate core's carrier-phase column (``rates._carrier_phase``,
which rejects an overflowing phase before any sum), and
:func:`interference_term_3d` is their one-row view. The factorization sweep
builds each bandwidth ratio's grids once, computes the phase-matching factor
and the carrier phase once per delay for all ratios, and returns, row for
row, what the per-delay entry points return.

The grid spans a fixed number of widths of an infinite-support shape, so
the sum misses that shape's mass beyond the window. That mass is known
exactly and is reported per term as ``tail_mass``; at zero delay the
term falls short of 2 by about ``2 * tail_mass`` without coupling, and by
less with it (the widened prime axis catches part of the mass). It is
flagged, not divided out, since that correction holds only at zero delay.

Trapezoid tensor quadrature is used deliberately: it shares no method or
helper with the transforms in :mod:`triphoton.coherence`, so a disagreement
localizes a bug instead of hiding it. Sums are plain numpy reductions
(pairwise, deterministic at a fixed grid and single thread).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import astuple, dataclass, replace

import numpy as np

from .coherence import DelayTriple, _polar, joint_transforms, transforms
from .errors import IntegrationError
from .pathgeom import carrier_omegas
from .rates import (AlternativeAmplitudes, RateResult, SourceModel, _assemble_rate,
                    _carrier_phase, rate_time)
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
    """3D interference term with its self-consistency diagnostics.

    ``tail_mass`` is the joint mass outside the integration window,
    ``1 - prod(1 - m)`` over the axes' masses ``m`` beyond their spans;
    with coupling it bounds the grid's loss from above (see the module notes).
    It and ``coarse_rel_change`` estimate the term's error but do not bound
    it: on coupled table sources the gap to the exact shifted product passed
    ``tail_mass + coarse_rel_change`` in 5 of 68 seeded cases, by up to 2.8x.
    """

    value: float
    imag_residual: float
    coarse_value: float
    tail_mass: float

    @property
    def coarse_rel_change(self) -> float:
        return abs(self.value - self.coarse_value) / INTERFERENCE_SCALE

    @property
    def coarse_grid_warning(self) -> bool:
        return self.coarse_rel_change > COARSE_GRID_TOLERANCE

    @property
    def truncated(self) -> bool:
        return self.tail_mass > COARSE_GRID_TOLERANCE


@dataclass(frozen=True)
class RatioErrorRow:
    """One (bandwidth ratio, delay) comparison of oracle vs factorized."""

    ratio: float
    delays: DelayTriple
    factorized: float
    oracle: float
    rel_error: float
    tail_mass: float

    @property
    def truncated(self) -> bool:
        return self.tail_mass > COARSE_GRID_TOLERANCE


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    d = np.diff(grid) / 2
    return np.append(d, 0.0) + np.append(0.0, d)


def _span(density, mult: float) -> tuple[float, float]:
    """Finite support, else ``mult`` characteristic widths about the center."""
    lo, hi = density.support()
    if math.isfinite(lo) and math.isfinite(hi):
        return lo, hi
    half = mult * density.characteristic_width
    return _finite_span("support_multiplier", mult, density.center - half, density.center + half)


def _finite_span(name: str, value: float, lo: float, hi: float) -> tuple[float, float]:
    # on floats, so an overflow raises here, naming its cause, with no numpy warning
    if not math.isfinite(hi - lo):  # also when an end is not finite
        raise ValueError(f"{name} = {value!r} overflows an oracle axis: [{lo!r}, {hi!r}]")
    return lo, hi


def _tail_mass(source: SourceModel, mult: float) -> float:
    """Joint mass the grid misses: each infinite-support axis loses its mass
    outside its span; a table is integrated over its whole support."""
    pm = source.phase_matching
    kept = 1.0
    for density in (source.pump, *((pm.d1, pm.d2) if isinstance(pm, Separable) else ())):
        if not all(math.isfinite(x) for x in density.support()):
            kept *= 1.0 - density.mass_outside(*_span(density, mult))
    return 1.0 - kept


def _axes(source: SourceModel, cfg: OracleConfig):
    """Integration axes for (pump, prime, dprime) detunings.

    The prime axis is widened by the maximum coupling shift so the shifted
    density never leaks off the grid; a ValueError names what overflows.
    """
    lo, hi = _span(source.pump, cfg.support_multiplier)
    pump_axis = np.linspace(lo, hi, cfg.n_pump)
    shift = abs(cfg.slope) * max(abs(lo), abs(hi))

    pm = source.phase_matching
    if isinstance(pm, Separable):
        (lo1, hi1), (lo2, hi2) = (_span(d, cfg.support_multiplier)
                                  for d in (pm.d1, pm.d2))
    elif isinstance(pm, Tabulated2D):
        lo1, hi1 = float(pm.grid1[0]), float(pm.grid1[-1])
        lo2, hi2 = pm.grid2[0], pm.grid2[-1]
    else:
        raise TypeError(f"unsupported joint density type {type(pm).__name__}")
    prime_axis = np.linspace(*_finite_span("coupling slope", cfg.slope, lo1 - shift,
                                           hi1 + shift), cfg.n_prime)
    dprime_axis = np.linspace(lo2, hi2, cfg.n_dprime)
    return pump_axis, prime_axis, dprime_axis


def _triple_sum(source: SourceModel, delays: Sequence[DelayTriple],
                cfg: OracleConfig) -> np.ndarray:
    """Tensor trapezoid of pump(w) pm(w'-s*w, w'') exp(-i(w dt + w' dt' + w'' dt''))
    at each delay triple; the grid and its density columns are built once."""
    pump_axis, prime_axis, dprime_axis = _axes(source, cfg)
    weighted_pump = (_trapezoid_weights(pump_axis)
                     * np.asarray(source.pump.evaluate(pump_axis)))
    w1 = _trapezoid_weights(prime_axis)
    w2 = _trapezoid_weights(dprime_axis)

    # the dprime sum is taken first; what remains is a profile over the
    # prime detuning, which the pump couples to only through the shift
    shifted = prime_axis[None, :] - cfg.slope * pump_axis[:, None]
    pm = source.phase_matching
    if isinstance(pm, Separable):  # the profile rule is picked once per grid
        v2 = np.asarray(pm.d2.evaluate(dprime_axis))
        v1 = np.asarray(pm.d1.evaluate(shifted))
        profile = lambda e2: v1 * complex(v2 @ e2)  # noqa: E731
    else:
        # bilinear: linear in the prime detuning between knots, so the
        # column summed at the prime knots interpolates exactly; there the
        # table is its rows, and the dprime axis spans grid2 (no mask). Cast
        # once, F-ordered: the fastest complex GEMV, and numpy's own cast of a
        # real matrix would run on every delay
        j, ty = _interpolation_cell(pm.grid2, dprime_axis)
        knot_rows = ((1 - ty) * pm.values[:, j]
                     + ty * pm.values[:, j + 1]).astype(complex, order="F")
        profile = lambda e2: np.interp(  # noqa: E731
            shifted, pm.grid1, knot_rows @ e2, left=0.0, right=0.0)

    out = np.empty(len(delays), dtype=complex)
    for k, d in enumerate(delays):
        ep = weighted_pump * np.exp(-1j * pump_axis * d.delta_tau)
        e1 = w1 * np.exp(-1j * prime_axis * d.delta_tau_prime)
        e2 = w2 * np.exp(-1j * dprime_axis * d.delta_tau_dprime)
        out[k] = ep @ (profile(e2) @ e1)
    return out


def _interference_terms(source: SourceModel, delays: Sequence[DelayTriple],
                        phase: np.ndarray, cfg: OracleConfig) -> list[OracleTerm]:
    """:func:`interference_term_3d` at each delay triple and carrier ``phase``,
    with each grid level's tensor sums taken in one :func:`_triple_sum` call."""
    raw = _triple_sum(source, delays, cfg)
    coarse_cfg = replace(cfg, **{n: max(32, getattr(cfg, n) // 2 + 1)
                                 for n in ("n_pump", "n_prime", "n_dprime")})
    raw_coarse = _triple_sum(source, delays, coarse_cfg)
    tail = _tail_mass(source, cfg.support_multiplier)
    terms = []
    for arg0, fine, coarse in zip(phase.tolist(), raw.tolist(), raw_coarse.tolist()):
        phase0 = complex(math.cos(arg0), -math.sin(arg0))
        # the raw sum is real for even centered densities; its imaginary part is
        # the numerical residue worth reporting (the carrier rotation mixes the two)
        terms.append(OracleTerm(value=2.0 * (phase0 * fine).real,
                                imag_residual=abs(fine.imag),
                                coarse_value=2.0 * (phase0 * coarse).real,
                                tail_mass=tail))
    return terms


def interference_term_3d(source: SourceModel, delays: DelayTriple,
                         delta_phi: float, cfg: OracleConfig) -> OracleTerm:
    """Interference term from the direct 3D sum, normalized like 2*g*g'*cos.

    The same sum at roughly half resolution per axis is reported alongside;
    a large relative change flags the grid as too coarse to trust. The
    one-row view of :func:`_interference_terms`, at the rate core's carrier phase.
    """
    phase = _carrier_phase(carrier_omegas(source.centrals, source.kind, 1),
                           [np.array([d]) for d in astuple(delays)], delta_phi)
    return _interference_terms(source, [delays], phase, cfg)[0]


def factorized_interference_term(source: SourceModel, delays: DelayTriple,
                                 delta_phi: float) -> float:
    """2 g g' cos(...) from the factorized engine, for oracle comparison."""
    r: RateResult = rate_time(source, delays, delta_phi, AlternativeAmplitudes.balanced())
    return 2.0 * r.gamma_mag * r.gamma_prime_mag * math.cos(r.cosine_argument)


def _pump_rescale_factor(source: SourceModel, ratio: float) -> float:
    """The factor that rescales the pump's width to ``ratio`` times the
    prime-axis phase-matching width."""
    return ratio * joint_widths(source.phase_matching)[0] / source.pump.characteristic_width


def factorization_error_sweep(source: SourceModel, delays: list[DelayTriple],
                              ratios: list[float],
                              cfg: OracleConfig) -> list[RatioErrorRow]:
    """Oracle-vs-factorized error per (pump/phase-matching bandwidth ratio, delay).

    For each ratio the pump is rescaled to ``ratio`` times the prime-axis
    phase-matching width and both engines are evaluated at every delay.
    Relative errors are quoted against the zero-delay interference scale.

    Each row equals :func:`factorized_interference_term` and
    :func:`interference_term_3d` at its ratio and delay bit for bit: g' is
    computed once per delay, g once per ratio, and the oracle builds each
    ratio's grids once. An overflowing carrier phase raises before any sum
    runs; a transform failure raises the error of the first failing row in
    ratio-major order, g before g' within a row.
    """
    if any(r <= 0 for r in ratios):
        raise ValueError("bandwidth ratios must be positive")
    columns = tuple(np.array([getattr(d, name) for d in delays], dtype=float)
                    for name in ("delta_tau", "delta_tau_prime", "delta_tau_dprime"))
    phase = _carrier_phase(carrier_omegas(source.centrals, source.kind, 1), columns, 0.0)
    gp = None
    rows: list[RatioErrorRow] = []
    for ratio in ratios:
        src = source.with_pump(source.pump.with_width_scaled(_pump_rescale_factor(source, ratio)))
        if gp is None:  # g' does not depend on the pump
            try:
                gp = _polar(joint_transforms(source.phase_matching, *columns[1:]))
            except IntegrationError as e:  # unless g fails first, at or before that row
                transforms(src.pump, columns[0][:e.index + 1])
                raise
        g = _polar(transforms(src.pump, columns[0]))
        _, arg, _ = _assemble_rate(phase, *g, *gp, 1.0, 1.0)  # the argument only
        terms = _interference_terms(src, delays, phase, cfg)
        for d, g_mag, gp_mag, a, term in zip(delays, g[0].tolist(), gp[0].tolist(),
                                             arg.tolist(), terms):
            fac = 2.0 * g_mag * gp_mag * math.cos(a)
            rows.append(RatioErrorRow(
                ratio=ratio, delays=d, factorized=fac, oracle=term.value,
                rel_error=abs(fac - term.value) / INTERFERENCE_SCALE,
                tail_mass=term.tail_mass))
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
