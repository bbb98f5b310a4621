"""Scenario runners for the three categories of interference effects.

Category I varies only the phase difference (pure cosine fringes),
Category II varies the collective path-length difference (fringes at the
pump central wavelength under the pump coherence envelope), Category III
varies the asymmetry lengths (fringeless dip or hump tracing the
phase-matching coherence envelope, the three-photon analog of a
Hong-Ou-Mandel scan).

A sweep produces a table of numpy columns, one entry per row: the
parameter values, the rate and its interference ingredients, each block
of rows from one call of the rate core of :mod:`triphoton.rates`, so a
phase scan pays for its two coherence factors once per sweep, not once
per row or block, and a long scan's working memory stays one block.
Metric extraction works on the tables alone so it applies equally to the
CLI's CSV pipeline. It is array code with no loop over rows or periods:
one window rule (sample count, max and min per window, from
``searchsorted`` bounds and ``reduceat``) serves both the central-fringe
visibility and the per-period envelope, so a scan costs O(rows log rows).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import CarrierPhaseOverflowError, InsufficientSamplingError, _store_reals
from .pathgeom import (CentralFrequencies, ReducedParameters, SourceKind,
                       carrier_omegas)
from .rates import (AlternativeAmplitudes, SourceModel, _carrier_phase,
                    _rate_columns)
from .spectra import Tabulated2D, joint_widths


class SweepVariable(Enum):
    DELTA_PHI = "delta_phi"
    DELTA_L = "delta_l"
    DELTA_L_PRIME = "delta_l_prime"
    DELTA_L_DPRIME = "delta_l_dprime"
    DIAGONAL = "diagonal"  # delta_l_prime == delta_l_dprime


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: which variable, its range, and the fixed rest."""

    variable: SweepVariable
    start: float
    stop: float
    n_points: int
    fixed: ReducedParameters
    source: SourceModel
    amps: AlternativeAmplitudes

    def __post_init__(self):
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError("n_points must be an integer")
        if self.n_points < 3:
            raise ValueError("n_points must be at least 3")
        _store_reals(self, ("start", "stop"))
        if not self.start < self.stop:
            raise ValueError("start must be below stop")
        if not math.isfinite(self.stop - self.start):
            raise ValueError("start and stop must be a finite distance apart")
        self._check_carrier_phase()

    def _check_carrier_phase(self):
        """Reject a range whose carrier phase overflows, before any transform
        runs; the phase is affine in the swept value, so the ends decide."""
        try:
            carriers = carrier_omegas(self.source.centrals, self.source.kind,
                                      self.fixed.topdc_choice)
        except ValueError:
            return  # an invalid labeling, which run_sweep rejects before any row
        ends = _parameter_columns(self, np.array([self.start, self.stop]))
        for end_name, row in zip(("start", "stop"), zip(*(c.tolist() for c in ends))):
            try:
                _carrier_phase(carriers, [x / SPEED_OF_LIGHT for x in row[:3]], row[3])
            except CarrierPhaseOverflowError:
                raise CarrierPhaseOverflowError(
                    f"the carrier phase overflows at the sweep {end_name}: delta_l = "
                    f"{row[0]!r}, delta_l_prime = {row[1]!r}, delta_l_dprime = "
                    f"{row[2]!r} m, delta_phi = {row[3]!r} rad") from None


def _parameter_columns(spec: SweepSpec, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(delta_l, delta_l_prime, delta_l_dprime, delta_phi)`` columns at the
    swept ``values``: the fields the variable names take them, the rest are fixed."""
    swept = (("delta_l_prime", "delta_l_dprime")
             if spec.variable is SweepVariable.DIAGONAL else (spec.variable.value,))
    return tuple(values if name in swept
                 else np.full(values.size, getattr(spec.fixed, name))
                 for name in ("delta_l", "delta_l_prime", "delta_l_dprime", "delta_phi"))


@dataclass(frozen=True)
class SweepTable:
    """A sweep as numpy columns: ascending parameter values and, per row,
    the :class:`RateResult` fields but the baseline, which all rows share."""

    variable: SweepVariable
    values: np.ndarray
    rates: np.ndarray
    gamma_mag: np.ndarray
    gamma_prime_mag: np.ndarray
    cosine_argument: np.ndarray
    visibility_bound: np.ndarray
    baseline: float

    def __len__(self) -> int:
        return len(self.values)


# Rows per call of the rate core: a block's parameter, delay and temporary
# columns take about 0.7 MB on closed-form sources (160 B per block row under
# tracemalloc) however long the sweep, so a sweep holds its 48 B per row of
# results plus one block.
_SWEEP_ROWS = 4096


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the rate across the sweep.

    The rate core that :func:`rate_length` views one row of makes every
    row, a block of rows per call, so each equals it bit for bit.
    """
    values = np.linspace(spec.start, spec.stop, spec.n_points)
    columns = [np.empty(values.size) for _ in range(5)]
    fixed = {}  # the factors at fixed delays, computed in the first block
    for start in range(0, values.size, _SWEEP_ROWS):
        block = values[start:start + _SWEEP_ROWS]
        *lengths, dphi = _parameter_columns(spec, block)
        parts = _rate_columns(spec.source, [x / SPEED_OF_LIGHT for x in lengths],
                              dphi, spec.amps, spec.fixed.topdc_choice, fixed)
        for column, part in zip(columns, parts):
            column[start:start + block.size] = part
    return SweepTable(spec.variable, values, *columns, spec.amps.baseline)


@dataclass(frozen=True)
class FringeMetrics:
    """Fringe observables of a Category I/II scan.

    ``envelope_halfwidth`` is the swept-parameter value at which the
    per-period visibility drops to 1/e of its initial value; infinity
    when the scan shows no decay (Category I always does).
    """

    visibility: float
    period: float
    envelope_halfwidth: float


class ExtremumKind(Enum):
    DIP = "dip"
    HUMP = "hump"


@dataclass(frozen=True)
class DipMetrics:
    """Origin extremum of a Category III scan pair.

    ``not_monotone`` flags side lobes above 5% of the extremum depth
    (or an envelope that never decays below that level inside the scan),
    in which case the widths describe the central lobe only.
    """

    extremum_kind: ExtremumKind
    depth: float
    fwhm_prime: float
    fwhm_dprime: float
    not_monotone: bool = False


def _zero_crossings(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Linear-interpolated positions where s changes sign.

    Samples landing exactly on zero count as crossings when the signs on
    either side of the zero run differ (tangent touches do not).
    """
    # bool and int8 masks, not float signs: a long scan's extraction stays
    # below the memory its sweep took
    pos, neg = s > 0.0, s < 0.0
    idx = np.flatnonzero((pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:]))
    x0, x1 = x[idx], x[idx + 1]
    s0, s1 = s[idx], s[idx + 1]
    zero = np.zeros(s.size + 2, dtype=np.int8)  # zero-padded at both ends
    zero[1:-1] = s == 0.0
    runs = np.diff(zero)
    a, b = np.flatnonzero(runs == 1), np.flatnonzero(runs == -1) - 1  # zero runs
    inner = (a > 0) & (b < s.size - 1)
    a, b = a[inner], b[inner]
    flips = s[a - 1] * s[b + 1] < 0
    return np.sort(np.concatenate([x0 - s0 * (x1 - x0) / (s1 - s0),
                                   0.5 * (x[a[flips]] + x[b[flips]])]))


def _moving_mean(y: np.ndarray, window: int) -> np.ndarray:
    window = max(3, window | 1)  # odd
    half = window // 2
    padded = np.pad(y, half, mode="reflect")
    kernel = np.full(window, 1.0 / window)
    return np.convolve(padded, kernel, mode="valid")


def extract_fringe_metrics(table: SweepTable) -> FringeMetrics:
    """Period, central-fringe visibility and envelope half-width of a scan.

    The period comes from the mean spacing of the zero crossings of the
    rate minus its running mean (crossings sit at the cosine zeros
    regardless of the envelope); the visibility uses the extrema of the
    period centered on the scan midpoint, decoupling it from envelope
    decay.
    """
    x, y = table.values, table.rates
    span = x[-1] - x[0]
    step = span / (len(x) - 1)

    crossings = _zero_crossings(x, y - np.mean(y))
    if crossings.size < 4:
        raise InsufficientSamplingError(
            "fewer than two fringe periods detected in the scan")
    period0 = 2.0 * float(np.mean(np.diff(crossings)))

    window = int(round(period0 / step))
    crossings = _zero_crossings(x, y - _moving_mean(y, window))
    # the reflect-padded running mean is biased within half a window of
    # the scan edges; keep only interior crossings for the statistics
    margin = 0.5 * window * step
    interior = crossings[(crossings >= x[0] + margin)
                         & (crossings <= x[-1] - margin)]
    if interior.size >= 4:
        crossings = interior
    if crossings.size < 4:
        raise InsufficientSamplingError("fringe structure lost after detrending")
    period = 2.0 * float(np.mean(np.diff(crossings)))

    if span < 3.0 * period * (1 - 1e-9):
        raise InsufficientSamplingError(
            f"scan covers {span / period:.2f} periods, need at least 3")
    if period / step < 16 * (1 - 1e-9):
        raise InsufficientSamplingError(
            f"{period / step:.1f} points per period, need at least 16")

    visibility = fringe_visibility_at(table, 0.5 * (x[0] + x[-1]), period)
    return FringeMetrics(visibility=visibility, period=period,
                         envelope_halfwidth=_envelope_halfwidth(x, y, period))


def _window_extrema(x: np.ndarray, y: np.ndarray, lo, hi):
    """The window rule: per window ``lo[k] <= x <= hi[k]`` of the ascending
    ``x``, the positions ``k`` of the windows holding at least 4 samples,
    and the max and min of ``y`` over each of those."""
    start, stop = np.searchsorted(x, lo, "left"), np.searchsorted(x, hi, "right")
    kept = np.flatnonzero(stop - start >= 4)
    bounds = np.column_stack([start[kept], stop[kept]]).ravel()
    padded = np.append(y, 0.0)  # a window may end at the last sample
    return (kept, np.maximum.reduceat(padded, bounds)[::2],
            np.minimum.reduceat(padded, bounds)[::2])


def fringe_visibility_at(table: SweepTable, value: float, period: float) -> float:
    """Fringe visibility from the one-period window centered on ``value``."""
    kept, hi, lo = _window_extrema(table.values, table.rates,
                                   [value - period / 2], [value + period / 2])
    if not kept.size:
        raise InsufficientSamplingError(
            f"fewer than 4 samples in the period window around {value!r}")
    hi, lo = float(hi[0]), float(lo[0])
    return (hi - lo) / (hi + lo)


def _envelope_halfwidth(x: np.ndarray, y: np.ndarray, period: float) -> float:
    """1/e point of the per-period visibility profile, inf if never reached."""
    # window k starts at x[0] + period + ... + period, added one at a time
    lefts = np.cumsum(np.r_[x[0], np.full(int((x[-1] - x[0]) / period) + 2, period)])
    n = np.flatnonzero(~(lefts + period <= x[-1] + 1e-12 * period))[0]
    kept, hi, lo = _window_extrema(x, y, lefts[:n], lefts[:n] + period)
    lit = hi + lo > 0
    centers = lefts[kept[lit]] + period / 2
    vis = (hi[lit] - lo[lit]) / (hi[lit] + lo[lit])
    target = vis[:1] / math.e  # empty when no window is kept
    below = np.flatnonzero(vis[1:] < target)
    if not below.size:
        return math.inf
    i = below[0] + 1
    f = (vis[i - 1] - target[0]) / (vis[i - 1] - vis[i])
    return float(centers[i - 1] + f * (centers[i] - centers[i - 1]))


@dataclass(frozen=True)
class DipProfile:
    """Single-axis dip/hump observables (see :class:`DipMetrics`)."""

    extremum_kind: ExtremumKind
    depth: float
    fwhm: float
    not_monotone: bool


def extract_dip_profile(table: SweepTable) -> DipProfile:
    """Kind, depth, FWHM and side-lobe flag of a single asymmetry scan."""
    x, y, baseline = table.values, table.rates, table.baseline
    i0 = int(np.argmin(np.abs(x)))
    scale = max(abs(x[0]), abs(x[-1]))
    if abs(x[i0]) > 1e-9 * scale:
        raise ValueError("asymmetry scan must contain the origin")
    r0 = float(y[i0])
    depth_abs = abs(r0 - baseline)
    if depth_abs <= 1e-12 * baseline:
        raise ValueError("no extremum at the origin (flat profile)")
    kind = ExtremumKind.DIP if r0 < baseline else ExtremumKind.HUMP
    depth = depth_abs / baseline

    half_level = baseline + (r0 - baseline) / 2.0
    excursion = np.abs(y - baseline)
    threshold = 0.05 * depth_abs
    edges, not_monotone = [], False
    for step, side in ((1, "right"), (-1, "left")):
        # outward from the origin: the first sample pair that brackets the
        # half level, interpolated from its origin side
        xs, ys = x[i0::step], y[i0::step]
        hit = np.flatnonzero((ys[:-1] - half_level) * (ys[1:] - half_level) <= 0)
        if not hit.size:
            raise InsufficientSamplingError(
                f"scan does not reach the half-depth level on the {side} side")
        (xi, xj), (yi, yj) = xs[hit[0]:hit[0] + 2], ys[hit[0]:hit[0] + 2]
        edges.append(float(xj if yj == yi
                           else xi + (half_level - yi) / (yj - yi) * (xj - xi)))
        # side lobes: past the point where the excursion first falls below
        # 5% of the depth, it should stay there (and it must get there)
        above = excursion[i0::step] > threshold
        low = np.flatnonzero(~above)
        not_monotone |= not low.size or bool(above[low[0]:].any())
    return DipProfile(extremum_kind=kind, depth=depth, fwhm=edges[0] - edges[1],
                      not_monotone=not_monotone)


def extract_dip_metrics(table_prime: SweepTable,
                        table_dprime: SweepTable) -> DipMetrics:
    """Combine one scan per asymmetry axis into the dip/hump observables."""
    p = extract_dip_profile(table_prime)
    d = extract_dip_profile(table_dprime)
    if p.extremum_kind is not d.extremum_kind:
        raise ValueError(
            "scans disagree on the extremum kind "
            f"({p.extremum_kind.value} vs {d.extremum_kind.value})")
    return DipMetrics(extremum_kind=p.extremum_kind, depth=p.depth,
                      fwhm_prime=p.fwhm, fwhm_dprime=d.fwhm,
                      not_monotone=p.not_monotone or d.not_monotone)


def degenerate_central_frequencies(kind: SourceKind,
                                   omega: float) -> CentralFrequencies:
    """Central frequencies with vanishing asymmetry carriers.

    Both asymmetry carriers are zero when the photon closest to the pump
    in the frequency split sits exactly at its share: (2w, w, w) for the
    cascaded source and (w, w, w) for the third-order source. This is the
    regime where an asymmetry scan shows a clean fringeless dip or hump.
    """
    if kind is SourceKind.CPDC:
        return CentralFrequencies(2 * omega, omega, omega)
    return CentralFrequencies(omega, omega, omega)


def category_i_spec(source: SourceModel, amps: AlternativeAmplitudes) -> SweepSpec:
    """Phase sweep over three periods at 32 points per period, with all
    lengths zero; the fringes are pure cosine."""
    fixed = ReducedParameters(0.0, 0.0, 0.0, 0.0)
    return SweepSpec(SweepVariable.DELTA_PHI, 0.0, 3 * 2.0 * math.pi,
                     3 * 32 + 1, fixed, source, amps)


def pump_coherence_length(source: SourceModel) -> float:
    """c over the pump spectral width: the fringe envelope length scale."""
    return SPEED_OF_LIGHT / source.pump.characteristic_width


def category_ii_spec(source: SourceModel, amps: AlternativeAmplitudes,
                     coherence_lengths: float = 3.0) -> SweepSpec:
    """Collective length sweep from 0 to several pump coherence lengths, at
    16 points per fringe period plus a spare interval; the fringes run at
    the pump's central frequency minus its offset."""
    omega_fringe = abs(source.centrals.omega_p0 - source.pump.center)
    stop = coherence_lengths * pump_coherence_length(source)
    n = int(math.ceil(stop * omega_fringe / (2.0 * math.pi * SPEED_OF_LIGHT)
                      * 16)) + 2
    fixed = ReducedParameters(0.0, 0.0, 0.0, 0.0)
    return SweepSpec(SweepVariable.DELTA_L, 0.0, stop, n, fixed, source, amps)


def category_iii_specs(source: SourceModel, amps: AlternativeAmplitudes,
                       delta_phi: float) -> tuple[SweepSpec, SweepSpec]:
    """Symmetric scans of both asymmetry lengths at fixed phase, each from
    -4 to 4 times c over its phase-matching width in 201 points (odd, so the
    origin is sampled exactly).

    Intended for sources whose asymmetry carriers vanish (see
    :func:`degenerate_central_frequencies`); otherwise the profile carries
    residual fringes and the extractor flags it.
    """
    pm = source.phase_matching
    if isinstance(pm, Tabulated2D):  # its joint_widths are grid half-spans
        w1, w2 = (m.characteristic_width for m in pm.marginals())
    else:
        w1, w2 = joint_widths(pm)
    w_prime, w_dprime = SPEED_OF_LIGHT / w1, SPEED_OF_LIGHT / w2
    fixed = ReducedParameters(0.0, 0.0, 0.0, delta_phi)
    spec_p = SweepSpec(SweepVariable.DELTA_L_PRIME, -4.0 * w_prime,
                       4.0 * w_prime, 201, fixed, source, amps)
    spec_d = SweepSpec(SweepVariable.DELTA_L_DPRIME, -4.0 * w_dprime,
                       4.0 * w_dprime, 201, fixed, source, amps)
    return spec_p, spec_d
