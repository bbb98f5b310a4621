"""Scenario runners for the three categories of interference effects.

Category I varies only the phase difference (pure cosine fringes),
Category II varies the collective path-length difference (fringes at the
pump central wavelength under the pump coherence envelope), Category III
varies the asymmetry lengths (fringeless dip or hump tracing the
phase-matching coherence envelope, the three-photon analog of a
Hong-Ou-Mandel scan).

A sweep produces a table of numpy columns, one entry per row: the
parameter values, the rate and its interference ingredients. Parameters,
delays and coherence factors are columns too, and the rate is assembled
for all rows at once; the array coherence cores run once per distinct
delay, so a phase scan pays for its two factors once, not once per row.
Metric extraction works on the tables alone so it applies equally to the
CLI's CSV pipeline. It is array code with no loop over rows or periods:
one window rule (sample count, max and min per window, from
``searchsorted`` bounds and ``reduceat``) serves both the central-fringe
visibility and the per-period envelope, so a scan costs O(rows log rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import InsufficientSamplingError, IntegrationError
from .coherence import _polar, joint_transforms, transforms
from .pathgeom import (CentralFrequencies, ReducedParameters, SourceKind,
                       carrier_omegas)
from .rates import (AlternativeAmplitudes, RateResult, SourceModel,
                    _assemble_rate, _native_pm_delays)
from .spectra import joint_widths


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
        if self.n_points < 3:
            raise ValueError("n_points must be at least 3")
        for name in ("start", "stop"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if not self.start < self.stop:
            raise ValueError("start must be below stop")
        if not math.isfinite(self.stop - self.start):
            raise ValueError("start and stop must be a finite distance apart")


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

    @property
    def results(self) -> tuple[RateResult, ...]:
        """The rows as :class:`RateResult` values with Python-float fields."""
        columns = (self.rates, self.gamma_mag, self.gamma_prime_mag,
                   self.cosine_argument, self.visibility_bound)
        return tuple(RateResult(*row, float(self.baseline))
                     for row in zip(*(c.tolist() for c in columns)))

    def __len__(self) -> int:
        return len(self.values)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the rate across the sweep; aborts on the first bad row.

    Parameters and delays are numpy columns, and one array-valued assembly
    makes every row. Each coherence factor is computed once per distinct
    delay (g per collective delay, g' per native asymmetry-delay pair) by
    the array cores, whose one-row views :func:`rate_length` uses, so
    every row equals it bit for bit; a failing sweep names the row where
    :func:`rate_length` fails first.
    """
    values = np.linspace(spec.start, spec.stop, spec.n_points)
    source, choice = spec.source, spec.fixed.topdc_choice
    carriers = carrier_omegas(source.centrals, source.kind, choice)
    swept = (("delta_l_prime", "delta_l_dprime")
             if spec.variable is SweepVariable.DIAGONAL else (spec.variable.value,))
    dl, dlp, dldp, dphi = (
        values if name in swept
        else np.full(values.size, float(getattr(spec.fixed, name)))
        for name in ("delta_l", "delta_l_prime", "delta_l_dprime", "delta_phi"))
    delays = tuple(x / SPEED_OF_LIGHT for x in (dl, dlp, dldp))
    if not all(np.isfinite(d).all() for d in delays):
        raise ValueError("delays must be finite")
    u, v = _native_pm_delays(source.kind, choice, delays[1], delays[2])
    failures = []

    def per_row(core, density, *columns):
        # the core once per distinct key (+0.0 and -0.0 alike; a zero delay
        # has the same sign in every row or is in one row) in order of first
        # appearance, gathered back to rows; a failure keeps its key's first row
        _, first, inverse = np.unique(np.column_stack(columns), axis=0,
                                      return_index=True, return_inverse=True)
        rows = np.sort(first)
        try:
            z = core(density, *(c[rows] for c in columns))
            return _polar(z[np.searchsorted(rows, first)[inverse.reshape(-1)]])
        except IntegrationError as e:
            failures.append((int(rows[e.index]), e))

    g = per_row(transforms, source.pump, delays[0])
    gp = per_row(joint_transforms, source.phase_matching, u, v)
    if failures:  # g before g' in the same row, as rate_length computes them
        i, e = min(failures, key=lambda f: f[0])
        raise IntegrationError(
            f"sweep row {i} ({spec.variable.value} = {values[i]!r}): {e}",
            value=e.value, error_estimate=e.error_estimate) from e
    rates, arg, vis = _assemble_rate(delays, dphi, *g, *gp, carriers,
                                     spec.amps.amplitude_visibility,
                                     spec.amps.baseline)
    return SweepTable(spec.variable, values, rates, g[0], gp[0], arg, vis,
                      float(spec.amps.baseline))


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
    idx = np.flatnonzero(np.sign(s[:-1]) * np.sign(s[1:]) < 0)
    x0, x1 = x[idx], x[idx + 1]
    s0, s1 = s[idx], s[idx + 1]
    runs = np.diff((s == 0.0).astype(int), prepend=0, append=0)
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


def category_i_spec(source: SourceModel, amps: AlternativeAmplitudes,
                    periods: int = 3, points_per_period: int = 32) -> SweepSpec:
    """Phase sweep with all lengths zero; the fringes are pure cosine."""
    n = periods * points_per_period + 1
    fixed = ReducedParameters(0.0, 0.0, 0.0, 0.0)
    return SweepSpec(SweepVariable.DELTA_PHI, 0.0, periods * 2.0 * math.pi,
                     n, fixed, source, amps)


def pump_coherence_length(source: SourceModel) -> float:
    """c over the pump spectral width: the fringe envelope length scale."""
    return SPEED_OF_LIGHT / source.pump.characteristic_width


def category_ii_spec(source: SourceModel, amps: AlternativeAmplitudes,
                     coherence_lengths: float = 3.0,
                     points_per_period: int = 16) -> SweepSpec:
    """Collective length sweep from 0 to several pump coherence lengths, at
    ``points_per_period`` points per fringe period plus a spare interval;
    the fringes run at the pump's central frequency minus its offset."""
    omega_fringe = abs(source.centrals.omega_p0 - source.pump.center)
    stop = coherence_lengths * pump_coherence_length(source)
    n = int(math.ceil(stop * omega_fringe / (2.0 * math.pi * SPEED_OF_LIGHT)
                      * points_per_period)) + 2
    fixed = ReducedParameters(0.0, 0.0, 0.0, 0.0)
    return SweepSpec(SweepVariable.DELTA_L, 0.0, stop, n, fixed, source, amps)


def category_iii_specs(source: SourceModel, amps: AlternativeAmplitudes,
                       delta_phi: float, widths: float = 4.0,
                       n_points: int = 201) -> tuple[SweepSpec, SweepSpec]:
    """Symmetric scans of both asymmetry lengths at fixed phase.

    Intended for sources whose asymmetry carriers vanish (see
    :func:`degenerate_central_frequencies`); otherwise the profile carries
    residual fringes and the extractor flags it.
    """
    n_points = n_points | 1  # odd, so the origin is sampled exactly
    w1, w2 = joint_widths(source.phase_matching)
    w_prime, w_dprime = SPEED_OF_LIGHT / w1, SPEED_OF_LIGHT / w2
    fixed = ReducedParameters(0.0, 0.0, 0.0, delta_phi)
    spec_p = SweepSpec(SweepVariable.DELTA_L_PRIME, -widths * w_prime,
                       widths * w_prime, n_points, fixed, source, amps)
    spec_d = SweepSpec(SweepVariable.DELTA_L_DPRIME, -widths * w_dprime,
                       widths * w_dprime, n_points, fixed, source, amps)
    return spec_p, spec_d
