"""Seeded inputs, program passes and reference checks for each workload.

A workload writes its inputs (config files, density tables) once, then
runs passes through the program's public entry points:
``triphoton.cli.main`` for ``sweep`` and ``validate``, and the library
functions for joint-density work. The seed changes shapes, offsets and
delays; sizes depend only on ``size``, so runs with different seeds do
the same amount of work.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from triphoton import cli, coherence, oracle
from triphoton.coherence import DelayTriple
from triphoton.oracle import LinearShift, OracleConfig
from triphoton.pathgeom import CentralFrequencies
from triphoton.rates import SourceModel
from triphoton.spectra import Gaussian, Tabulated2D

import reference as ref

C = ref.SPEED_OF_LIGHT

SIZES = {
    "full": dict(cat1_rows=97, cat2_rows=20001, cat3_rows=201, knots=401,
                 tab_scan_rows=201, tab_phi_rows=97, oracle_n=129, ratios=5,
                 delays=3, surface=41),
    "tiny": dict(cat1_rows=49, cat2_rows=801, cat3_rows=41, knots=101,
                 tab_scan_rows=21, tab_phi_rows=49, oracle_n=33, ratios=2,
                 delays=2, surface=4),
}
RATIOS = (1.0, 0.3, 0.1, 0.03, 0.01)

# Default amplitudes of the config format: k1 = k2 = sqrt(1/2), |c|^2 = 1.
_K = math.sqrt(0.5)
BASELINE = _K ** 2 + _K ** 2
AMPLITUDE_VISIBILITY = 2.0 * _K * _K / BASELINE

CLOSED_FORM_TOL = 1e-9      # closed forms, rate scale and coherence magnitudes
TABULATED_TOL = 1e-7        # exact piecewise-linear transform
JOINT_TOL = 1e-6            # 2D tabulated transform, on the interference scale 2
PERIOD_TOL_M = 0.5e-9       # acceptance criterion 2
VISIBILITY_TOL = 1e-9       # acceptance criterion 1
FWHM_REL_TOL = 0.01         # acceptance criterion 3


def _num(x) -> str:
    """Config text for a number that parses back to the same double."""
    return repr(float(x))


@dataclass(frozen=True)
class Check:
    """One checked operation: ``err`` against ``tol``, both on the check's own scale."""

    name: str
    err: float
    tol: float
    engine: bool = True  # engine numbers vs reference (False: metric extraction)

    @property
    def ok(self) -> bool:
        return self.err <= self.tol


@dataclass(frozen=True)
class Shape:
    """A 1D density as the benchmark generated it, for the config and the reference."""

    kind: str
    width: float = 0.0
    offset: float = 0.0
    file: str = ""
    grid: np.ndarray | None = None
    values: np.ndarray | None = None

    _WIDTH_KEYS = {"gaussian": "sigma_rad_s", "lorentzian": "gamma_rad_s",
                   "sinc_squared": "width_rad_s"}

    def config(self, prefix: str) -> list[str]:
        if self.kind == "tabulated":
            return [f"{prefix}.shape = tabulated", f"{prefix}.file = {self.file}"]
        return [f"{prefix}.shape = {self.kind}",
                f"{prefix}.{self._WIDTH_KEYS[self.kind]} = {_num(self.width)}",
                f"{prefix}.center_offset_rad_s = {_num(self.offset)}"]

    def ft(self, tau) -> np.ndarray:
        if self.kind == "tabulated":
            return ref.ft_piecewise_linear(self.grid, self.values, tau)
        return ref.ft_closed(self.kind, self.width, self.offset, tau)


@dataclass(frozen=True)
class Source:
    kind: str
    lambdas_nm: tuple[float, float, float]
    pump: Shape
    pm1: Shape
    pm2: Shape

    def config(self) -> list[str]:
        a, b, c = self.lambdas_nm
        return ([f"source.type = {self.kind}", f"source.lambda_a_nm = {_num(a)}",
                 f"source.lambda_b_nm = {_num(b)}", f"source.lambda_c_nm = {_num(c)}"]
                + self.pump.config("source.pump") + self.pm1.config("source.pm1")
                + self.pm2.config("source.pm2"))

    def carriers(self, choice: int = 1):
        return ref.carrier_omegas(self.kind, choice,
                                  *(ref.omega_from_nm(x) for x in self.lambdas_nm))

    def g_prime(self, choice, dtp, dtd) -> np.ndarray:
        u, v = ref.native_pm_delays(self.kind, choice, dtp, dtd)
        return self.pm1.ft(u) * self.pm2.ft(v)


def interference(pump: Shape, carriers, dt, dtp, dtd, phi, g_prime):
    """Reference ``(|g|, |g'|, cosine argument)`` at the given delays."""
    g = pump.ft(dt)
    wp, w1, w2 = carriers
    arg = wp * dt + w1 * dtp + w2 * dtd + phi + np.angle(g) + np.angle(g_prime)
    return np.abs(g), np.abs(g_prime), arg


@dataclass(frozen=True)
class Scan:
    """One ``sweep`` config: the swept variable, its range and what to expect."""

    name: str
    source: Source
    variable: str
    start: float
    stop: float
    n_points: int
    fixed: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    choice: int = 1
    expect: dict = field(default_factory=dict)  # metrics.csv field -> (value, tol, relative)

    def config_text(self) -> str:
        dl, dlp, dldp, phi = self.fixed
        lines = self.source.config() + [
            f"geometry.delta_l_m = {_num(dl)}", f"geometry.delta_l_prime_m = {_num(dlp)}",
            f"geometry.delta_l_dprime_m = {_num(dldp)}", f"geometry.delta_phi_rad = {_num(phi)}",
            f"sweep.variable = {self.variable}", f"sweep.start = {_num(self.start)}",
            f"sweep.stop = {_num(self.stop)}", f"sweep.n_points = {self.n_points}"]
        if self.source.kind == "topdc":
            lines.append(f"geometry.topdc_choice = {self.choice}")
        return "\n".join(lines) + "\n"

    def expected(self):
        x = np.linspace(self.start, self.stop, self.n_points)
        dl, dlp, dldp, phi = (np.full_like(x, v) for v in self.fixed)
        target = {"delta_phi": (phi,), "delta_l": (dl,), "delta_l_prime": (dlp,),
                  "delta_l_dprime": (dldp,), "diagonal": (dlp, dldp)}[self.variable]
        for column in target:
            column[:] = x
        src, dt, dtp, dtd = self.source, dl / C, dlp / C, dldp / C
        g, gp, arg = interference(src.pump, src.carriers(self.choice), dt, dtp, dtd, phi,
                                  src.g_prime(self.choice, dtp, dtd))
        rate = BASELINE * (1.0 + AMPLITUDE_VISIBILITY * g * gp * np.cos(arg))
        return x, rate, g, gp, arg


def _table(text: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text.decode("utf-8"))))


def check_sweep(scan: Scan, sweep_csv: bytes, tol: float) -> Check:
    """Every row of sweep.csv against the reference rate and coherence factors."""
    rows = _table(sweep_csv)[1:]
    if len(rows) != scan.n_points or any(r[0] != scan.variable for r in rows):
        return Check(f"{scan.name}/sweep.csv", math.inf, tol)
    x, rate, g, gp, arg = scan.expected()
    got = np.array([[float(v) for v in r[1:]] for r in rows])
    phase_err = np.abs(ref.wrap_phase(got[:, 4] - arg)) / np.maximum(1.0, np.abs(arg))
    errs = [np.abs(got[:, 0] - x) / np.max(np.abs(x)),
            np.abs(got[:, 1] - rate) / BASELINE, np.abs(got[:, 2] - g),
            np.abs(got[:, 3] - gp), np.where(g * gp > tol, phase_err, 0.0)]
    return Check(f"{scan.name}/sweep.csv", float(max(e.max() for e in errs)), tol)


def check_metrics(scan: Scan, metrics_csv: bytes) -> list[Check]:
    """metrics.csv fields against the acceptance tolerances."""
    fields = {r[0]: r[1] for r in _table(metrics_csv)[1:] if len(r) == 2}
    out = []
    for key, (value, tol, relative) in scan.expect.items():
        try:
            err = abs(float(fields[key]) - value) / (abs(value) if relative else 1.0)
        except (KeyError, ValueError):
            err = math.inf
        out.append(Check(f"{scan.name}/metrics.csv:{key}", err, tol, engine=False))
    return out


def _cli(args: list[str]) -> str | None:
    """Run the CLI in-process; a non-zero exit or an exception is a failed operation."""
    try:
        code = cli.main(args)
    except Exception as e:  # counted as a failure; the measurement goes on
        return f"{' '.join(args[:3])}: {type(e).__name__}: {e}"
    return None if code == 0 else f"{' '.join(args[:3])}: exit code {code}"


class Workload:
    """Inputs written under ``work``; passes write their outputs there too."""

    name = ""
    table2d: Path | None = None

    def __init__(self, seed: int, size: str, work: Path):
        self.work = work
        self.size = SIZES[size]
        self.configs: list[Path] = []
        self.rng = np.random.default_rng([seed, list(WORKLOADS).index(self.name)])

    def write_config(self, name: str, text: str) -> None:
        path = self.work / f"{name}.conf"
        path.write_text(text, encoding="utf-8")
        self.configs.append(path)

    def out_dir(self, name: str) -> Path:
        return self.work / "out" / name

    def read_outputs(self, names: list[str]) -> dict[str, bytes]:
        out = {}
        for name in names:
            path = self.work / "out" / name
            out[name] = path.read_bytes() if path.exists() else b""
        return out


class ScanWorkload(Workload):
    """Runs ``triphoton sweep`` once per scan config."""

    tol = CLOSED_FORM_TOL

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.scans = self.make_scans()
        for scan in self.scans:
            self.write_config(scan.name, scan.config_text())

    def make_scans(self) -> list[Scan]:
        raise NotImplementedError

    def run_pass(self) -> tuple[int, list[str], None]:
        failures = []
        for scan in self.scans:
            err = _cli(["sweep", "--config", str(self.work / f"{scan.name}.conf"),
                        "--out", str(self.out_dir(scan.name))])
            if err:
                failures.append(err)
        return len(self.scans), failures, None

    def outputs(self, raw) -> dict[str, bytes]:
        return self.read_outputs([f"{s.name}/{f}" for s in self.scans
                                  for f in ("sweep.csv", "metrics.csv")])

    def check(self, outputs: dict[str, bytes]) -> list[Check]:
        out = []
        for scan in self.scans:
            out.append(check_sweep(scan, outputs[f"{scan.name}/sweep.csv"], self.tol))
            if scan.expect:
                out.extend(check_metrics(scan, outputs[f"{scan.name}/metrics.csv"]))
        return out

    def diagnostics(self, outputs) -> dict[str, float]:
        return {}


def closed_form_source(rng, rows: int) -> tuple[Source, float]:
    """CPDC source for the Category I/II scans, and the Category II scan stop (m).

    The pump width is set so that ``rows`` points cover 3.1 pump coherence
    lengths at 17-19 points per fringe period: the row count stays fixed
    while the seed moves the wavelengths, widths and offsets.
    """
    lam_a = rng.uniform(760.0, 820.0)
    lambdas = (lam_a, 2 * lam_a * rng.uniform(0.97, 1.03), 2 * lam_a * rng.uniform(0.97, 1.03))
    w_p0 = sum(ref.omega_from_nm(x) for x in lambdas)
    periods = (rows - 1) / rng.uniform(17.0, 19.0)
    sigma_p = 3.1 * C / (periods * 2 * math.pi * C / w_p0)
    pump = Shape("gaussian", sigma_p, rng.uniform(-0.5, 0.5) * sigma_p)
    offset_p = pump.offset
    stop = periods * 2 * math.pi * C / (w_p0 - offset_p)
    w1, g2 = rng.uniform(1.5e12, 3e12, size=2)
    # pm2 is the heavy-tailed Lorentzian, so the oracle's truncation shows
    pm1 = Shape("sinc_squared", w1, rng.uniform(-0.5, 0.5) * w1)
    pm2 = Shape("lorentzian", g2, rng.uniform(-0.5, 0.5) * g2)
    return Source("cpdc", lambdas, pump, pm1, pm2), stop


class ScanClosedForm(ScanWorkload):
    """Category I/II/III sweeps over analytic shapes: every coherence factor is a
    closed form, so the time goes to per-row Python in experiments/rates and to
    CSV formatting in cli; quadrature and the oracle are bypassed."""

    name = "scan_closed_form"

    def make_scans(self) -> list[Scan]:
        rng, size = self.rng, self.size
        source, stop = closed_form_source(rng, size["cat2_rows"])
        w_eff = sum(ref.omega_from_nm(x) for x in source.lambdas_nm) - source.pump.offset
        fixed2 = (0.0, rng.uniform(0.1, 0.3) * C / source.pm1.width,
                  rng.uniform(0.1, 0.3) * C / source.pm2.width, rng.uniform(0, 2 * math.pi))
        scans = [
            Scan("cat1_phase", source, "delta_phi", 0.0, 6 * math.pi, size["cat1_rows"],
                 expect={"visibility": (1.0, VISIBILITY_TOL, False),
                         "period": (2 * math.pi, 2 * math.pi * PERIOD_TOL_M / 500e-9, False)}),
            Scan("cat2_delta_l", source, "delta_l", 0.0, stop, size["cat2_rows"], fixed2,
                 expect={"period": (2 * math.pi * C / w_eff, PERIOD_TOL_M, False)}),
        ]
        # Category III: third-order source, choice-2 labeling, degenerate centrals
        lam = rng.uniform(1450.0, 1650.0)
        sigma_p = rng.uniform(0.5e12, 1.5e12)
        w1, g2 = rng.uniform(1.5e12, 3e12, size=2)
        deg = Source("topdc", (lam, lam, lam),
                     Shape("gaussian", sigma_p, rng.uniform(-0.5, 0.5) * sigma_p),
                     Shape("sinc_squared", w1), Shape("lorentzian", g2))
        tri = lambda t: max(0.0, 1.0 - t * w1 / 2.0)
        lor = lambda t: math.exp(-g2 * t)
        # choice 2 maps (dt', dt'') to native (-dt', dt'' - dt'): the prime scan
        # moves both axes, the double-prime scan pm2 only, the diagonal pm1 only
        for variable, profile in (("delta_l_prime", lambda t: tri(t) * lor(t)),
                                  ("delta_l_dprime", lor), ("diagonal", tri)):
            t_half = ref.half_level_delay(profile, 10.0 / min(w1, g2))
            reach = 6.0 * C * t_half
            phi = math.pi * rng.integers(0, 2)
            scans.append(Scan(f"cat3_{variable}", deg, variable, -reach, reach,
                              size["cat3_rows"], (0.0, 0.0, 0.0, phi), choice=2,
                              expect={"fwhm": (2 * C * t_half, FWHM_REL_TOL, True)}))
        return scans


def skewed_table(rng, width: float, knots: int) -> tuple[np.ndarray, np.ndarray]:
    """Asymmetric, off-carrier two-peak table on a jittered grid."""
    center = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5) * width
    side = center + rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.5) * width
    side_width = rng.uniform(0.4, 0.8) * width
    uniform = np.linspace(center - 10 * width, center + 10 * width, knots)
    step = uniform[1] - uniform[0]
    grid = uniform + np.r_[0.0, rng.uniform(-0.3, 0.3, knots - 2) * step, 0.0]
    values = (np.exp(-0.5 * ((grid - center) / width) ** 2)
              + rng.uniform(0.2, 0.5) * np.exp(-0.5 * ((grid - side) / side_width) ** 2))
    return grid, values


class ScanTabulated(ScanWorkload):
    """Sweeps over seeded tabulated pump/pm1/pm2 files: coherence quadrature
    dominates. The delta_l_prime scan needs fresh transforms on every row; the
    delta_phi scan keeps the delays fixed, so every row recomputes identical
    transforms."""

    name = "scan_tabulated"
    tol = TABULATED_TOL

    def make_scans(self) -> list[Scan]:
        rng, size = self.rng, self.size
        shapes = []
        for part, lo, hi in (("pump", 0.8e12, 1.5e12), ("pm1", 1.5e12, 3e12),
                             ("pm2", 1.5e12, 3e12)):
            grid, values = skewed_table(rng, rng.uniform(lo, hi), size["knots"])
            np.savetxt(self.work / f"{part}.txt", np.column_stack([grid, values]), fmt="%.17g")
            shapes.append(Shape("tabulated", file=f"{part}.txt", grid=grid, values=values))
        pump, pm1, pm2 = shapes
        width = lambda s: math.sqrt(np.sum(s.values * s.grid ** 2) / np.sum(s.values)
                                    - (np.sum(s.values * s.grid) / np.sum(s.values)) ** 2)
        lam = rng.uniform(1450.0, 1650.0)
        deg = Source("topdc", (lam, lam, lam), pump, pm1, pm2)
        reach = 4.0 * C / width(pm1)
        lam_a = rng.uniform(760.0, 820.0)
        cpdc = Source("cpdc", (lam_a, 2 * lam_a * rng.uniform(0.97, 1.03),
                               2 * lam_a * rng.uniform(0.97, 1.03)), pump, pm1, pm2)
        fixed = (rng.uniform(0.2, 0.5) * C / width(pump), rng.uniform(0.1, 0.4) * C / width(pm1),
                 rng.uniform(0.1, 0.4) * C / width(pm2), 0.0)
        return [Scan("cat3_delta_l_prime", deg, "delta_l_prime", -reach, reach,
                     size["tab_scan_rows"], (0.0, 0.0, 0.0, math.pi * rng.integers(0, 2)),
                     choice=2),
                Scan("cat1_phase", cpdc, "delta_phi", 0.0, 6 * math.pi,
                     size["tab_phi_rows"], fixed)]


class OracleJoint(Workload):
    """CLI validate on the closed-form Category II source with coupling on, plus
    library calls on a seeded non-separable Tabulated2D: oracle tensor sums and
    the 2D tabulated transform dominate; per-row rate assembly barely runs."""

    name = "oracle_joint"

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        rng, size = self.rng, self.size
        n, ratios = size["oracle_n"], RATIOS[:size["ratios"] - 1] + RATIOS[-1:]
        # the same analytic source as the scan_closed_form sweeps of this seed
        self.source, _ = closed_form_source(
            np.random.default_rng([seed, list(WORKLOADS).index(ScanClosedForm.name)]),
            size["cat2_rows"])
        self.ratios = ratios
        self.fractions = np.linspace(0.0, 1.5, size["delays"])
        self.write_config("validate", "\n".join(self.source.config() + [
            "geometry.delta_l_m = 0", "geometry.delta_l_prime_m = 0",
            "geometry.delta_l_dprime_m = 0", "geometry.delta_phi_rad = 0",
            "validate.ratios = " + ",".join(_num(r) for r in ratios),
            f"validate.coupling_slope = {_num(rng.uniform(0.5, 1.0))}",
            f"validate.n_pump = {n}", f"validate.n_prime = {n}", f"validate.n_dprime = {n}",
            f"validate.n_delays = {size['delays']}", "validate.delay_span_widths = 1.5"]) + "\n")

        # correlated bivariate Gaussian sampled on 161 x 161 knots over +-8 sigma:
        # fine enough that the table's transform and the continuum one agree
        # to far below the 1e-6 tolerance up to 1.8 widths of delay
        s1, s2 = rng.uniform(1.5e12, 3e12, size=2)
        mu1, mu2 = rng.uniform(-0.5, 0.5) * s1, rng.uniform(-0.5, 0.5) * s2
        rho = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.7)
        self.gauss2d = (mu1, mu2, s1, s2, rho)
        g1 = mu1 + np.linspace(-8 * s1, 8 * s1, 161)
        g2 = mu2 + np.linspace(-8 * s2, 8 * s2, 161)
        x, y = (g1[:, None] - mu1) / s1, (g2[None, :] - mu2) / s2
        values = np.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * (1 - rho * rho)))
        self.table2d = work / "joint.npz"
        np.savez(self.table2d, grid1=g1, grid2=g2, values=values)
        self.grids = (g1, g2, values)

        sigma_p = rng.uniform(0.5e12, 1.5e12)
        lam_a = rng.uniform(760.0, 820.0)
        self.joint_lambdas = (lam_a, 2 * lam_a * rng.uniform(0.97, 1.03),
                              2 * lam_a * rng.uniform(0.97, 1.03))
        self.joint_pump = Shape("gaussian", sigma_p, rng.uniform(-0.3, 0.3) * sigma_p)
        self.delays = [DelayTriple(a / sigma_p, b / s1, c / s2)
                       for a, b, c in rng.uniform(0.0, 1.2, size=(size["delays"], 3))]
        self.joint_slope = rng.uniform(0.5, 1.0)
        reach = rng.uniform(1.2, 1.8)
        self.grid_prime = np.linspace(-reach / s1, reach / s1, size["surface"])
        self.grid_dprime = np.linspace(-reach / s2, reach / s2, size["surface"])

        # program-side inputs, built once like any library caller would
        pm = Tabulated2D(g1, g2, values).normalize()
        self.pm = pm
        self.joint_source = SourceModel.cpdc(
            Gaussian(sigma=sigma_p, center_offset=self.joint_pump.offset), pm,
            CentralFrequencies(*(ref.omega_from_nm(x) for x in self.joint_lambdas)))
        self.oracle_cfg = OracleConfig(n_pump=n, n_prime=n, n_dprime=n,
                                       pump_coupling=LinearShift(self.joint_slope))

    def run_pass(self):
        failures = []
        err = _cli(["validate", "--config", str(self.work / "validate.conf"),
                    "--out", str(self.out_dir("validate"))])
        if err:
            failures.append(err)
        raw = {}
        try:
            raw["rows"] = oracle.factorization_error_sweep(
                self.joint_source, self.delays, list(self.ratios), self.oracle_cfg)
        except Exception as e:  # counted as a failure; the measurement goes on
            failures.append(f"factorization_error_sweep: {type(e).__name__}: {e}")
        try:
            raw["surface"] = coherence.coherence_surface(self.pm, self.grid_prime,
                                                         self.grid_dprime)
        except Exception as e:  # counted as a failure; the measurement goes on
            failures.append(f"coherence_surface: {type(e).__name__}: {e}")
        return 3, failures, raw

    def outputs(self, raw) -> dict[str, bytes]:
        out = self.read_outputs(["validate/validate.csv"])
        rows = raw.get("rows") or []
        out["factorization"] = np.array(
            [[r.ratio, r.delays.delta_tau, r.delays.delta_tau_prime,
              r.delays.delta_tau_dprime, r.factorized, r.oracle] for r in rows]).tobytes()
        surface = raw.get("surface") or []
        out["surface"] = np.array([[[c.magnitude, c.phase] for c in row]
                                   for row in surface]).tobytes()
        return out

    def _validate_reference(self):
        """Rows (ratio, delays, factorized) the validate run must produce."""
        src = self.source
        tau = np.array([1.0 / src.pump.width, 1.0 / src.pm1.width, 1.0 / src.pm2.width])
        rows = []
        for ratio in self.ratios:
            factor = ratio * src.pm1.width / src.pump.width
            pump = Shape("gaussian", src.pump.width * factor, src.pump.offset)
            for f in self.fractions:
                dt, dtp, dtd = f * tau
                g, gp, arg = interference(pump, src.carriers(), dt, dtp, dtd, 0.0,
                                          src.g_prime(1, dtp, dtd))
                rows.append([ratio, dt, dtp, dtd, float(2 * g * gp * np.cos(arg))])
        return np.array(rows)

    def _joint_reference(self):
        """Factorized terms of the library sweep under both models of the table."""
        g1, g2, values = self.grids
        pm_width = 0.5 * float(g1[-1] - g1[0])
        sigma_p = self.joint_pump.width
        models = {"bilinear": lambda t1, t2: ref.ft_bilinear(g1, g2, values, t1, t2),
                  "continuum": lambda t1, t2: ref.ft_gaussian2d(*self.gauss2d, t1, t2)}
        carriers = ref.carrier_omegas("cpdc", 1, *map(ref.omega_from_nm, self.joint_lambdas))
        inputs, factorized = [], {m: [] for m in models}
        for ratio in self.ratios:
            pump = Shape("gaussian", sigma_p * (ratio * pm_width / sigma_p),
                         self.joint_pump.offset)
            for d in self.delays:
                inputs.append([ratio, d.delta_tau, d.delta_tau_prime, d.delta_tau_dprime])
                for m, ft in models.items():
                    gp = ft(d.delta_tau_prime, d.delta_tau_dprime)[0, 0]
                    g, gpm, arg = interference(pump, carriers, d.delta_tau, d.delta_tau_prime,
                                               d.delta_tau_dprime, 0.0, gp)
                    factorized[m].append(float(2 * g * gpm * np.cos(arg)))
        surfaces = {m: ft(self.grid_prime, self.grid_dprime) for m, ft in models.items()}
        return np.array(inputs), {m: np.array(v) for m, v in factorized.items()}, surfaces

    def _joint_gaps(self, outputs):
        """Per model of the table: worst gap of the factorized column and of the surface."""
        inputs, factorized, surfaces = self._joint_reference()
        fac = np.frombuffer(outputs["factorization"])
        surf = np.frombuffer(outputs["surface"])
        n = len(self.grid_prime) * len(self.grid_dprime)
        if fac.size != inputs.shape[0] * 6 or surf.size != 2 * n:
            return math.inf, {m: (math.inf, math.inf) for m in factorized}
        fac = fac.reshape(-1, 6)
        z = surf.reshape(-1, 2)
        z = (z[:, 0] * np.exp(1j * z[:, 1])).reshape(len(self.grid_prime), -1)
        input_err = 0.0 if np.array_equal(fac[:, :4], inputs) else math.inf
        gaps = {m: (float(np.max(np.abs(fac[:, 4] - factorized[m]))) / 2.0,
                    float(np.max(np.abs(z - surfaces[m])))) for m in factorized}
        return input_err, gaps

    def check(self, outputs) -> list[Check]:
        out = []
        rows = _table(outputs["validate/validate.csv"])[1:]
        expected = self._validate_reference()
        if len(rows) == len(expected):
            got = np.array([[float(v) for v in r] for r in rows])
            scale = np.max(np.abs(expected[:, :4]), axis=0)
            err = max(float(np.max(np.abs(got[:, :4] - expected[:, :4]) / scale)),
                      float(np.max(np.abs(got[:, 4] - expected[:, 4]))) / 2.0)
        else:
            err = math.inf
        out.append(Check("validate/validate.csv:factorized", err, CLOSED_FORM_TOL))
        # the program's 2D tabulated transform must match one model of the table
        # throughout: the exact transform of its bilinear interpolant, or the
        # transform of the Gaussian it samples (see README.md)
        input_err, gaps = self._joint_gaps(outputs)
        fac_err = min(g[0] for g in gaps.values())
        surf_err = min(g[1] for g in gaps.values())
        out.append(Check("factorization_error_sweep:factorized", max(input_err, fac_err),
                         JOINT_TOL))
        out.append(Check("coherence_surface", surf_err, JOINT_TOL))
        return out

    def diagnostics(self, outputs) -> dict[str, float]:
        """Oracle gap to the factorized reference, and the 2D transform's gap per model."""
        rows = _table(outputs["validate/validate.csv"])[1:]
        expected = self._validate_reference()
        diag = {}
        if len(rows) == len(expected):
            got = np.array([[float(v) for v in r] for r in rows])
            # at the narrowest pump the coupling barely acts, so what is left is
            # the oracle's own error (tail truncation of the heavy-tailed shapes)
            narrow = expected[:, 0] == min(self.ratios)
            diag["oracle.ref_gap"] = float(np.max(np.abs(got[narrow, 5] - expected[narrow, 4]))) / 2.0
        _, gaps = self._joint_gaps(outputs)
        diag["coherence.tab2d.bilinear_gap"] = max(gaps["bilinear"])
        diag["coherence.tab2d.continuum_gap"] = max(gaps["continuum"])
        return diag


WORKLOADS = {w.name: w for w in (ScanClosedForm, ScanTabulated, OracleJoint)}
