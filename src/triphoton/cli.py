"""Command-line front end: config parsing, sweep/validate/reduce subcommands.

Configuration format: UTF-8 text (a leading byte-order mark is dropped),
flat ``key = value`` lines with dotted section prefixes, ``#`` comments,
case-sensitive keys. Frequencies are declared as central wavelengths in
nm, spectral widths in rad/s, lengths in meters, phases in radians;
everything is converted to internal units at parse time.

Sections::

    source.type = cpdc | topdc
    source.lambda_a_nm / lambda_b_nm / lambda_c_nm
    source.pump.shape = gaussian | lorentzian | sinc_squared | tabulated
    source.pump.sigma_rad_s          (gaussian)
    source.pump.gamma_rad_s          (lorentzian)
    source.pump.width_rad_s          (sinc_squared)
    source.pump.file                 (tabulated: two-column detuning/value)
    source.pump.center_offset_rad_s  (optional, default 0)
    source.pm1.* / source.pm2.*      (same schema; separable joint density)
    geometry.length_a1_m ... length_p2_m, phase_a1_rad ... phase_p2_rad
        or geometry.delta_l_m / delta_l_prime_m / delta_l_dprime_m / delta_phi_rad
    geometry.topdc_choice = 1 | 2 | 3  (cpdc: 1 only)
    amplitudes.k1 / k2 / c_mag_sq    (optional; default equal, baseline 1)
    sweep.variable = delta_phi | delta_l | delta_l_prime | delta_l_dprime | diagonal
    sweep.start / sweep.stop / sweep.n_points
    validate.ratios = 1,0.3,0.1      (comma separated)
    validate.coupling_slope / n_pump / n_prime / n_dprime
    validate.support_multiplier / delay_span_widths / n_delays
    output.csv_precision             (significant digits, default 12)
    output.directory                 (overridden by --out)

``sweep`` writes sweep.csv and metrics.csv, ``validate`` writes
validate.csv, ``reduce`` prints the reduced geometry in config syntax so
it can be pasted back as a direct-reduced geometry. Every run writes
run_meta.json (config hash, tool version, wall time). Runs are
deterministic: identical configs give byte-identical CSVs.

Every output is written as a new file, never truncated in place
(``_new_file``). A run removes any run_meta.json first and writes its own
last, so an interrupted run leaves none.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .coherence import DelayTriple
from .errors import (CarrierPhaseOverflowError, InsufficientSamplingError,
                     NormalizationError, ParseError, ValidationError)
from .experiments import (SweepSpec, SweepTable, SweepVariable,
                          extract_dip_profile, extract_fringe_metrics, run_sweep)
from .oracle import (LinearShift, OracleConfig, _pump_rescale_factor,
                     factorization_error_sweep)
from .pathgeom import (CentralFrequencies, PathConfiguration, ReducedParameters,
                       SourceKind, _LENGTH_FIELDS, _PHASE_FIELDS, _TOPDC_LABELS,
                       carrier_wavenumbers, reduce_cpdc, reduce_topdc)
from .rates import AlternativeAmplitudes, SourceModel
from .spectra import (Gaussian, Lorentzian, Separable, SincSquared, Tabulated,
                      joint_widths)

# geometry.* key -> PathConfiguration field (the eight-length form) or
# ReducedParameters field (the direct form, which ``reduce`` prints)
_EIGHT_KEYS = {**{f"length_{f.partition('_')[2]}_m": f for f in _LENGTH_FIELDS},
               **{f"phase_{f.partition('_')[2]}_rad": f for f in _PHASE_FIELDS}}
_DIRECT_KEYS = {"delta_l_m": "delta_l", "delta_l_prime_m": "delta_l_prime",
                "delta_l_dprime_m": "delta_l_dprime", "delta_phi_rad": "delta_phi"}


@dataclass(frozen=True)
class ValidateSpec:
    """Oracle comparison settings for the ``validate`` subcommand."""

    ratios: tuple[float, ...] = (1.0, 0.3, 0.1, 0.03, 0.01)
    oracle: OracleConfig = OracleConfig(n_pump=65, n_prime=65, n_dprime=65)
    delay_span_widths: float = 1.5
    n_delays: int = 3


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration in internal units."""

    source: SourceModel
    geometry: ReducedParameters
    path_config: PathConfiguration | None
    amps: AlternativeAmplitudes
    sweep: SweepSpec | None
    validate: ValidateSpec
    csv_precision: int
    out_dir: str | None
    config_text: str


class _KeyStore:
    """Parsed key/value lines with consumption tracking."""

    def __init__(self, text: str):
        self.entries: dict[str, tuple[str, int]] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {raw.strip()!r}",
                                 line_no=line_no)
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ParseError("empty key", line_no=line_no)
            if key in self.entries:
                raise ParseError(f"duplicate key {key!r}", line_no=line_no)
            self.entries[key] = (value, line_no)
        self._unused = set(self.entries)

    def has(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str, default=None, required: bool = False) -> str | None:
        if key not in self.entries:
            if required:
                raise ValidationError(f"missing required key {key!r}")
            return default
        self._unused.discard(key)
        return self.entries[key][0]

    def get_float(self, key: str, default=None, required: bool = False):
        raw = self.get(key, required=required)
        return default if raw is None else self._finite(key, raw)

    def get_floats(self, key: str, default: tuple[float, ...]) -> tuple[float, ...]:
        """A comma-separated list of finite numbers."""
        raw = self.get(key)
        if raw is None:
            return default
        return tuple(self._finite(key, t.strip()) for t in raw.split(","))

    def _finite(self, key: str, raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):  # no quantity of the format may be inf or nan
            raise ParseError(f"{key}: {raw!r} is not a finite number",
                             line_no=self.entries[key][1])
        return value

    def get_int(self, key: str, default=None, required: bool = False):
        raw = self.get(key, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ParseError(f"{key}: {raw!r} is not an integer",
                             line_no=self.entries[key][1]) from None

    def finish(self) -> None:
        if self._unused:
            key = sorted(self._unused)[0]
            raise ValidationError(f"unknown key {key!r}")


# analytic shape -> density class; its width key is its width field in rad/s
_SHAPES = {"gaussian": Gaussian, "lorentzian": Lorentzian, "sinc_squared": SincSquared}


def _build_density(store: _KeyStore, prefix: str, base_dir: Path):
    shape = store.get(f"{prefix}.shape", required=True).lower()
    offset = store.get_float(f"{prefix}.center_offset_rad_s", default=0.0)
    if shape in _SHAPES:
        cls = _SHAPES[shape]
        width = store.get_float(f"{prefix}.{cls._width_field}_rad_s", required=True)
        try:  # the density checks its own width and offset
            return cls(**{cls._width_field: width}, center_offset=offset)
        except ValueError as e:
            raise ValidationError(f"{prefix}: {e}") from e
    if shape == "tabulated":
        rel = store.get(f"{prefix}.file", required=True)
        path = Path(rel)
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ValidationError(f"{prefix}.file: no such file: {path}")
        try:
            return Tabulated.from_file(path, center_offset=offset).normalize()
        except (OSError, ValueError, NormalizationError) as e:  # a directory, say
            raise ValidationError(f"{prefix}.file: {e}") from e
    raise ValidationError(f"{prefix}.shape: unknown shape {shape!r}")


def _build_geometry(store: _KeyStore, kind: SourceKind):
    eight = [k for k in _EIGHT_KEYS if store.has(f"geometry.{k}")]
    direct = [k for k in _DIRECT_KEYS if store.has(f"geometry.{k}")]
    choice = store.get_int("geometry.topdc_choice", default=1)
    if choice not in _TOPDC_LABELS:
        raise ValidationError("geometry.topdc_choice must be 1, 2 or 3")
    if choice != 1 and kind is SourceKind.CPDC:
        raise ValidationError("geometry.topdc_choice must be 1 for a cpdc source")
    if eight and direct:
        raise ValidationError(
            "geometry overspecified: give either the eight-length form or the "
            "direct reduced form, not both")
    if not eight and not direct:
        raise ValidationError(
            "geometry underspecified: give eight lengths/phases or the direct "
            "reduced parameters")
    if direct:
        return ReducedParameters(
            **{field: store.get_float(f"geometry.{k}", default=0.0)
               for k, field in _DIRECT_KEYS.items()},
            topdc_choice=choice), None
    arms = {field: store.get_float(f"geometry.{k}", default=0.0)
            for k, field in _EIGHT_KEYS.items()}
    try:  # the reduced lengths and phase can overflow even when every input is finite
        pc = PathConfiguration(**arms)
        reduced = reduce_topdc(pc, choice) if kind is SourceKind.TOPDC else reduce_cpdc(pc)
    except ValueError as e:
        raise ValidationError(f"geometry: {e}") from e
    return reduced, pc


def parse_config(text: str, base_dir: Path | str = ".") -> RunConfig:
    """Parse and validate configuration text into internal units."""
    base_dir = Path(base_dir)
    store = _KeyStore(text)

    type_raw = store.get("source.type", required=True).lower()
    try:
        kind = SourceKind(type_raw)
    except ValueError:
        raise ValidationError(f"source.type must be cpdc or topdc, got {type_raw!r}") \
            from None

    wavelengths = {}
    for key in ("source.lambda_a_nm", "source.lambda_b_nm", "source.lambda_c_nm"):
        v = store.get_float(key, required=True)
        if not v > 0:
            raise ValidationError(f"{key} must be positive, got {v!r}")
        wavelengths[key] = v
    centrals = CentralFrequencies.from_wavelengths_nm(
        wavelengths["source.lambda_a_nm"], wavelengths["source.lambda_b_nm"],
        wavelengths["source.lambda_c_nm"])

    pump = _build_density(store, "source.pump", base_dir)
    pm = Separable(_build_density(store, "source.pm1", base_dir),
                   _build_density(store, "source.pm2", base_dir))
    source = SourceModel(kind, pump, pm, centrals)

    geometry, path_config = _build_geometry(store, kind)

    k1 = store.get_float("amplitudes.k1", default=math.sqrt(0.5))
    k2 = store.get_float("amplitudes.k2", default=math.sqrt(0.5))
    c_sq = store.get_float("amplitudes.c_mag_sq", default=1.0)
    try:
        amps = AlternativeAmplitudes(k1_mag=k1, k2_mag=k2, c_mag_sq=c_sq)
    except ValueError as e:
        raise ValidationError(f"amplitudes: {e}") from e

    sweep = None
    if store.has("sweep.variable"):
        var_raw = store.get("sweep.variable").lower()
        try:
            variable = SweepVariable(var_raw)
        except ValueError:
            raise ValidationError(
                f"sweep.variable: unknown variable {var_raw!r}") from None
        start = store.get_float("sweep.start", required=True)
        stop = store.get_float("sweep.stop", required=True)
        n = store.get_int("sweep.n_points", required=True)
        try:
            sweep = SweepSpec(variable, start, stop, n, geometry, source, amps)
        except CarrierPhaseOverflowError as e:  # the geometry or the range, not one key
            raise ValidationError(str(e)) from e
        except ValueError as e:
            raise ValidationError(f"sweep.{e}") from e  # names the sweep.* key

    defaults = ValidateSpec()
    ratios = store.get_floats("validate.ratios", default=defaults.ratios)
    if any(r <= 0 for r in ratios):
        raise ValidationError("validate.ratios must be positive numbers")
    slope = store.get_float("validate.coupling_slope", default=0.0)
    grid = {n: store.get_int(f"validate.{n}", default=getattr(defaults.oracle, n))
            for n in ("n_pump", "n_prime", "n_dprime")}
    multiplier = store.get_float("validate.support_multiplier",
                                 default=defaults.oracle.support_multiplier)
    try:  # the oracle checks its own grid
        oracle = OracleConfig(**grid, support_multiplier=multiplier,
                              pump_coupling=LinearShift(slope) if slope else None)
    except ValueError as e:
        raise ValidationError(f"validate.{e}") from e  # names the validate.* key
    n_delays = store.get_int("validate.n_delays", default=defaults.n_delays)
    if n_delays < 1:
        raise ValidationError("validate.n_delays must be at least 1")
    validate = ValidateSpec(
        ratios=ratios, oracle=oracle,
        delay_span_widths=store.get_float("validate.delay_span_widths",
                                          default=defaults.delay_span_widths),
        n_delays=n_delays)

    precision = store.get_int("output.csv_precision", default=12)
    if not 1 <= precision <= 17:
        raise ValidationError("output.csv_precision must be between 1 and 17")
    out_dir = store.get("output.directory")

    store.finish()
    return RunConfig(
        source=source, geometry=geometry, path_config=path_config, amps=amps,
        sweep=sweep, validate=validate, csv_precision=precision, out_dir=out_dir,
        config_text=text,
    )


_BLOCK = 1024  # CSV lines formatted and written at a time


def _folded_lines(precision: int, prefix: str, columns) -> _Lines:
    """Per row of equal-length float columns, ``prefix`` and then each column
    to ``precision`` significant digits (``%.{precision}g``), comma-separated;
    but a column whose 64 bits are the same on every row is formatted once,
    into the line template, so each line formats only the columns that vary
    (bits, not ``==``: -0.0 prints apart from 0.0, and a NaN is never ``==``
    itself)."""
    field, fields, varying = f"%.{precision}g", [], []
    for c in columns:
        bits = c.view(np.int64)
        if bits.size and (bits == bits[0]).all():
            fields.append(field % float(c[0]))  # %g text holds no '%' to escape
        else:
            fields.append(field)
            varying.append(c)
    return _Lines(prefix + ",".join(fields) + "\n", varying, len(columns[0]))


class _Lines:
    """CSV lines of ``n_rows`` rows of numpy columns; a sequence of rows, so
    callers can size it and slice it, whose iteration yields the text of
    ``_BLOCK`` lines at a time, each block formatted by one ``%`` call."""

    def __init__(self, line: str, columns, n_rows: int):
        self._line, self._columns, self._n_rows = line, columns, n_rows

    def __len__(self) -> int:
        return self._n_rows

    def __getitem__(self, rows: slice) -> _Lines:
        return _Lines(self._line, [c[rows] for c in self._columns],
                      len(range(self._n_rows)[rows]))

    def __iter__(self):
        for start in range(0, len(self), _BLOCK):
            n = min(_BLOCK, len(self) - start)
            args = ()  # no column varies: every field is in the template
            if self._columns:
                args = tuple(np.column_stack([c[start:start + n] for c in self._columns])
                             .ravel().tolist())
            yield (self._line * n) % args


def _new_file(path: Path):
    """Open ``path`` for UTF-8 text with ``\\n`` line ends: the one place
    that opens an output. A file there that this process may write (an
    earlier run's output) is removed first, so the output is a new file,
    never truncated in place: a link there is replaced, not written
    through. Anything else is left to ``open``, which creates a missing
    file and refuses a read-only one as it always did. On ext4 this spares
    a rerun the write-back that closing a truncated file starts
    (``auto_da_alloc``); the price is that a machine crash soon after a
    rerun can leave its outputs empty."""
    if os.access(path, os.W_OK):
        path.unlink()
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header, then the text that iterating ``rows`` gives: whole
    lines, newline included, one or a block of them at a time, so a
    ``_Lines`` table is never held as text at once."""
    with _new_file(path) as f:
        f.write(",".join(header) + "\n")
        f.writelines(rows)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field (RFC 4180): quoted, with its quotes doubled,
    when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _sweep_metrics_rows(table: SweepTable, precision: int) -> list[str]:
    fringe_like = table.variable in (SweepVariable.DELTA_PHI, SweepVariable.DELTA_L)
    num = f"%.{precision}g".__mod__
    try:
        if fringe_like:
            m = extract_fringe_metrics(table)
            return ["status,ok",
                    f"visibility,{num(m.visibility)}",
                    f"period,{num(m.period)}",
                    f"envelope_halfwidth,{num(m.envelope_halfwidth)}"]
        p = extract_dip_profile(table)
        return ["status,ok",
                f"extremum_kind,{p.extremum_kind.value}",
                f"depth,{num(p.depth)}",
                f"fwhm,{num(p.fwhm)}",
                f"not_monotone,{str(p.not_monotone).lower()}"]
    except (InsufficientSamplingError, ValueError) as e:
        return ["status,extraction_failed", f"reason,{_csv_field(str(e))}"]


def run_sweep_cmd(config: RunConfig, out_dir: Path) -> list[Path]:
    if config.sweep is None:
        raise ValidationError("sweep subcommand requires a sweep section")
    table = run_sweep(config.sweep)
    prec = config.csv_precision
    columns = (table.values, table.rates, table.gamma_mag, table.gamma_prime_mag,
               table.cosine_argument)
    sweep_path = out_dir / "sweep.csv"
    _write_csv(sweep_path, ["parameter_name", "parameter_value", "rate",
                            "gamma_mag", "gamma_prime_mag", "cosine_argument"],
               _folded_lines(prec, table.variable.value + ",", columns))
    metrics_path = out_dir / "metrics.csv"
    _write_csv(metrics_path, ["field", "value"],
               [f"{line}\n" for line in _sweep_metrics_rows(table, prec)])
    return [sweep_path, metrics_path]


def _validate_inputs(config: RunConfig) -> list[DelayTriple]:
    """The delay triples of ``validate``; a delay or a pump rescale factor that
    overflows raises a ValidationError naming the keys it comes from."""
    src, spec = config.source, config.validate
    w_pump, (w1, w2) = src.pump.characteristic_width, joint_widths(src.phase_matching)
    fractions = np.linspace(0.0, spec.delay_span_widths, spec.n_delays).tolist()
    columns = []
    for name, section, width in (("delta_tau", "source.pump", w_pump),
                                 ("delta_tau_prime", "source.pm1", w1),
                                 ("delta_tau_dprime", "source.pm2", w2)):
        tau = 1.0 / width
        columns.append([f * tau for f in fractions])  # on floats: no numpy warning
        if not all(map(math.isfinite, columns[-1])):
            raise ValidationError(
                f"validate.delay_span_widths = {spec.delay_span_widths!r} inverse widths "
                f"of the {section} width {width!r} rad/s overflow {name}")
    for ratio in spec.ratios:
        factor = _pump_rescale_factor(src, ratio)
        if not 0.0 < factor < math.inf:
            raise ValidationError(
                f"validate.ratios: {ratio!r} x the source.pm1 width {w1!r} rad/s / the "
                f"source.pump width {w_pump!r} rad/s gives a pump rescale factor of "
                f"{factor!r}")
    return [DelayTriple(*row) for row in zip(*columns)]


def run_validate_cmd(config: RunConfig, out_dir: Path) -> list[Path]:
    spec = config.validate
    delays = _validate_inputs(config)
    try:
        rows = factorization_error_sweep(config.source, delays, list(spec.ratios),
                                         spec.oracle)
    except ValueError as e:  # from the sweep, CarrierPhaseOverflowError too
        raise ValidationError(str(e)) from e
    columns = [np.array(c) for c in zip(*(
        (r.ratio, r.delays.delta_tau, r.delays.delta_tau_prime, r.delays.delta_tau_dprime,
         r.factorized, r.oracle, r.rel_error) for r in rows))]
    path = out_dir / "validate.csv"
    _write_csv(path, ["ratio", "delta_tau", "delta_tau_prime", "delta_tau_dprime",
                      "factorized", "oracle", "rel_error"],
               _folded_lines(config.csv_precision, "", columns))
    return [path]


def _reduce_block(reduced: ReducedParameters, kind: SourceKind,
                  centrals: CentralFrequencies) -> list[str]:
    lines = [f"geometry.{k} = {getattr(reduced, field)!r}"
             for k, field in _DIRECT_KEYS.items()]
    if kind is SourceKind.TOPDC:
        lines.append(f"geometry.topdc_choice = {reduced.topdc_choice}")
    kp, k1, k2 = carrier_wavenumbers(centrals, kind, reduced.topdc_choice)
    lines.append(f"# carriers rad/m: k_p0 = {kp!r}, k0_prime = {k1!r}, "
                 f"k0_dprime = {k2!r}")
    return lines


def run_reduce_cmd(config: RunConfig, out_dir: Path) -> list[Path]:
    kind = config.source.kind
    centrals = config.source.centrals
    lines = [f"# reduced geometry (source.type = {kind.value})"]
    if config.path_config is not None and kind is SourceKind.TOPDC:
        for choice in _TOPDC_LABELS:
            lines.append(f"# choice {choice}")
            lines.extend(_reduce_block(reduce_topdc(config.path_config, choice),
                                       kind, centrals))
    else:
        lines.extend(_reduce_block(config.geometry, kind, centrals))
    print("\n".join(lines))
    return []


def run(subcommand: str, config: RunConfig, out_dir: Path) -> list[Path]:
    """Dispatch a subcommand; returns the files written (besides run_meta)."""
    # only the manifest needs these, so config parsing skips the imports
    # (hashlib loads OpenSSL's _hashlib)
    import hashlib
    import json

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_meta.json").unlink(missing_ok=True)  # no manifest, no result
    started = time.perf_counter()
    if subcommand == "sweep":
        outputs = run_sweep_cmd(config, out_dir)
    elif subcommand == "validate":
        outputs = run_validate_cmd(config, out_dir)
    elif subcommand == "reduce":
        outputs = run_reduce_cmd(config, out_dir)
    else:
        raise ValidationError(f"unknown subcommand {subcommand!r}")
    meta = {
        "subcommand": subcommand,
        "config_sha256": hashlib.sha256(config.config_text.encode("utf-8")).hexdigest(),
        "tool_version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "outputs": [p.name for p in outputs],
    }
    with _new_file(out_dir / "run_meta.json") as f:
        f.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return outputs


@functools.cache  # one parser per process, however many times main runs
def _build_parser():
    import argparse  # only the command line needs it, so config parsing skips the import

    parser = argparse.ArgumentParser(
        prog="triphoton",
        description="Temporal three-photon interference simulator")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, text in (("sweep", "run a parameter sweep and extract metrics"),
                       ("validate", "compare the factorized engine to the 3D oracle"),
                       ("reduce", "print the reduced length parameters")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--out", default=None,
                       help="output directory (default: output.directory from "
                            "the config, else ./triphoton_out)")
    return parser


def _read_config(path: Path) -> str:
    """The text of the config file at ``path``: UTF-8, a leading byte-order mark
    (as some editors save) dropped. Bytes that are not UTF-8 raise an
    ``OSError`` naming the first bad byte, its offset in the file and the path."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:  # a ValueError, which main's OSError rule would miss
        offset = path.stat().st_size - len(e.object) + e.start  # counting any mark
        raise OSError(f"not UTF-8: byte 0x{e.object[e.start]:02x} at offset {offset}: "
                      f"{str(path)!r}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    failing = "ConfigFileError"  # what an OSError names: the config file, then the output
    try:
        text = _read_config(Path(args.config))
        failing = "OutputError"  # parse_config names a table file's OSError itself
        config = parse_config(text, base_dir=Path(args.config).resolve().parent)
        out_dir = Path(args.out or config.out_dir or "triphoton_out")
        run(args.subcommand, config, out_dir)
    except (ParseError, ValidationError, InsufficientSamplingError,
            NormalizationError, OSError) as e:
        name = failing if isinstance(e, OSError) else type(e).__name__
        message = " ".join(str(e).split())
        print(f"error: {name}: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
