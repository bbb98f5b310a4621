import csv
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import triphoton
from triphoton import cli
from triphoton.cli import main, parse_config, run_sweep_cmd
from triphoton.errors import ParseError, ValidationError
from triphoton.experiments import SweepVariable, run_sweep
from triphoton.oracle import factorization_error_sweep
from triphoton.pathgeom import SourceKind
from triphoton.rates import rate_length

MINIMAL_SOURCE = """\
source.type = cpdc
source.lambda_a_nm = 777.6
source.lambda_b_nm = 1555.2
source.lambda_c_nm = 1555.2
source.pump.shape = gaussian
source.pump.sigma_rad_s = 1e12
source.pm1.shape = gaussian
source.pm1.sigma_rad_s = 2e12
source.pm2.shape = gaussian
source.pm2.sigma_rad_s = 3e12
"""

CATEGORY_I = MINIMAL_SOURCE + """\
geometry.delta_l_m = 0
geometry.delta_l_prime_m = 0
geometry.delta_l_dprime_m = 0
geometry.delta_phi_rad = 0
sweep.variable = delta_phi
sweep.start = 0
sweep.stop = 6.283185307179586
sweep.n_points = 9
"""


class TestParseConfig:
    def test_minimal_direct_geometry(self):
        cfg = parse_config(CATEGORY_I)
        assert cfg.source.kind is SourceKind.CPDC
        assert cfg.geometry.delta_l == 0.0
        assert cfg.sweep is not None
        assert cfg.sweep.variable is SweepVariable.DELTA_PHI
        assert cfg.csv_precision == 12
        # wavelengths converted: pump frequency is the sum of the three
        w = cfg.source.centrals
        assert w.omega_p0 == pytest.approx(
            2 * math.pi * 299792458.0 * (1 / 777.6e-9 + 2 / 1555.2e-9), rel=1e-12)

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n" + CATEGORY_I + "\n# trailing\n"
        assert parse_config(text).sweep.n_points == 9

    def test_eight_length_geometry_reduces(self):
        text = MINIMAL_SOURCE + "geometry.length_a1_m = 2.0\n"
        cfg = parse_config(text)
        assert cfg.geometry.delta_l == pytest.approx(1.0)
        assert cfg.geometry.delta_l_prime == pytest.approx(1.0)
        assert cfg.path_config is not None

    def test_overspecified_geometry(self):
        text = MINIMAL_SOURCE + "geometry.length_a1_m = 1\ngeometry.delta_l_m = 0\n"
        with pytest.raises(ValidationError, match="overspecified"):
            parse_config(text)

    def test_underspecified_geometry(self):
        with pytest.raises(ValidationError, match="underspecified"):
            parse_config(MINIMAL_SOURCE)

    def test_negative_wavelength_names_key(self):
        text = CATEGORY_I.replace("source.lambda_b_nm = 1555.2",
                                  "source.lambda_b_nm = -10")
        with pytest.raises(ValidationError, match="source.lambda_b_nm"):
            parse_config(text)

    @pytest.mark.parametrize("line, message", [
        ("source.pm1.sigma_rad_s = -2e12",
         "source.pm1: sigma must be finite and positive, got -2000000000000.0"),
        ("source.pump.sigma_rad_s = 0", "source.pump: sigma must be finite and "
                                        "positive, got 0.0"),
    ])
    def test_bad_density_parameter_names_section(self, tmp_path, capsys, line,
                                                  message):
        key = line.split(" = ")[0]
        text = "".join(l for l in CATEGORY_I.splitlines(keepends=True)
                       if not l.startswith(key + " ")) + line + "\n"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            parse_config(text)
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="sweep.stpo"):
            parse_config(CATEGORY_I + "sweep.stpo = 1\n")

    def test_missing_equals_is_parse_error(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("source.type = cpdc\nbogus line\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config("a.b = 1\na.b = 2\n")

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match="sweep.start"):
            parse_config(CATEGORY_I.replace("sweep.start = 0", "sweep.start = zero"))

    @pytest.mark.parametrize("old, new, message", [
        ("sweep.n_points = 9", "sweep.n_points = 2",
         "sweep.n_points must be at least 3"),
        ("sweep.start = 0", "sweep.start = 7", "sweep.start must be below stop"),
    ])
    def test_sweep_range_names_key(self, tmp_path, capsys, old, new, message):
        text = CATEGORY_I.replace(old, new)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            parse_config(text)
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"

    @pytest.mark.parametrize("text, message", [
        (CATEGORY_I + "amplitudes.k1 = 1e200\namplitudes.k2 = 1e200\n",
         "amplitudes: the peak rate 2 * c_mag_sq * (k1_mag**2 + k2_mag**2) overflows"),
        (CATEGORY_I + "amplitudes.c_mag_sq = 1e300\namplitudes.k2 = 1e10\n",
         "amplitudes: the peak rate 2 * c_mag_sq * (k1_mag**2 + k2_mag**2) overflows"),
        (CATEGORY_I.replace("sweep.variable = delta_phi", "sweep.variable = Delta_X"),
         "sweep.variable: unknown variable 'delta_x'"),
    ], ids=["k1_k2_overflow", "c_mag_sq_overflow", "unknown_sweep_variable"])
    def test_bad_amplitudes_or_variable_named(self, tmp_path, capsys, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_config(text)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        ("geometry.length_a1_m = 1e308\ngeometry.length_p1_m = 1.7e308\n",
         "geometry: delta_l must be finite, got inf"),
        ("geometry.phase_a1_rad = 1.7e308\ngeometry.phase_b1_rad = 1.7e308\n",
         "geometry: delta_phi must be finite, got inf"),
    ])
    def test_overflowing_reduction_rejected(self, tmp_path, capsys, lines, message):
        # every key is finite, but the reduced geometry overflows
        cfg = write_config(tmp_path, MINIMAL_SOURCE + lines)
        assert main(["reduce", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"

    def test_overflowing_carrier_phase_rejected(self, tmp_path, capsys):
        # every key is finite, but omega_p0 * delta_l / c overflows; before the
        # check the sweep exited 0 with NaN rates and RuntimeWarnings
        text = CATEGORY_I.replace("geometry.delta_l_m = 0", "geometry.delta_l_m = 1e308")
        message = ("the carrier phase overflows at the sweep start: delta_l = 1e+308, "
                   "delta_l_prime = 0.0, delta_l_dprime = 0.0 m, delta_phi = 0.0 rad")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_config(text)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"
        assert not (out / "sweep.csv").exists()

    def test_sweep_range_overflow_rejected(self, tmp_path, capsys):
        text = (CATEGORY_I.replace("sweep.start = 0", "sweep.start = -1.7e308")
                .replace("sweep.stop = 6.283185307179586", "sweep.stop = 1.7e308"))
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: ValidationError: sweep.start and stop must be a finite "
            "distance apart\n")

    @pytest.mark.parametrize("old, new", [
        ("sweep.stop = 6.283185307179586", "sweep.stop = inf"),
        ("geometry.delta_phi_rad = 0", "geometry.delta_phi_rad = nan"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, old, new):
        text = CATEGORY_I.replace(old, new)
        key, raw = new.split(" = ")
        message = f"{key}: '{raw}' is not a finite number"
        with pytest.raises(ParseError, match=message):
            parse_config(text)
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError:") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("line, error, message", [
        ("validate.n_pump = 10", ValidationError, "validate.n_pump must be at least 32"),
        ("validate.support_multiplier = 2", ValidationError,
         "validate.support_multiplier must be at least 4"),
        ("validate.n_delays = -1", ValidationError, "validate.n_delays must be at least 1"),
        ("validate.n_delays = 0", ValidationError, "validate.n_delays must be at least 1"),
        ("validate.ratios = 1,inf", ParseError,
         "line 12: validate.ratios: 'inf' is not a finite number"),
        ("validate.ratios = nan", ParseError,
         "line 12: validate.ratios: 'nan' is not a finite number"),
    ])
    def test_bad_validate_key_named(self, tmp_path, capsys, line, error, message):
        text = MINIMAL_SOURCE + "geometry.delta_l_m = 0\n" + line + "\n"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            parse_config(text)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error.__name__}: {message}\n"
        assert not (out / "validate.csv").exists()

    def test_tabulated_pump_from_file(self, tmp_path):
        grid = np.linspace(-3e12, 3e12, 33)
        vals = np.maximum(0.0, 1 - (grid / 3e12) ** 2)
        np.savetxt(tmp_path / "pump.txt", np.column_stack([grid, vals]))
        text = CATEGORY_I.replace(
            "source.pump.shape = gaussian\nsource.pump.sigma_rad_s = 1e12",
            "source.pump.shape = tabulated\nsource.pump.file = pump.txt")
        cfg = parse_config(text, base_dir=tmp_path)
        assert cfg.source.pump.is_normalized

    def test_missing_tabulated_file(self, tmp_path):
        text = CATEGORY_I.replace(
            "source.pump.shape = gaussian\nsource.pump.sigma_rad_s = 1e12",
            "source.pump.shape = tabulated\nsource.pump.file = nope.txt")
        with pytest.raises(ValidationError, match="no such file"):
            parse_config(text, base_dir=tmp_path)

    @pytest.mark.parametrize("form", ["eight_lengths", "direct"])
    def test_readme_example_parses(self, form):
        # pins the README's config example to the parser's key tables, with its
        # commented direct-geometry lines in place of the eight-length ones too
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        text = readme.split("```ini\n")[1].split("```")[0]
        if form == "direct":
            text = "\n".join(line[2:] if line.startswith("# geometry.") else line
                             for line in text.splitlines()
                             if not line.startswith(("geometry.length_", "geometry.phase_")))
        cfg = parse_config(text)
        assert (cfg.path_config is None) == (form == "direct")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSweepCommand:
    def test_category_i_csv(self, tmp_path):
        cfg = write_config(tmp_path, CATEGORY_I)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("parameter_name,parameter_value,rate,gamma_mag,"
                            "gamma_prime_mag,cosine_argument")
        assert len(lines) == 10
        # row 5 is delta_phi = pi: destructive
        rate_at_pi = float(lines[5].split(",")[2])
        assert abs(rate_at_pi) <= 1e-12
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["subcommand"] == "sweep"
        assert meta["tool_version"]

    def test_manifest_holds_the_config_digest(self, tmp_path):
        cfg = write_config(tmp_path, "# comment\n" + CATEGORY_I)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()

    def test_interrupted_rerun_leaves_no_manifest(self, tmp_path, monkeypatch):
        # a rerun that dies inside a CSV must not leave the earlier run's
        # run_meta.json beside its partial outputs: no manifest, no result
        cfg = write_config(tmp_path, CATEGORY_I)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "run_meta.json").exists()

        def dies_after_header(path, header, rows):
            path.write_text(",".join(header) + "\n", encoding="utf-8")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_write_csv", dies_after_header)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert (out / "sweep.csv").read_text().count("\n") == 1
        assert not (out / "run_meta.json").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, CATEGORY_I)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        main(["sweep", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_dip_metrics_for_asymmetry_sweep(self, tmp_path):
        text = MINIMAL_SOURCE.replace("777.6", "781.25").replace("1555.2", "1562.5")
        width = 299792458.0 / 2e12
        text += (
            "geometry.delta_phi_rad = 3.141592653589793\n"
            "sweep.variable = delta_l_prime\n"
            f"sweep.start = {-4 * width}\n"
            f"sweep.stop = {4 * width}\n"
            "sweep.n_points = 201\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = dict(line.split(",", 1) for line in
                       (out / "metrics.csv").read_text().splitlines()[1:])
        assert metrics["status"] == "ok"
        assert metrics["extremum_kind"] == "dip"
        assert float(metrics["depth"]) == pytest.approx(1.0, abs=1e-9)

    def test_tabulated_center_offset_shifts_the_table(self, tmp_path):
        # a Category II scan over a tabulated pump: the offset sets g's phase
        grid = np.linspace(-6e13, 6e13, 121)
        table = np.column_stack([grid, np.exp(-0.5 * (grid / 1e13) ** 2)])
        offset = 3e12
        np.savetxt(tmp_path / "pump.txt", table)
        np.savetxt(tmp_path / "shifted.txt", table + [offset, 0.0])
        scan = ("geometry.delta_l_m = 0\ngeometry.delta_phi_rad = 0.25\n"
                "sweep.variable = delta_l\nsweep.start = 0\nsweep.stop = 3e-5\n"
                "sweep.n_points = 41\n")
        pump = "source.pump.shape = gaussian\nsource.pump.sigma_rad_s = 1e12\n"

        def sweep(name, pump_lines):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(MINIMAL_SOURCE.replace(pump, pump_lines) + scan,
                           encoding="utf-8")
            assert main(["sweep", "--config", str(cfg), "--out",
                         str(tmp_path / name)]) == 0
            return (tmp_path / name / "sweep.csv").read_bytes()

        tabulated = "source.pump.shape = tabulated\nsource.pump.file = "
        with_offset = sweep("offset", tabulated + "pump.txt\n"
                            f"source.pump.center_offset_rad_s = {offset!r}\n")
        assert with_offset == sweep("shifted", tabulated + "shifted.txt\n")
        assert with_offset != sweep("plain", tabulated + "pump.txt\n")

    def test_failed_extraction_reason_is_one_csv_field(self, tmp_path):
        # a 15 rad phase scan covers under the 3 fringe periods that extraction
        # needs; the reason holds a comma, which unquoted split it into 3 fields
        text = CATEGORY_I.replace("sweep.stop = 6.283185307179586", "sweep.stop = 15") \
                         .replace("sweep.n_points = 9", "sweep.n_points = 60")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[:2] == [["field", "value"], ["status", "extraction_failed"]]
        assert len(rows) == 3 and rows[2][0] == "reason"
        assert rows[2][1] == "scan covers 2.44 periods, need at least 3"

    @pytest.mark.parametrize("text", ["a, b", 'say "a"', "a\nb", "a\r\nb", '"'])
    def test_csv_field_reads_back_whole(self, text):
        line = f"reason,{cli._csv_field(text)}\n"
        assert list(csv.reader(io.StringIO(line, newline=""))) == [["reason", text]]

    def test_sweep_requires_sweep_section(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_SOURCE + "geometry.delta_l_m = 0\n")
        assert main(["sweep", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1


def _fmt(value, precision=12):
    return f"{value:.{precision}g}"


CATEGORY_II = MINIMAL_SOURCE.replace("sigma_rad_s = 1e12", "sigma_rad_s = 1e14") + """\
geometry.delta_l_m = 0
geometry.delta_l_prime_m = 0
geometry.delta_l_dprime_m = 0
geometry.delta_phi_rad = 0.25
sweep.variable = delta_l
sweep.start = 0
sweep.stop = 9e-6
sweep.n_points = 301
"""

# third-order source, choice-2 labeling, degenerate centrals; the native
# prime delay of the origin row is -0.0
CATEGORY_III_CHOICE_2 = """\
source.type = topdc
source.lambda_a_nm = 1550
source.lambda_b_nm = 1550
source.lambda_c_nm = 1550
source.pump.shape = gaussian
source.pump.sigma_rad_s = 1e12
source.pm1.shape = sinc_squared
source.pm1.width_rad_s = 2e12
source.pm2.shape = lorentzian
source.pm2.gamma_rad_s = 3e12
geometry.delta_l_m = -0.0
geometry.delta_l_prime_m = 0
geometry.delta_l_dprime_m = -0.0
geometry.delta_phi_rad = 3.141592653589793
geometry.topdc_choice = 2
sweep.variable = delta_l_prime
sweep.start = -0.0006
sweep.stop = 0.0006
sweep.n_points = 41
"""


class TestSweepCsvFormatting:
    """sweep.csv equals rate_length on every row, each field formatted alone."""

    @staticmethod
    def expected_lines(cfg):
        spec = cfg.sweep
        name = spec.variable.value
        lines = ["parameter_name,parameter_value,rate,gamma_mag,"
                 "gamma_prime_mag,cosine_argument"]
        for v in np.linspace(spec.start, spec.stop, spec.n_points):
            r = rate_length(spec.source, replace(spec.fixed, **{name: float(v)}),
                            spec.amps)
            lines.append(",".join([name, _fmt(v), _fmt(r.rate), _fmt(r.gamma_mag),
                                   _fmt(r.gamma_prime_mag),
                                   _fmt(r.cosine_argument)]))
        return lines

    @pytest.mark.parametrize("text", [
        CATEGORY_II,
        CATEGORY_III_CHOICE_2,
        # the last row is the parameter value -0.0
        CATEGORY_III_CHOICE_2.replace("sweep.stop = 0.0006", "sweep.stop = -0.0"),
    ], ids=["category_ii", "category_iii_choice_2", "category_iii_ends_at_minus_zero"])
    def test_rows_match_per_field_formatting(self, tmp_path, text):
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        expected = self.expected_lines(parse_config(text))
        assert len(lines) == len(expected)
        for got, want in zip(lines, expected):
            assert got == want
        if "sweep.stop = -0.0" in text:
            assert lines[-1].startswith("delta_l_prime,-0,")


# any double, drawn as its bit pattern: nan, the infinities, the signed
# zeros, the subnormals and the largest finite values among them
_DOUBLES = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


@given(st.one_of(_DOUBLES, st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.8e308])),
    st.integers(1, 17))
def test_percent_field_equals_format_spec(x, precision):
    # the row template's `%.{p}g` field is the old `{:.{p}g}` field
    assert f"%.{precision}g" % x == format(x, f".{precision}g")


SWEEP_HEADER = ["parameter_name", "parameter_value", "rate", "gamma_mag",
                "gamma_prime_mag", "cosine_argument"]


class TestBlockWriter:
    """sweep.csv is written a block of lines at a time, and is byte for byte
    the text that joining every line at once gives."""

    @staticmethod
    def sweep(tmp_path, monkeypatch, n_points=7):
        """``sweep`` with blocks of 3 lines: the output directory, the rows
        of each ``_write_csv`` call and the swept table."""
        monkeypatch.setattr(cli, "_BLOCK", 3)
        calls, write = [], cli._write_csv
        monkeypatch.setattr(cli, "_write_csv", lambda path, header, rows: (
            calls.append(rows), write(path, header, rows)))
        text = CATEGORY_II.replace("sweep.n_points = 301",
                                   f"sweep.n_points = {n_points}")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        return out, calls, run_sweep(parse_config(text).sweep)

    @staticmethod
    def joined_whole(table, n_rows):
        # the writer before streaming: every line formatted, then one join
        line = (f"{table.variable.value}," + ",".join(["{:.12g}"] * 5)).format
        columns = (table.values, table.rates, table.gamma_mag,
                   table.gamma_prime_mag, table.cosine_argument)
        rows = [line(*row) for row in zip(*(c.tolist()[:n_rows] for c in columns))]
        return ("\n".join([",".join(SWEEP_HEADER), *rows]) + "\n").encode("utf-8")

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 7])
    def test_bytes_equal_the_text_joined_whole(self, tmp_path, monkeypatch, n_rows):
        out, (rows, _), table = self.sweep(tmp_path, monkeypatch, max(n_rows, 3))
        path = out / "sweep.csv"
        if n_rows < 3:  # a sweep has 3 rows or more; fewer are a slice of them
            cli._write_csv(path, SWEEP_HEADER, rows[:n_rows])
        assert path.read_bytes() == self.joined_whole(table, n_rows)

    def test_dropping_the_last_row_drops_the_last_line(self, tmp_path, monkeypatch):
        out, (rows, _), _ = self.sweep(tmp_path, monkeypatch)
        assert len(rows) == 7 and len(rows[:-1]) == 6
        cli._write_csv(tmp_path / "short.csv", SWEEP_HEADER, rows[:-1])
        whole = (out / "sweep.csv").read_bytes()
        last_line = whole.rindex(b"\n", 0, len(whole) - 1) + 1
        assert (tmp_path / "short.csv").read_bytes() == whole[:last_line]

    def test_two_writes_per_sweep(self, tmp_path, monkeypatch):
        _, calls, _ = self.sweep(tmp_path, monkeypatch)
        assert len(calls) == 2


def _old_sweep_csv(precision, prefix, columns):
    # the writer before folding: one `%` template of all five fields per row
    line = prefix + ",".join([f"%.{precision}g"] * 5)
    rows = [line % row for row in zip(*(c.tolist() for c in columns))]
    return "".join(f"{text}\n" for text in [",".join(SWEEP_HEADER), *rows]).encode()


_FIELDS = st.one_of(_DOUBLES, st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, 5e-324, 1.8e308]))


@st.composite
def _sweep_columns(draw):
    """Five equal-length columns, each constant, constant but for its first or
    last row, of mixed signed zeros, or random bit patterns and specials."""
    n = draw(st.sampled_from([1, 2, 3, 1023, 1024, 1025, 2048, 2049]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(5):
        kind = draw(st.sampled_from(["constant", "but_first", "but_last", "zeros", "any"]))
        column = np.full(n, draw(_FIELDS))
        if kind == "but_first":
            column[0] = draw(_FIELDS)
        elif kind == "but_last":
            column[-1] = draw(_FIELDS)
        elif kind == "zeros":
            column = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        elif kind == "any":
            column = np.where(rng.random(n) < 0.3,
                              rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf], n),
                              rng.integers(0, 2**64, n, dtype=np.uint64).view(float))
        columns.append(column)
    return columns


@settings(max_examples=60, deadline=None)
@given(_sweep_columns(), st.sampled_from([1, 12, 17]),
       st.sampled_from([v.value + "," for v in SweepVariable]))
@example([np.full(1025, -0.0)] * 5, 12, "delta_l,")  # no column varies
def test_folded_writer_bytes_equal_the_old_writer(tmp_path_factory, columns, precision,
                                                  prefix):
    path = tmp_path_factory.mktemp("folded") / "sweep.csv"
    cli._write_csv(path, SWEEP_HEADER, cli._folded_lines(precision, prefix, columns))
    assert path.read_bytes() == _old_sweep_csv(precision, prefix, columns)


def test_delta_l_sweep_formats_four_fields_per_row(tmp_path, monkeypatch):
    # a delta_l scan holds g' fixed, so its column is formatted once, into the
    # line template, and each row formats the other four
    fields, write = [], cli._write_csv

    class Template(str):
        """A block template that records how many fields each `%` formats."""

        def __mul__(self, n):
            return Template(str.__mul__(self, n))

        def __mod__(self, args):
            fields.append(len(args))
            return str.__mod__(self, args)

    def counting(path, header, rows):
        if path.name == "sweep.csv":
            rows._line = Template(rows._line)
        write(path, header, rows)

    monkeypatch.setattr(cli, "_BLOCK", 100)
    monkeypatch.setattr(cli, "_write_csv", counting)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, CATEGORY_II)),
                 "--out", str(out)]) == 0
    assert fields == [4 * 100, 4 * 100, 4 * 100, 4 * 1]  # 301 rows, 4 fields each
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    assert {line.split(",")[4] for line in lines} == {"1"}  # gamma_prime_mag


def test_sweep_csv_adds_under_1_mb_to_the_sweep_peak(tmp_path):
    # sweep.csv is written a block of rows at a time, so writing it must not
    # hold the text, or a Python float per field, for all 50,001 rows at once
    config = parse_config(CATEGORY_II.replace("sweep.n_points = 301",
                                              "sweep.n_points = 50001"))
    run_sweep(config.sweep)  # one-time allocations land outside both peaks
    tracemalloc.start()
    try:
        run_sweep(config.sweep)
        sweep_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_sweep_cmd(config, tmp_path)
        command_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert command_peak - sweep_peak <= 1e6


def test_sweep_holds_under_64_bytes_per_row():
    # run_sweep fills its 48 B per row of result columns one block of rows at
    # a time, so the rate core's parameter, delay and temporary columns never
    # exist for all 50,001 rows at once
    n = 50001
    config = parse_config(CATEGORY_II.replace("sweep.n_points = 301",
                                              f"sweep.n_points = {n}"))
    run_sweep(config.sweep)  # one-time allocations land outside the peak
    tracemalloc.start()
    try:
        run_sweep(config.sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * n


class TestReduceCommand:
    def test_all_equal_geometry_prints_zeros(self, tmp_path, capsys):
        text = MINIMAL_SOURCE + "".join(
            f"geometry.length_{t}_m = 1.0\n"
            for t in ("a1", "b1", "c1", "p1", "a2", "b2", "c2", "p2"))
        cfg = write_config(tmp_path, text)
        assert main(["reduce", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "geometry.delta_l_m = 0.0" in out
        assert "geometry.delta_l_prime_m = 0.0" in out

    def test_topdc_prints_three_choices(self, tmp_path, capsys):
        text = MINIMAL_SOURCE.replace("source.type = cpdc", "source.type = topdc")
        text += "geometry.length_a1_m = 3.0\n"
        cfg = write_config(tmp_path, text)
        assert main(["reduce", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "# choice 1" in out and "# choice 2" in out and "# choice 3" in out
        assert "geometry.delta_l_prime_m = 3.0" in out   # choice 1
        assert "geometry.delta_l_prime_m = -3.0" in out  # choice 2

    @pytest.mark.parametrize("kind, choice", [("cpdc", None), ("topdc", 1), ("topdc", 2),
                                              ("topdc", 3)],
                             ids=["cpdc", "topdc-1", "topdc-2", "topdc-3"])
    def test_reduce_round_trip_reproduces_sweep(self, tmp_path, capsys, kind, choice):
        # reduce output pasted back as direct geometry gives identical CSVs; for
        # TOPDC, the block printed under the eight-length config's own choice
        sweep_tail = ("sweep.variable = delta_phi\nsweep.start = 0\n"
                      "sweep.stop = 12.6\nsweep.n_points = 33\n")
        source = MINIMAL_SOURCE.replace("source.type = cpdc", f"source.type = {kind}")
        eight = source + (
            "geometry.length_a1_m = 1.25e-6\ngeometry.length_b2_m = 0.5e-6\n"
            "geometry.phase_c1_rad = 0.35\n")
        if choice is not None:
            eight += f"geometry.topdc_choice = {choice}\n"
        cfg = write_config(tmp_path, eight + sweep_tail, "eight.cfg")
        out1 = tmp_path / "out1"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["reduce", "--config", str(cfg), "--out",
                     str(tmp_path / "r")]) == 0
        printed = capsys.readouterr().out
        if choice is not None:
            printed = printed.split(f"# choice {choice}\n")[1].split("# choice")[0]
        direct_lines = [line for line in printed.splitlines()
                        if line.startswith("geometry.")]
        cfg2 = write_config(tmp_path,
                            source + "\n".join(direct_lines) + "\n"
                            + sweep_tail, "direct.cfg")
        out2 = tmp_path / "out2"
        assert main(["sweep", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


class TestValidateCommand:
    def test_coupled_validate_runs(self, tmp_path):
        text = MINIMAL_SOURCE + (
            "geometry.delta_l_m = 0\n"
            "validate.ratios = 0.5,0.05\n"
            "validate.coupling_slope = 1.0\n"
            "validate.n_pump = 33\nvalidate.n_prime = 33\nvalidate.n_dprime = 33\n"
            "validate.n_delays = 2\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "validate.csv").read_text().splitlines()
        errors = [float(line.split(",")[-1]) for line in lines[1:]]
        # coupled factorization error shrinks with the bandwidth ratio
        assert max(errors[2:]) < max(errors[:2])

    def test_overflowing_carrier_phase_rejected(self, tmp_path, capsys):
        # every delay is finite, but omega_p0 * delta_tau overflows; before the
        # check every oracle sum ran, then a ValueError traceback ended the run
        text = MINIMAL_SOURCE + (
            "geometry.delta_l_m = 0\n"
            "validate.delay_span_widths = 1e305\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: ValidationError: the carrier phase overflows at delta_tau = 5e+292, "
            "delta_tau_prime = 2.5e+292, delta_tau_dprime = 1.6666666666666666e+292 s, "
            "delta_phi = 0.0 rad\n")
        assert not (out / "validate.csv").exists()

    @pytest.mark.parametrize("pump_sigma, line, message", [
        ("5e11", "validate.coupling_slope = 1e300",
         "coupling slope = 1e+300 overflows an oracle axis: [-inf, inf]"),
        ("5e11", "validate.support_multiplier = 1e300",
         "support_multiplier = 1e+300 overflows an oracle axis: [-inf, inf]"),
        ("1e-300", "validate.delay_span_widths = 1e10",
         "validate.delay_span_widths = 10000000000.0 inverse widths of the source.pump "
         "width 1e-300 rad/s overflow delta_tau"),
        ("1e-300", "validate.delay_span_widths = 1e-290",
         "validate.ratios: 1.0 x the source.pm1 width 2000000000000.0 rad/s / the "
         "source.pump width 1e-300 rad/s gives a pump rescale factor of inf"),
    ])
    def test_accepted_config_that_cannot_run_fails_by_name(self, tmp_path, capsys,
                                                           pump_sigma, line, message):
        # each config parses; before, the first two wrote nan oracle columns
        # with RuntimeWarnings and the last two died with a ValueError traceback
        text = MINIMAL_SOURCE.replace("pump.sigma_rad_s = 1e12",
                                      f"pump.sigma_rad_s = {pump_sigma}") + (
            "geometry.delta_l_m = 0\n"
            "validate.ratios = 1\n"
            "validate.n_pump = 32\nvalidate.n_prime = 32\nvalidate.n_dprime = 32\n"
            f"{line}\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"
        assert list(out.iterdir()) == []  # no validate.csv, no run_meta.json

    @pytest.mark.parametrize("n_delays", [1, 3])
    def test_rows_match_per_field_formatting(self, tmp_path, n_delays):
        # one delay leaves the three delay columns constant, so they are
        # formatted once, into the line template; the bytes are the same
        text = MINIMAL_SOURCE + (
            "geometry.delta_l_m = 0\nvalidate.ratios = 0.3,0.1\n"
            "validate.n_pump = 33\nvalidate.n_prime = 33\nvalidate.n_dprime = 33\n"
            f"validate.n_delays = {n_delays}\noutput.csv_precision = 9\n")
        out = tmp_path / "out"
        assert main(["validate", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        config = parse_config(text)
        rows = factorization_error_sweep(config.source, cli._validate_inputs(config),
                                         list(config.validate.ratios),
                                         config.validate.oracle)
        expected = ["ratio,delta_tau,delta_tau_prime,delta_tau_dprime,"
                    "factorized,oracle,rel_error"]
        for r in rows:
            expected.append(",".join(_fmt(v, 9) for v in (
                r.ratio, r.delays.delta_tau, r.delays.delta_tau_prime,
                r.delays.delta_tau_dprime, r.factorized, r.oracle, r.rel_error)))
        assert len(expected) == 1 + 2 * n_delays
        assert (out / "validate.csv").read_text() == "\n".join(expected) + "\n"

    def test_narrowband_errors_small(self, tmp_path):
        text = MINIMAL_SOURCE + (
            "geometry.delta_l_m = 0\n"
            "validate.ratios = 0.3,0.1\n"
            "validate.n_pump = 65\nvalidate.n_prime = 65\nvalidate.n_dprime = 65\n"
            "validate.n_delays = 3\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "validate.csv").read_text().splitlines()
        assert lines[0] == ("ratio,delta_tau,delta_tau_prime,delta_tau_dprime,"
                            "factorized,oracle,rel_error")
        errors = [float(line.split(",")[-1]) for line in lines[1:]]
        assert len(errors) == 6
        assert max(errors) < 1e-5


class TestErrorReporting:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_validation_error_single_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_SOURCE)  # no geometry
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError:")
        assert len(err.strip().splitlines()) == 1


def test_two_main_calls_build_one_parser(tmp_path, monkeypatch):
    import argparse

    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: (
        built.append(k.get("prog")), init(self, *a, **k))[1])
    cfg = write_config(tmp_path, CATEGORY_I)
    cli._build_parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["reduce", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    finally:
        cli._build_parser.cache_clear()  # later tests build an uncounted one
    assert built.count("triphoton") == 1


def _modules_after_cli_import(names: str, then: str = "") -> str:
    """What ``names``, an expression over ``sys.modules``, prints after a fresh
    interpreter imports ``triphoton.cli`` alone and runs the statement ``then``."""
    src = Path(triphoton.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = f"import sys, triphoton.cli\n{then}\nprint({names})"
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    assert _modules_after_cli_import(
        "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')") == "[]"


def test_cli_import_loads_neither_argparse_nor_json():
    # config parsing, which every set-up runs, needs neither; the command
    # line and the run manifest import them when they run
    assert _modules_after_cli_import(
        "sorted(m for m in ('argparse', 'json') if m in sys.modules)") == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # no transform needs numpy.polynomial (1.8 MB resident and about 2 ms)
    assert _modules_after_cli_import(
        "sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))") == "[]"


def test_config_parsing_loads_no_hashlib():
    # hashlib loads OpenSSL's _hashlib; only the run manifest takes the digest
    assert _modules_after_cli_import(
        "sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules)",
        then=f"triphoton.cli.parse_config({CATEGORY_I!r})") == "[]"
