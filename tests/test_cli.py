import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import triphoton
from triphoton.cli import main, parse_config
from triphoton.errors import ParseError, ValidationError
from triphoton.experiments import SweepVariable
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

    def test_reduce_round_trip_reproduces_sweep(self, tmp_path, capsys):
        # reduce output pasted back as direct geometry gives identical CSVs
        sweep_tail = ("sweep.variable = delta_phi\nsweep.start = 0\n"
                      "sweep.stop = 12.6\nsweep.n_points = 33\n")
        eight = MINIMAL_SOURCE + (
            "geometry.length_a1_m = 1.25e-6\ngeometry.length_b2_m = 0.5e-6\n"
            "geometry.phase_c1_rad = 0.35\n")
        cfg = write_config(tmp_path, eight + sweep_tail, "eight.cfg")
        out1 = tmp_path / "out1"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["reduce", "--config", str(cfg), "--out",
                     str(tmp_path / "r")]) == 0
        printed = capsys.readouterr().out
        direct_lines = [line for line in printed.splitlines()
                        if line.startswith("geometry.")]
        cfg2 = write_config(tmp_path,
                            MINIMAL_SOURCE + "\n".join(direct_lines) + "\n"
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


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    src = Path(triphoton.__file__).resolve().parents[1]
    code = ("import sys, triphoton.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
