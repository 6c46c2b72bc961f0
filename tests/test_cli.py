"""Command-line interface: exit codes, report schema, CSV/JSON emission."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsq import cli, fock, verifier
from ncsq.cli import SweepSpec, format_complex, parse_complex, run, sweep


def run_json(capsys, argv):
    """Run one subcommand and parse its single-result JSON."""
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_ndjson(capsys, argv):
    code = run(argv)
    lines = capsys.readouterr().out.strip().split("\n")
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    return code, header, rows


# ---------------------------------------------------------------------------
# argument parsing


def test_parse_complex_forms():
    assert parse_complex("0.5+0.2i") == 0.5 + 0.2j
    assert parse_complex("1") == 1.0 + 0.0j
    assert parse_complex("i") == 1j
    assert parse_complex("-0.3I") == -0.3j
    assert parse_complex("2j") == 2j


def test_format_complex_roundtrip():
    for value in (0.0j, 1.5 - 0.25j, -3e-7 + 1e12j, complex(1 / 3, -2 / 7)):
        assert parse_complex(format_complex(value)) == value


def test_parse_complex_rejects_garbage():
    with pytest.raises(Exception):
        parse_complex("abc")


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["params", "--mu", "not-a-number"],
    ["params", "--unknown-flag", "1"],
    ["overlap", "--alpha", "zzz"],
])
def test_usage_errors_exit_two(capsys, argv):
    assert run(argv) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["sweep", "--help"]) == 0


# Per subcommand: its shortest valid argv, and one that sets flags.
_ARGVS = {
    "params": (["params"],
               ["params", "--mu", "0.5", "--nu", "2", "--hbar", "3", "--natural"]),
    "variance": (["variance"],
                 ["variance", "--r", "0.3", "--phi", "1", "--mu", "0.5", "--json"]),
    "overlap": (["overlap"],
                ["overlap", "--alpha", "0.5+0.2i", "--beta2=-1i", "--r", "0.3"]),
    "bogoliubov": (["bogoliubov"],
                   ["bogoliubov", "--r", "0.4", "--phi", "2", "--out", "b.csv"]),
    "check": (["check"],
              ["check", "--cutoff", "60", "--buffer", "3", "--alpha=2.0i", "--nu", "0.2"]),
    "overcompleteness": (["overcompleteness"],
                         ["overcompleteness", "--samples", "2000", "--seed", "7",
                          "--alpha", "0.1", "--phi", "0.5"]),
    "sweep": (["sweep", "--variable", "theta", "--start", "0", "--stop", "1",
               "--step", "0.1", "--quantity", "dx2"],
              ["sweep", "--variable", "r", "--start", "0", "--stop", "1", "--step",
               "0.5", "--quantity", "gain_x", "--r", "0.2", "--out", "s.csv", "--json"]),
    "oscillator": (["oscillator", "--m", "1", "--omega", "2"],
                   ["oscillator", "--m", "1", "--omega", "2", "--mu", "0.5", "--natural"]),
}


def _help_text(parser, command, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_command_parser_reads_as_the_full_one(capsys, command):
    one, full = cli._build_parser(command), cli._build_parser()
    for argv in _ARGVS[command]:
        assert one.parse_args(argv) == full.parse_args(argv), argv
    assert _help_text(one, command, capsys) == _help_text(full, command, capsys)


def test_check_run_builds_only_its_own_parser(tmp_path, monkeypatch):
    # the top-level parser and the check subparser, not all nine
    progs = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    out = tmp_path / "check.json"
    assert run(["check", "--mu", "0.5", "--nu", "0.5", "--out", str(out)]) == 0
    assert progs == ["ncsq", "ncsq check"]


# ---------------------------------------------------------------------------
# params


def test_params_schema_and_values(capsys):
    code, doc = run_json(capsys, ["params", "--mu", "0.5", "--nu", "0.5"])
    assert code == 0
    assert doc["schema"] == 2
    assert doc["numpy"] == np.__version__
    assert doc["command"] == "params"
    datetime.fromisoformat(doc["timestamp"])  # must parse
    result = doc["result"]
    assert result["theta"] == 0.5
    assert result["kappa"] == 0.9330127018922193
    assert result["constraint_class"] == "sub_critical"


def test_params_supercritical_has_null_kappa(capsys):
    code, doc = run_json(capsys, ["params", "--mu", "2", "--nu", "2"])
    assert code == 0
    assert doc["result"]["kappa"] is None
    assert doc["result"]["constraint_class"] == "super_critical"


def test_params_natural_flag_forces_units(capsys):
    code, doc = run_json(capsys, ["params", "--mu", "7", "--natural"])
    assert code == 0
    assert doc["params"] == {"mu": 1.0, "nu": 1.0, "hbar": 1.0, "theta": 1.0}
    assert doc["result"]["constraint_class"] == "saturated"
    assert doc["result"]["kappa"] == 0.5


def test_params_at_a_large_common_scale_is_saturated(capsys):
    code, doc = run_json(capsys, ["params", "--mu", "1e200", "--nu", "1e200",
                                  "--hbar", "1e200"])
    assert code == 0
    assert doc["params"]["theta"] == 1.0
    assert doc["result"]["constraint_class"] == "saturated"


def test_params_refuses_an_overflowing_ratio(capsys):
    assert run(["params", "--mu", "1e308", "--nu", "1e308", "--hbar", "1e-308"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_params_rejects_nonpositive(capsys):
    assert run(["params", "--mu", "-1"]) == 2
    assert run(["params", "--nu", "0"]) == 2


# ---------------------------------------------------------------------------
# variance / overlap / bogoliubov


def test_variance_report_values(capsys):
    code, doc = run_json(capsys, ["variance", "--mu", "4", "--nu", "1"])
    assert code == 0
    result = doc["result"]
    assert result["dx2"] == 1.0
    assert result["dpx2"] == 0.25
    assert result["gain_x"] == 1.0
    assert "min_xpx" in result and "min_XP" in result
    assert result["bound_xpx_satisfied"] is True


def test_variance_with_squeeze_echoes_z(capsys):
    code, doc = run_json(capsys, ["variance", "--mu", "0.5", "--nu", "0.5",
                                  "--r", "0.3", "--phi", "1.5707963267948966"])
    assert code == 0
    assert doc["result"]["r"] == 0.3
    assert doc["result"]["squeezed_px"] is True


@pytest.mark.parametrize("r", ["150", "400"])
def test_variance_refuses_an_overflowing_r(capsys, r):
    # r 400 overflows cosh(2r); at r 150, theta 0.5 the products overflow
    code = run(["variance", "--mu", "0.5", "--nu", "0.5", "--r", r])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "overflow a float" in captured.err


VARIANCE_ROW_KEYS = [
    "dx2", "dy2", "dpx2", "dpy2", "gain_x", "gain_px", "squeezed_x", "squeezed_px",
    "prod_xpx", "prod_ypy", "prod_xy", "prod_pxpy",
    "min_xpx", "min_xy", "min_pxpy", "argmin_phi",
    "dX2", "dP2", "prod_XP", "min_XP", "argmin_phi_XP",
    "bound_xy_satisfied", "bound_xy_saturated",
    "bound_pxpy_satisfied", "bound_pxpy_saturated",
    "bound_xpx_satisfied", "bound_xpx_saturated",
    "bound_ypy_satisfied", "bound_ypy_saturated",
    "bound_XP_satisfied", "bound_XP_saturated",
]


def test_variance_row_keys_are_pinned(capsys):
    code, doc = run_json(capsys, ["variance", "--mu", "0.5", "--nu", "0.5"])
    assert code == 0
    assert list(doc["result"]) == VARIANCE_ROW_KEYS
    code, doc = run_json(capsys, ["variance", "--mu", "0.5", "--nu", "0.5",
                                  "--r", "0.3", "--phi", "1.5708"])
    assert code == 0
    assert list(doc["result"]) == VARIANCE_ROW_KEYS + ["r", "phi"]
    assert doc["result"]["argmin_phi"] == math.pi / 2
    assert doc["result"]["argmin_phi_XP"] == 0.0


def test_overlap_vacuum_gaussian(capsys):
    code, doc = run_json(capsys, ["overlap", "--mu", "0.5", "--nu", "0.5",
                                  "--alpha", "1"])
    assert code == 0
    assert doc["result"]["overlap_abs"] == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_overlap_squeezed_prefactor(capsys):
    code, doc = run_json(capsys, ["overlap", "--mu", "0.5", "--nu", "0.5",
                                  "--r", "0.3", "--phi", "0.7853981633974483"])
    assert code == 0
    want = (math.cosh(0.45) * math.cosh(0.15)) ** -0.5
    assert doc["result"]["overlap_re"] == pytest.approx(want, rel=1e-12)


def test_bogoliubov_values(capsys):
    code, doc = run_json(capsys, ["bogoliubov", "--mu", "0.5", "--nu", "0.5",
                                  "--r", "0.3", "--phi", "0"])
    assert code == 0
    result = doc["result"]
    assert result["a_c_a_re"] == pytest.approx(math.cosh(0.3) * math.cosh(0.15),
                                               rel=1e-14)
    assert result["a_c_bdag_re"] == pytest.approx(math.sinh(0.3) * math.cosh(0.15),
                                                  rel=1e-14)
    assert result["a_c_b_im"] == pytest.approx(math.sinh(0.3) * math.sinh(0.15),
                                               rel=1e-14)


@pytest.mark.parametrize("r", ["710", "1000"])
def test_bogoliubov_refuses_coefficients_that_overflow(capsys, r):
    assert run(["bogoliubov", "--mu", "0.5", "--nu", "0.5", "--r", r]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ncsq: error:") and "overflow a float" in captured.err


# ---------------------------------------------------------------------------
# check


def test_check_passes_subcritical(capsys):
    code, header, rows = run_ndjson(
        capsys, ["check", "--mu", "0.5", "--nu", "0.5", "--cutoff", "24",
                 "--r", "0.15", "--phi", "0.5",
                 "--alpha", "0.3", "--beta", "0.1i"])
    assert code == 0
    assert header["command"] == "check"
    ids = [row["check_id"] for row in rows]
    assert "bogoliubov" in ids and "overlap[0]" in ids
    assert all(row["passed"] for row in rows)
    assert all(row["residual"] < row["tolerance"] for row in rows)


def test_check_supercritical_exits_one(capsys):
    code, header, rows = run_ndjson(
        capsys, ["check", "--mu", "2", "--nu", "2", "--r", "0.3"])
    assert code == 1
    by_id = {row["check_id"]: row for row in rows}
    assert not by_id["analytic_bound_xpx"]["passed"]
    witness = by_id["supercritical_witness"]
    assert witness["violated"] is True
    assert witness["product"] < witness["floor"]
    assert "SaturatedOrSuperCritical" in by_id["engine"]["error"]


def _count_builds(monkeypatch):
    builds = []
    real = fock.build_operator_set

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fock, "build_operator_set", counting)
    monkeypatch.setattr(verifier, "build_operator_set", counting)
    return builds


def test_check_builds_one_operator_set(capsys, monkeypatch):
    builds = _count_builds(monkeypatch)
    code = run(["check", "--mu", "0.5", "--nu", "0.5", "--cutoff", "24",
                "--r", "0.15", "--phi", "0.5", "--alpha", "0.3", "--beta", "0.1i"])
    capsys.readouterr()
    assert code == 0
    assert len(builds) == 1


@pytest.mark.parametrize("buffer", ["-1", "21"])
def test_check_buffer_out_of_range_exits_two(capsys, monkeypatch, buffer):
    builds = _count_builds(monkeypatch)
    code = run(["check", "--mu", "0.5", "--nu", "0.5", "--cutoff", "20",
                "--buffer=" + buffer])
    assert code == 2
    assert "[0, 20]" in capsys.readouterr().err
    assert builds == []


@pytest.mark.parametrize("argv", [
    # the truncated displacement reflects off cutoff 40, under the tail guard
    ["--mu", "0.05", "--nu", "0.05", "--alpha=-12.649110640673518",
     "--beta=12.649110640673518i", "--r", "0"],
    # unrefused, the exponential's step count would grow with |alpha|
    ["--mu", "0.5", "--nu", "0.5", "--alpha=1e4"],
    ["--mu", "0.5", "--nu", "0.5", "--alpha=1e200"],
    # unrefused, the generator's entries would overflow
    ["--mu", "0.5", "--nu", "0.5", "--alpha=1.7e308"],
])
def test_check_refuses_a_displacement_beyond_the_cutoff(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["check", *argv])
    assert code == 2
    assert "mean occupation" in capsys.readouterr().err


def test_check_at_a_small_common_scale(capsys):
    # hbar*hbar underflows to zero here; theta is sqrt(1/2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, header, rows = run_ndjson(
            capsys, ["check", "--mu", "1e-200", "--nu", "5e-201", "--hbar", "1e-200"])
    assert code == 0
    assert header["params"]["theta"] == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert all(row["passed"] for row in rows)
    # read relative to the scales, these residuals sit at rounding error,
    # not at the scales' size (1e-214 and below)
    by_id = {row["check_id"]: row for row in rows}
    for check_id in ("heisenberg_weyl", "two_mode_commutator", "variance[0]"):
        assert 1e-20 < by_id[check_id]["residual"] < 1e-12


def test_check_refuses_subnormal_scales(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["check", "--mu", "1e-320", "--nu", "5e-321", "--hbar", "1e-320"])
    assert code == 2
    assert "mu=1e-320 is below the smallest normal float" in capsys.readouterr().err


@pytest.mark.parametrize("mu, nu", [("0.1", "0.9"), ("1e-3", "10")])
def test_check_passes_with_mu_far_from_nu(capsys, mu, nu):
    # the number basis is expanded at the deformed modes' scale, so the
    # deformed vacuum sits near |0,0> and the default cutoff holds it
    code, _, rows = run_ndjson(capsys, ["check", "--mu", mu, "--nu", nu])
    assert code == 0 and all(row["passed"] for row in rows)


@pytest.mark.parametrize("scale", ["1e-6", "1e-200"])
def test_check_at_small_mu_and_nu_with_unit_hbar(capsys, scale):
    # [x, px] = i hbar rounds at hbar's size, far above mu and nu here:
    # each relation is read relative to its own scale, so all rows pass
    code, _, rows = run_ndjson(capsys, ["check", "--mu", scale, "--nu", scale])
    assert code == 0
    by_id = {row["check_id"]: row for row in rows}
    assert all(row["passed"] for row in rows)
    for check_id in ("heisenberg_weyl", "two_mode_commutator"):
        assert by_id[check_id]["residual"] < 1e-12


@pytest.mark.parametrize("cutoff", ["40", "200"])
def test_check_at_buffer_zero_reads_the_algebra_not_the_edge(capsys, cutoff):
    # the identity rows are the algebra of the coefficient rows, which the
    # truncation edge does not enter: at buffer 0 they read rounding (the
    # truncated ladders' edge read 10 to 41 at cutoff 40, and 50 to 210 at
    # cutoff 200, and failed the run)
    code, _, rows = run_ndjson(capsys, ["check", "--mu", "0.5", "--nu", "0.5",
                                        "--cutoff", cutoff, "--buffer", "0"])
    assert code == 0
    identity = [row for row in rows if "[" not in row["check_id"]]
    assert len(identity) == 6
    assert all(row["passed"] and row["residual"] < 1e-13 for row in identity)


def test_check_bad_cutoff_exits_two(capsys):
    assert run(["check", "--mu", "0.5", "--nu", "0.5", "--cutoff", "0"]) == 2
    assert run(["check", "--mu", "0.5", "--nu", "0.5", "--cutoff", "999"]) == 2


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_check_small_cutoff_refuses_the_tail_not_a_buffer(capsys, cutoff):
    # the eigenvalue states are guarded within the cutoff, never at a
    # buffer beyond it the user did not pass
    code = run(["check", "--mu", "0.5", "--nu", "0.5", "--cutoff", str(cutoff),
                "--buffer", "0", "--alpha", "0.1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "quanta of cutoff %d" % cutoff in err
    assert "got 5" not in err


# ---------------------------------------------------------------------------
# overcompleteness


def test_overcompleteness_seed_echo_and_reproducibility(capsys):
    argv = ["overcompleteness", "--mu", "0.3", "--nu", "0.3",
            "--samples", "20000", "--seed", "9"]
    code, header, rows = run_ndjson(capsys, argv)
    assert code == 0
    assert header["seed"] == 9
    assert len(rows) >= 5
    assert all(row["passed"] for row in rows)

    code2, _, rows2 = run_ndjson(capsys, argv)
    assert code2 == 0
    assert [r["estimate_re"] for r in rows2] == [r["estimate_re"] for r in rows]


def test_overcompleteness_guards(capsys):
    assert run(["overcompleteness", "--natural", "--samples", "5000"]) == 2
    assert run(["overcompleteness", "--mu", "0.3", "--nu", "0.3",
                "--samples", "300"]) == 2
    assert run(["overcompleteness", "--mu", "0.3", "--nu", "0.3",
                "--samples", "10000001"]) == 2
    assert "10000000" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1e160", "1e200"])
def test_overcompleteness_refuses_an_overflowing_integrand(capsys, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["overcompleteness", "--mu", "0.5", "--nu", "0.5",
                    "--samples", "1000", "--alpha", alpha])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.parametrize("alpha", ["30", "1e100", "1e154"])
def test_overcompleteness_refuses_an_underflowing_integrand(capsys, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["overcompleteness", "--mu", "0.5", "--nu", "0.5",
                    "--samples", "1000", "--alpha", alpha])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "underflowed to 0" in captured.err


def test_overcompleteness_refuses_a_negative_seed(capsys):
    argv = ["overcompleteness", "--mu", "0.5", "--nu", "0.5",
            "--seed", "-1", "--samples", "1000"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ncsq: error: --seed must be non-negative, got -1\n"


def test_overcompleteness_rows_carry_effective_sample_size(capsys):
    argv = ["overcompleteness", "--mu", "0.3", "--nu", "0.3",
            "--samples", "5000", "--seed", "9"]
    code, header, rows = run_ndjson(capsys, argv)
    assert code == 0
    assert header["schema"] == 2
    assert all(0.0 < row["ess"] <= row["samples"] for row in rows)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_spec_point_count():
    spec = SweepSpec(variable="r", start=0.0, stop=0.5, step=0.1,
                     fixed={"mu": 0.5, "nu": 0.5, "hbar": 1.0, "phi": 0.0})
    assert spec.point_count() == 6
    assert spec.grid()[0] == 0.0
    assert spec.grid()[-1] == pytest.approx(0.5)


def test_sweep_rows_in_grid_order(capsys):
    code, header, rows = run_ndjson(
        capsys, ["sweep", "--mu", "0.5", "--nu", "0.5", "--variable", "r",
                 "--start", "0", "--stop", "0.4", "--step", "0.1",
                 "--phi", "1.5707963267948966", "--quantity", "gain_px"])
    assert code == 0
    assert len(rows) == 5
    rs = [row["r"] for row in rows]
    assert rs == sorted(rs)
    assert rows[0]["gain_px"] == 1.0
    # squeezing deepens monotonically along this ray
    gains = [row["gain_px"] for row in rows]
    assert all(b < a for a, b in zip(gains, gains[1:]))
    assert all(row["squeezed_px"] == (row["gain_px"] < 1.0) for row in rows)


def test_sweep_theta_includes_exact_commutative_point(capsys):
    code, header, rows = run_ndjson(
        capsys, ["sweep", "--variable", "theta", "--start", "0", "--stop",
                 "0.9", "--step", "0.3", "--r", "0.3",
                 "--phi", "1.5707963267948966", "--quantity", "gain_px"])
    assert code == 0
    assert rows[0]["theta"] == 0.0
    assert rows[0]["squeezed_px"] is False
    assert any(row["squeezed_px"] for row in rows[1:])


def test_sweep_guards(capsys):
    base = ["sweep", "--mu", "0.5", "--nu", "0.5"]
    huge = base + ["--variable", "r", "--start", "0", "--stop", "1e6",
                   "--step", "1e-5", "--quantity", "gain_x"]
    assert run(huge) == 2
    unknown = base + ["--variable", "r", "--start", "0", "--stop", "0.2",
                      "--step", "0.1", "--quantity", "nonsense"]
    assert run(unknown) == 2
    backwards = base + ["--variable", "r", "--start", "1", "--stop", "0",
                        "--step", "0.1", "--quantity", "gain_x"]
    assert run(backwards) == 2


@pytest.mark.parametrize("start, stop, step", [
    (-1e308, 1e308, 1.0),
    (0.0, 1.0, 1e-320),
])
def test_sweep_refuses_a_grid_whose_point_count_overflows(capsys, start, stop, step):
    with pytest.raises(cli.GridTooLarge, match="overflows"):
        SweepSpec(variable="phi", start=start, stop=stop, step=step)
    argv = ["sweep", "--variable", "phi", "--start=%r" % start, "--stop", repr(stop),
            "--step", repr(step), "--quantity", "dx2"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ncsq: error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("grid", [
    ["--variable", "r", "--start", "-0.5", "--stop", "0.5", "--step", "0.25"],
    ["--variable", "phi", "--start", "0", "--stop", "1", "--step", "0.5",
     "--r", "-0.5"],
])
def test_sweep_refuses_a_negative_r_as_variance_does(capsys, grid):
    base = ["--mu", "0.5", "--nu", "0.5", "--quantity", "dx2"]
    assert run(["variance", "--mu", "0.5", "--nu", "0.5", "--r", "-0.5"]) == 2
    want = capsys.readouterr().err
    assert "squeeze magnitude must be >= 0" in want
    assert run(["sweep"] + grid + base) == 2
    assert capsys.readouterr().err == want


def test_sweep_function_is_importable():
    spec = SweepSpec(variable="theta", start=0.0, stop=0.6, step=0.2,
                     fixed={"hbar": 1.0, "r": 0.3, "phi": 0.5 * math.pi})
    report = sweep(spec, "gain_px")
    assert report.command == "sweep"
    assert [row["theta"] for row in report.rows] == pytest.approx([0.0, 0.2, 0.4, 0.6])


# ---------------------------------------------------------------------------
# oscillator


def test_oscillator_consistent_exit_zero(capsys):
    code, doc = run_json(capsys, ["oscillator", "--mu", "4", "--nu", "1",
                                  "--m", "1", "--omega", "2"])
    assert code == 0
    assert doc["result"]["consistent"] is True


def test_oscillator_inconsistent_exit_one(capsys):
    code, doc = run_json(capsys, ["oscillator", "--mu", "1", "--nu", "2",
                                  "--m", "4", "--omega", "1"])
    assert code == 1
    assert doc["result"]["consistent"] is False


# ---------------------------------------------------------------------------
# serialization


def test_csv_floats_roundtrip_to_json_values(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    argv = ["sweep", "--mu", "0.5", "--nu", "0.5", "--variable", "r",
            "--start", "0", "--stop", "0.3", "--step", "0.1",
            "--phi", "0.3", "--quantity", "dx2"]
    assert run(argv + ["--out", str(csv_path)]) == 0
    code, header, rows = run_ndjson(capsys, argv)
    assert code == 0

    with open(csv_path, newline="", encoding="utf-8") as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == len(rows)
    for got, want in zip(parsed, rows):
        # 17 significant digits reproduce the double exactly
        assert float(got["dx2"]) == want["dx2"]
        assert got["squeezed_px"] in ("true", "false")


def test_out_json_flag_overrides_csv_suffix(tmp_path):
    path = tmp_path / "report.csv"
    assert run(["params", "--mu", "0.5", "--nu", "0.5",
                "--out", str(path), "--json"]) == 0
    doc = json.loads(path.read_text())
    assert doc["result"]["theta"] == 0.5


def test_out_writes_single_json(tmp_path):
    path = tmp_path / "report.json"
    assert run(["variance", "--mu", "0.5", "--nu", "0.5",
                "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["command"] == "variance"


# ---------------------------------------------------------------------------
# robustness


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from(["params", "--mu", "--nu", "--hbar", "--natural"]),
    st.text(alphabet="0123456789.eE+-naninf", min_size=1, max_size=12)),
    max_size=6))
def test_cli_never_raises_on_junk(junk):
    code = run(junk)
    assert code in (0, 1, 2)


def test_plain_value_error_in_a_handler_exits_three(capsys, monkeypatch):
    """A ValueError that is not one of the package's refusals, such as a
    numpy shape error, is a defect: exit 3 and one JSON line on stderr,
    not the usage-error exit 2."""
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli.analytic, "single_mode_report", broken)
    assert run(["variance", "--mu", "0.5", "--nu", "0.5"]) == 3
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "internal" and error["type"] == "ValueError"
    assert "broadcast" in error["message"] and "broken" in error["traceback"]


@pytest.mark.parametrize("argv", [
    ["variance", "--r", "-0.1"],
    ["overlap", "--alpha", "nan"],
    ["overcompleteness", "--beta2", "inf", "--samples", "1000"],
    ["oscillator", "--m", "0", "--omega", "1"],
    ["oscillator", "--m", "1", "--omega", "inf"],
])
def test_refused_values_exit_two(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("ncsq: error:")


def test_unwritable_out_exits_two(capsys, tmp_path):
    assert run(["params", "--out", str(tmp_path / "missing" / "p.json")]) == 2
    assert "cannot write" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# import graph


# Run in a fresh interpreter with scipy blocked, so that any import of it
# raises, as in an install without the test extra: after `import ncsq.cli`,
# then after each command through cli.run (`ncsq check` at cutoff 16,
# where cutoff 12 refuses the default state's tail), the exit code and the
# scipy modules loaded so far; then displacement_op's unitarity defect.
_IMPORT_GRAPH_PROBE = """
import sys
sys.modules["scipy"] = None
import contextlib, io, json
import numpy as np
import ncsq.cli
from ncsq import ModeAmplitudes, cli, fock, make_params

def scipy_loaded():
    return sorted(m for m, module in sys.modules.items()
                  if module is not None and (m == "scipy" or m.startswith("scipy.")))

steps = {"import ncsq.cli": [0, scipy_loaded()]}
commands = {
    "check": ["check", "--mu", "0.5", "--nu", "0.5", "--cutoff", "16",
              "--r", "0.1", "--phi", "0.5", "--alpha", "0.2", "--beta", "0.1i"],
    "overcompleteness": ["overcompleteness", "--mu", "0.5", "--nu", "0.5",
                         "--samples", "2000"],
    "variance": ["variance", "--mu", "0.5", "--nu", "0.5", "--r", "0.3", "--phi", "1.5708"],
    "sweep": ["sweep", "--variable", "theta", "--start", "0.05", "--stop", "0.95",
              "--step", "0.05", "--r", "0.3", "--phi", "1.5708", "--quantity", "gain_px"],
}
for name, argv in commands.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    steps[name] = [code, scipy_loaded()]
space = fock.make_space(12)
disp = fock.displacement_op(make_params(0.5, 0.5, 1.0), space, ModeAmplitudes(0.4, 0.3j))
defect = np.abs(disp.dag().matrix @ disp.matrix - np.eye(space.dim)).max()
print(json.dumps({"steps": steps, "defect": float(defect)}))
"""


def test_check_loads_no_scipy_linear_algebra():
    """Every command and displacement_op run with scipy unimportable, and
    none loads any scipy module: numpy is the only runtime dependency."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["steps"] == {
        "import ncsq.cli": [0, []], "check": [0, []], "overcompleteness": [0, []],
        "variance": [0, []], "sweep": [0, []],
    }
    assert result["defect"] < 1e-10
