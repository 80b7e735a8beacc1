"""End-to-end CLI coverage: JSON schema, exit codes, config files, CSV output."""
from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from cancelput import cli, pricer
from cancelput.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BASE = ["--r", "0.05", "--sigma2", "0.2", "--strike", "100", "--barrier", "120", "--spot", "110"]
JUMPS = ["--r", "0.05", "--sigma2", "0.2", "--lambda", "5", "--rho", "2",
         "--strike", "100", "--barrier", "120", "--spot", "110"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


# ------------------------------------------------------------------- price


def test_price_nojump_json(capsys):
    code, doc = run_json(["price", *BASE], capsys)
    assert code == 0
    assert set(doc) == {
        "a_star", "value", "creeping_factor", "undershoot_factor", "region", "params_echo",
    }
    assert doc["a_star"] == 50.0
    assert doc["value"] == pytest.approx(21.759706994462224, rel=1e-9)
    assert doc["region"] == "Continuation"
    assert doc["params_echo"]["alpha"] == -0.5
    assert doc["params_echo"]["lambda"] == 0.0


def test_price_jumps_json(capsys):
    code, doc = run_json(["price", *JUMPS], capsys)
    assert code == 0
    assert doc["a_star"] == pytest.approx(63.18132384302513, rel=1e-9)
    assert doc["value"] == pytest.approx(18.989794468567634, rel=1e-9)
    assert doc["creeping_factor"] == pytest.approx(0.09927709796458127, rel=1e-9)
    assert doc["undershoot_factor"] == pytest.approx(0.8493179387324855, rel=1e-9)


def test_price_exercise_region(capsys):
    args = ["price", *BASE]
    args[args.index("--spot") + 1] = "40"
    code, doc = run_json(args, capsys)
    assert code == 0
    assert doc["region"] == "Exercise"
    assert doc["value"] == pytest.approx(60.0 / 3.0**0.5, rel=1e-9)


def test_sigma_flag_squares(capsys):
    # --sigma is the volatility; the tool works in variance internally.
    args = ["price", "--r", "0.05", "--sigma", "0.4472135954999579",
            "--strike", "100", "--barrier", "120", "--spot", "110"]
    code, doc = run_json(args, capsys)
    assert code == 0
    assert doc["params_echo"]["sigma2"] == pytest.approx(0.2, rel=1e-12)
    assert doc["a_star"] == pytest.approx(50.0, rel=1e-12)


def test_negative_sigma_exit_2(tmp_path, capsys):
    # sigma is squared into sigma2, so a sign error must be caught before that.
    args = ["price", "--r", "0.05", "--sigma", "-0.4472135955", "--strike", "100",
            "--barrier", "120", "--spot", "110"]
    code, doc = run_json(args, capsys)
    assert code == 2 and doc["error"]["type"] == "InvalidParams"
    cfg = tmp_path / "params.cfg"
    cfg.write_text("r = 0.05\nsigma = 0\nstrike = 100\nbarrier = 120\nspot = 110\n")
    code, doc = run_json(["price", "--config", str(cfg)], capsys)
    assert code == 2 and doc["error"]["type"] == "InvalidParams"


def test_sigma_and_sigma2_flags_together_exit_2(capsys):
    # Both flags name one setting: refused, so that neither is ignored.
    code, doc = run_json(["price", *BASE, "--sigma", "5"], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert "sigma and sigma2" in doc["error"]["message"]


@pytest.mark.parametrize(
    "flag, value, line", [("--sigma", "0.8", "sigma2 = 0.2"), ("--sigma2", "0.64", "sigma = 0.3")]
)
def test_sigma_flag_overrides_the_files_variance(flag, value, line, tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(f"r = 0.05\n{line}\nstrike = 100\nbarrier = 120\nspot = 110\n")
    code, doc = run_json(["price", "--config", str(cfg), flag, value], capsys)
    assert code == 0
    assert doc["params_echo"]["sigma2"] == pytest.approx(0.64, rel=1e-12)


def test_sigma_and_sigma2_in_one_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(BASE_FILE + "sigma = 0.8\n")
    code, doc = run_json(["price", "--config", str(cfg)], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert "sigma and sigma2" in doc["error"]["message"]


def test_huge_jump_root_prices(capsys):
    # sigma2 = 1e-300 puts the root below the jump pole near -2e300.  The
    # basis once cubed it (an OverflowError traceback), and the threshold
    # then squared it before scaling by sigma2/2 (a NaN a*, refused with
    # exit 2).  The figures agree with bench/reference.py's V at 700 digits.
    args = ["price", "--r", "0.05", "--sigma2", "1e-300", "--lambda", "1", "--rho", "1e-3",
            "--strike", "100", "--barrier", "120", "--spot", "110"]
    code, doc = run_json(args, capsys)
    assert code == 0
    assert doc["a_star"] == pytest.approx(99.9488304676, rel=1e-9)
    assert doc["value"] == pytest.approx(0.0429926723992, rel=1e-9)
    assert doc["creeping_factor"] == pytest.approx(4.53922948778e-304, rel=1e-9)
    assert doc["undershoot_factor"] == pytest.approx(0.952331253476, rel=1e-9)


def test_invalid_params_exit_2(capsys):
    code, doc = run_json(["price", "--r", "-1", "--sigma2", "0.2",
                          "--strike", "100", "--barrier", "120", "--spot", "110"], capsys)
    assert code == 2
    assert doc["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("flag, value", [
    ("--spot", "inf"), ("--barrier", "inf"), ("--strike", "nan"), ("--r", "inf"),
    ("--sigma2", "inf"), ("--lambda", "nan"), ("--lambda", "inf"), ("--rho", "inf"),
])
def test_non_finite_input_exit_2(flag, value, capsys):
    # Before the finiteness guards, an infinite spot or barrier priced with
    # exit 0 and printed the non-JSON token Infinity, and a NaN intensity
    # surfaced as a DegenerateCancellation.
    args = ["price", *JUMPS]
    args[args.index(flag) + 1] = value
    code, doc = run_json(args, capsys)
    assert code == 2
    assert doc["error"]["type"] == "InvalidParams"


def test_barrier_below_strike_exit_2(capsys):
    args = ["price", *BASE]
    args[args.index("--barrier") + 1] = "90"
    code, doc = run_json(args, capsys)
    assert code == 2
    assert doc["error"]["type"] == "InvalidParams"


def test_missing_required_flag_exit_2(capsys):
    code, doc = run_json(["price", "--r", "0.05", "--sigma2", "0.2",
                          "--strike", "100", "--barrier", "120"], capsys)
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"


# ------------------------------------------------------------------ config


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reference configuration\n"
        "r = 0.05\n"
        "sigma2 = 0.2\n"
        "lambda = 5\n"
        "rho = 2\n"
        "strike = 100\n"
        "barrier = 120\n"
        "spot = 110\n"
    )
    code, doc = run_json(["price", "--config", str(cfg)], capsys)
    assert code == 0
    assert doc["a_star"] == pytest.approx(63.18132384302513, rel=1e-9)


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=0.05\nsigma2=0.2\nstrike=100\nbarrier=120\nspot=110\n")
    code, doc = run_json(["price", "--config", str(cfg), "--spot", "40"], capsys)
    assert code == 0
    assert doc["region"] == "Exercise"


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=0.05\nvol=0.2\n")
    code, doc = run_json(["price", "--config", str(cfg), *BASE[2:]], capsys)
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"


def test_malformed_config_line_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r 0.05\n")
    code, doc = run_json(["price", "--config", str(cfg)], capsys)
    assert code == 2


BASE_FILE = "r = 0.05\nsigma2 = 0.2\nstrike = 100\nbarrier = 120\nspot = 110\n"
JUMPS_FILE = BASE_FILE + "lambda = 5\nrho = 2\n"


def test_config_file_that_is_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(BASE_FILE.encode() + b"# \xff\n")
    code, doc = run_json(["price", "--config", str(cfg)], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert str(cfg) in doc["error"]["message"] and "UTF-8" in doc["error"]["message"]


def test_config_file_with_a_byte_order_mark_prices(tmp_path, capsys):
    # Editors that save UTF-8 with a BOM put U+FEFF before the first key; it
    # is not part of the key.
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + BASE_FILE.encode())
    code, doc = run_json(["price", "--config", str(cfg)], capsys)
    assert code == 0
    assert doc == run_json(["price", *BASE], capsys)[1]


def test_repeated_config_key_exit_2(tmp_path, capsys):
    # The second r would silently replace the first; neither is guessed.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 0.05\n" + BASE_FILE.replace("r = 0.05", "r = 0.07"))
    code, doc = run_json(["price", "--config", str(cfg)], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert doc["error"]["message"] == f"{cfg}:2: key 'r' already set on line 1"


@pytest.mark.parametrize("name", ["missing.cfg", "."])
def test_unreadable_config_file_exit_3(name, tmp_path, capsys):
    # A path that does not exist, or a directory: an I/O error, not bad input.
    code = main(["price", "--config", str(tmp_path / name)])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and err.startswith("io error: ")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["simulate", "--paths", "200", "--seed", "3", "--out", "paths.csv"], "mode = direct"),
        (["validate", "--suite", "mc", "--paths", "400", "--seed", "3"], "mode = direct"),
        (["price"], "seed = 3"),
    ],
)
def test_config_key_without_a_flag_exit_2(argv, line, tmp_path, capsys, monkeypatch):
    # simulate and validate choose their own modes and have no --mode; a
    # file's mode must be refused, not accepted and then ignored.
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(JUMPS_FILE + line + "\n")
    code, doc = run_json([*argv, "--config", str(cfg)], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert repr(line.split(" = ")[0]) in doc["error"]["message"]
    assert not (tmp_path / "paths.csv").exists()


@pytest.mark.parametrize(
    "argv, line, message",
    [
        (["validate", "--suite", "mc", "--seed", "3"], "paths = ten", "paths='ten'"),
        (["price"], "lambda = 5", "rho is required"),
        (["threshold"], "mode = sideways", "mode must be 'survival' or 'direct'"),
    ],
)
def test_config_file_input_errors_exit_2(argv, line, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_FILE + line + "\n")
    code, doc = run_json([*argv, "--config", str(cfg)], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert message in doc["error"]["message"]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["threshold", "--mode", "direct", "--workers", "99", "--paths", "5"], ""),
        (["threshold", "--grid-min", "40", "--grid-max", "80", "--grid-step", "10",
          "--seed", "3"], ""),
        (["validate", "--suite", "analytic", "--workers", "99", "--paths", "5"], ""),
        (["threshold"], "workers = 2"),
        (["validate", "--suite", "analytic"], "horizon = 300"),
    ],
)
def test_mc_setting_on_a_command_that_does_not_simulate_exit_2(argv, line, tmp_path, capsys):
    # threshold without --mc and validate --suite analytic read no MC
    # setting, so one given by flag or file is refused, not ignored.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(JUMPS_FILE + line + "\n")
    code, doc = run_json([*argv, "--config", str(cfg)], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert "runs no simulation" in doc["error"]["message"]


# --------------------------------------------------------------- threshold


def test_threshold_closed_form(capsys):
    code, doc = run_json(["threshold", *JUMPS], capsys)
    assert code == 0
    assert doc["a_star"] == pytest.approx(63.18132384302513, rel=1e-9)


def test_threshold_grid_closed_form(capsys):
    code, doc = run_json(
        ["threshold", *JUMPS, "--grid-min", "40", "--grid-max", "80", "--grid-step", "1"],
        capsys,
    )
    assert code == 0
    assert doc["a_star"] == 63.0  # nearest integer grid point to 63.18
    assert doc["method"] == "grid-closed-form"
    assert doc["grid"]["points"] == 41


@pytest.mark.parametrize(
    "grid",
    [
        ["--grid-min", "40", "--grid-max", "80", "--grid-step", "0"],
        ["--grid-min", "40", "--grid-max", "80", "--grid-step", "-1"],
    ],
)
def test_threshold_grid_nonpositive_step_exit_2(grid, capsys):
    code, doc = run_json(["threshold", *BASE, *grid], capsys)
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"


def test_threshold_grid_min_above_max_exit_2(capsys):
    code, doc = run_json(
        ["threshold", *BASE, "--grid-min", "90", "--grid-max", "50", "--grid-step", "1"], capsys
    )
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"


def test_threshold_grid_point_cap_exit_2(monkeypatch, capsys):
    # 1e-4 steps over (1, 99) would be about 980,000 points; the cap is 100,000,
    # and the grid is refused before any point is evaluated.
    def evaluated(*_args):
        raise AssertionError("grid search evaluated a point")

    monkeypatch.setattr(pricer, "policy_values", evaluated)
    code, doc = run_json(
        ["threshold", *BASE, "--grid-min", "1", "--grid-max", "99", "--grid-step", "1e-4"],
        capsys,
    )
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"
    assert "100000 points" in doc["error"]["message"]


@pytest.mark.parametrize("mode", [[], ["--mode", "direct"]])
def test_threshold_grid_mc(mode, tmp_path, capsys):
    grid = ["--grid-min", "50", "--grid-max", "70", "--grid-step", "5"]
    argv = ["threshold", *JUMPS, *grid, "--mc", "--paths", "400", "--seed", "3", *mode]
    code, out = run_cli([*argv, "--workers", "1"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["method"] == "grid-mc"
    assert doc["a_star"] in (50.0, 55.0, 60.0, 65.0, 70.0)
    assert doc["grid"]["points"] == 5
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 2\n")
    assert run_cli([*argv, "--config", str(cfg)], capsys) == (0, out)


def test_threshold_grid_mc_reads_mode_from_the_config_file(tmp_path, capsys):
    grid = ["--grid-min", "50", "--grid-max", "60", "--grid-step", "5"]
    argv = ["threshold", *JUMPS, *grid, "--mc", "--paths", "200", "--seed", "3"]
    expected = run_cli([*argv, "--mode", "direct"], capsys)
    assert expected[0] == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = direct\n")
    assert run_cli([*argv, "--config", str(cfg)], capsys) == expected


def test_threshold_grid_mc_requires_seed(capsys):
    code, doc = run_json(
        ["threshold", *JUMPS, "--grid-min", "40", "--grid-max", "80",
         "--grid-step", "10", "--mc", "--paths", "200"],
        capsys,
    )
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"


# ------------------------------------------------------------------- curve


def test_curve_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _ = run_cli(["curve", *BASE, "--smin", "30", "--smax", "160",
                       "--points", "27", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,payoff,value"
    assert len(lines) == 28
    for row in lines[1:]:
        s, payoff, value = (float(x) for x in row.split(","))
        if s <= 50.0:  # at or below the threshold the value IS the payoff
            assert abs(payoff - value) <= 1e-9
        else:
            assert value > payoff - 1e-12


def test_curve_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _ = run_cli(["curve", *JUMPS, "--smin", "10", "--smax", "200",
                           "--points", "40", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_curve_bad_grid_exit_2(tmp_path, capsys):
    code, doc = run_json(["curve", *BASE, "--smin", "50", "--smax", "30",
                          "--points", "10", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2


@pytest.mark.parametrize("smax", ["inf", "nan"])
def test_curve_non_finite_bound_exit_2(smax, tmp_path, capsys):
    code, doc = run_json(["curve", *BASE, "--smin", "20", "--smax", smax, "--points", "3",
                          "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert "smax < inf" in doc["error"]["message"] and smax in doc["error"]["message"]
    assert not (tmp_path / "x.csv").exists()


def test_curve_single_point_exit_2(tmp_path, capsys):
    code, doc = run_json(["curve", *BASE, "--smin", "30", "--smax", "60", "--points", "1",
                          "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert not (tmp_path / "x.csv").exists()


def test_curve_too_many_points_exit_2(tmp_path, monkeypatch, capsys):
    # The row list grows with --points; past the grid limit it is refused
    # before any point is evaluated.
    def evaluated(*_args):
        raise AssertionError("curve evaluated a point")

    monkeypatch.setattr(cli, "optimal_threshold", evaluated)
    monkeypatch.setattr(cli, "policy_values", evaluated)
    code, doc = run_json(["curve", *BASE, "--smin", "30", "--smax", "60", "--points", "100001",
                          "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert "100000 points" in doc["error"]["message"]
    assert not (tmp_path / "x.csv").exists()


def test_curve_to_near_the_largest_float_stays_finite(tmp_path, capsys):
    # smax * 1 would overflow if formed as (smax - smin) * i / (n - 1).
    out = tmp_path / "curve.csv"
    code, _ = run_cli(["curve", *BASE, "--smin", "1", "--smax", "1.7e308", "--points", "3",
                       "--out", str(out)], capsys)
    assert code == 0
    rows = [[float(x) for x in row.split(",")] for row in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 and all(math.isfinite(x) for row in rows for x in row)
    assert rows[-1][0] == 1.7e308


def test_curve_unwritable_path_exit_3(capsys):
    code, _ = run_cli(["curve", *BASE, "--smin", "30", "--smax", "60",
                       "--points", "5", "--out", "/nonexistent-dir/x.csv"], capsys)
    assert code == 3


# ---------------------------------------------------------------- simulate


def test_simulate_csv(tmp_path, capsys):
    out = tmp_path / "paths.csv"
    code, _ = run_cli(["simulate", *JUMPS, "--paths", "150",
                       "--seed", "21", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "path_index,tau,s_tau,crossing_type"
    assert len(lines) == 151
    kinds = {row.split(",")[3] for row in lines[1:]}
    assert kinds <= {"creep", "jump", "none"}
    assert "jump" in kinds  # lam=5 makes jump crossings overwhelmingly likely


def test_simulate_default_horizon_covers_low_rates(tmp_path, capsys):
    # The estimators need horizon >= 10/r, so the default must grow past 200.
    out = tmp_path / "paths.csv"
    code, _ = run_cli(["simulate", "--r", "0.01", "--sigma2", "0.2", "--strike", "100",
                       "--barrier", "120", "--spot", "110", "--seed", "1",
                       "--paths", "200", "--out", str(out)], capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 201


def test_simulate_unwritable_path_exit_3(capsys):
    code, out = run_cli(["simulate", *JUMPS, "--paths", "100", "--seed", "3",
                         "--out", "/nonexistent-dir/x.csv"], capsys)
    assert code == 3 and out == ""


def test_simulate_requires_seed(tmp_path, capsys):
    out = tmp_path / "paths.csv"
    code, doc = run_json(["simulate", *JUMPS, "--paths", "150", "--out", str(out)], capsys)
    assert code == 2
    assert "seed" in doc["error"]["message"]


def test_simulation_from_a_spot_at_or_below_the_threshold_exit_2(tmp_path, capsys):
    # At spot 40 the jump set's a* = 63.18 lies above the spot: every path
    # would stop at once, and the refusal names the spot the user gave.
    out = tmp_path / "paths.csv"
    low = [*JUMPS[:-1], "40", "--paths", "100", "--seed", "3"]
    for argv in (["simulate", *low, "--out", str(out)], ["validate", *low, "--suite", "mc"],
                 ["validate", *low, "--suite", "all"]):
        code, doc = run_json(argv, capsys)
        assert code == 2 and doc["error"]["type"] == "ConfigError"
        assert "spot=40.0: the spot is at or below the threshold" in doc["error"]["message"]
    assert not out.exists()


def test_validate_all_refuses_a_low_spot_before_the_analytic_suite(capsys, monkeypatch):
    # The MC suite runs first: its refusal of spot 40 < a* = 63.18 comes
    # before any analytic check is computed, and stdout holds only the error.
    from cancelput import diagnostics

    def not_reached(*_args):
        raise AssertionError("analytic_suite ran for inputs the MC suite refuses")

    monkeypatch.setattr(diagnostics, "analytic_suite", not_reached)
    low = [*JUMPS[:-1], "40", "--paths", "100", "--seed", "3"]
    code, doc = run_json(["validate", *low, "--suite", "all"], capsys)
    assert code == 2 and list(doc) == ["error"] and doc["error"]["type"] == "ConfigError"


def test_simulate_deterministic_across_workers(tmp_path, capsys):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    base = ["simulate", *JUMPS, "--paths", "200", "--seed", "33"]
    assert run_cli([*base, "--workers", "1", "--out", str(a)], capsys)[0] == 0
    assert run_cli([*base, "--workers", "2", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_zero_workers_exit_2(tmp_path, capsys, monkeypatch):
    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: started.append(max_workers))
    code, doc = run_json(["simulate", *JUMPS, "--paths", "150", "--seed", "1",
                          "--workers", "0", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert "at least 1" in doc["error"]["message"]
    assert started == []


def test_simulate_workers_limit_exit_2(tmp_path, capsys, monkeypatch):
    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: started.append(max_workers))
    code, doc = run_json(["simulate", *JUMPS, "--paths", "5000", "--seed", "1",
                          "--workers", "5000", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert "at most 64" in doc["error"]["message"]
    assert started == []


# ---------------------------------------------------------------- validate


def test_validate_analytic_suites(capsys):
    code, out = run_cli(["validate", *BASE, "--suite", "analytic"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out = run_cli(["validate", *JUMPS, "--suite", "analytic"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "overrides",
    [
        # Gauss-Laguerre rules for the jump term disagree at rho = 0.03; the
        # generator identity needs no quadrature.
        {"--rho": "0.03"},
        # The root below the pole rounds onto -rho; the basis still has one
        # root each side of it, and the set prices as lambda = 0 does.
        {"--lambda": "1e-17"},
        # The low root's decay length, 1/|eta_lo| = 7e-7, is far shorter than
        # any finite-difference step in a*: smooth fit and the first-order
        # condition are read exactly, with no step to choose.
        {"--sigma2": "1e-6", "--lambda": "1", "--rho": "0.5"},
        # test_huge_jump_root_prices' set: the low root is near -2e300, and
        # (s2/2)W''(0+) is formed term by term, not as a NaN.
        {"--sigma2": "1e-300", "--lambda": "1", "--rho": "1e-3"},
        # The lower root is -1e30: read there, the first-order condition's
        # mixed-sign sum cancelled to 0.0 and was divided by.
        {"--rho": "1e30"},
        # psi(-alpha) read as an absolute residual was 4.5e-8, the roundoff
        # of terms of size lambda; relative to its terms it reads 1.5e-16.
        {"--lambda": "1e8", "--rho": "1e-3"},
    ],
    ids=["rho-0.03", "lambda-1e-17", "sigma2-1e-6", "sigma2-1e-300", "rho-1e30", "lambda-1e8"],
)
def test_validate_analytic_passes_at_small_rho_and_lambda(overrides, capsys):
    args = ["validate", *JUMPS, "--suite", "analytic"]
    for flag, value in overrides.items():
        args[args.index(flag) + 1] = value
    code, out = run_cli(args, capsys)
    assert code == 0
    verdicts = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(verdicts) == 13 and all(ln.startswith("PASS") for ln in verdicts)
    assert "13/13 checks passed" in out


def test_validate_mc_suite(capsys):
    code, out = run_cli(["validate", *JUMPS, "--suite", "mc", "--paths", "2000",
                         "--seed", "11"], capsys)
    assert code == 0
    assert "checks passed" in out


def test_validate_mc_requires_seed(capsys):
    code, doc = run_json(["validate", *JUMPS, "--suite", "mc"], capsys)
    assert code == 2


def test_validate_invalid_contract_fails_before_suite(capsys):
    args = ["validate", *BASE, "--suite", "analytic"]
    args[args.index("--barrier") + 1] = "90"
    code, doc = run_json(args, capsys)
    assert code == 2
    assert doc["error"]["type"] == "InvalidParams"


# ------------------------------------------------------------ pinned bytes

# Closed-form stdout and CSV, byte for byte at 12 significant digits: any
# change to the numbers or the layout of price, threshold (with or without a
# grid) or curve fails here.
EXERCISE = [*BASE[:-1], "40"]
# The spot set to repr(a*) itself: the region boundary, where a quote
# stops (Exercise, factors 1 and 0, value G(a*)).
AT_A_STAR_BASE = [*BASE[:-1], "50.0"]
AT_A_STAR_JUMPS = [*JUMPS[:-1], "63.18132384302513"]
GRID = ["--grid-min", "40", "--grid-max", "80", "--grid-step", "0.5"]
PINNED_STDOUT = {
    "price-base": (["price", *BASE], """\
{
  "a_star": 50.0,
  "value": 21.7597069945,
  "creeping_factor": 0.674199862463,
  "undershoot_factor": 0.0,
  "region": "Continuation",
  "params_echo": {
    "r": 0.05,
    "sigma2": 0.2,
    "lambda": 0.0,
    "rho": 1.0,
    "mu": -0.05,
    "alpha": -0.5,
    "strike": 100.0,
    "barrier": 120.0,
    "spot": 110.0
  }
}
"""),
    "price-jumps": (["price", *JUMPS], """\
{
  "a_star": 63.181323843,
  "value": 18.9897944686,
  "creeping_factor": 0.0992770979646,
  "undershoot_factor": 0.849317938732,
  "region": "Continuation",
  "params_echo": {
    "r": 0.05,
    "sigma2": 0.2,
    "lambda": 5.0,
    "rho": 2.0,
    "mu": 1.61666666667,
    "alpha": -0.925343457887,
    "strike": 100.0,
    "barrier": 120.0,
    "spot": 110.0
  }
}
"""),
    "price-exercise": (["price", *EXERCISE], """\
{
  "a_star": 50.0,
  "value": 34.6410161514,
  "creeping_factor": 1.0,
  "undershoot_factor": 0.0,
  "region": "Exercise",
  "params_echo": {
    "r": 0.05,
    "sigma2": 0.2,
    "lambda": 0.0,
    "rho": 1.0,
    "mu": -0.05,
    "alpha": -0.5,
    "strike": 100.0,
    "barrier": 120.0,
    "spot": 40.0
  }
}
"""),
    "price-at-a-star-base": (["price", *AT_A_STAR_BASE], """\
{
  "a_star": 50.0,
  "value": 32.2748612184,
  "creeping_factor": 1.0,
  "undershoot_factor": 0.0,
  "region": "Exercise",
  "params_echo": {
    "r": 0.05,
    "sigma2": 0.2,
    "lambda": 0.0,
    "rho": 1.0,
    "mu": -0.05,
    "alpha": -0.5,
    "strike": 100.0,
    "barrier": 120.0,
    "spot": 50.0
  }
}
"""),
    "price-at-a-star-jumps": (["price", *AT_A_STAR_JUMPS], """\
{
  "a_star": 63.181323843,
  "value": 20.3364151496,
  "creeping_factor": 1.0,
  "undershoot_factor": 0.0,
  "region": "Exercise",
  "params_echo": {
    "r": 0.05,
    "sigma2": 0.2,
    "lambda": 5.0,
    "rho": 2.0,
    "mu": 1.61666666667,
    "alpha": -0.925343457887,
    "strike": 100.0,
    "barrier": 120.0,
    "spot": 63.181323843
  }
}
"""),
    "threshold-jumps": (["threshold", *JUMPS], """\
{
  "a_star": 63.181323843,
  "method": "closed-form",
  "params_echo": {
    "r": 0.05,
    "sigma2": 0.2,
    "lambda": 5.0,
    "rho": 2.0,
    "mu": 1.61666666667,
    "alpha": -0.925343457887,
    "strike": 100.0,
    "barrier": 120.0,
    "spot": 110.0
  }
}
"""),
    "threshold-grid-jumps": (["threshold", *JUMPS, *GRID], """\
{
  "a_star": 63.0,
  "method": "grid-closed-form",
  "grid": {
    "min": 40.0,
    "max": 80.0,
    "step": 0.5,
    "points": 81
  },
  "params_echo": {
    "r": 0.05,
    "sigma2": 0.2,
    "lambda": 5.0,
    "rho": 2.0,
    "mu": 1.61666666667,
    "alpha": -0.925343457887,
    "strike": 100.0,
    "barrier": 120.0,
    "spot": 110.0
  }
}
"""),
    "threshold-grid-base": (["threshold", *BASE, "--grid-step", "2.5"], """\
{
  "a_star": 50.0,
  "method": "grid-closed-form",
  "grid": {
    "min": 2.5,
    "max": 97.5,
    "step": 2.5,
    "points": 39
  },
  "params_echo": {
    "r": 0.05,
    "sigma2": 0.2,
    "lambda": 0.0,
    "rho": 1.0,
    "mu": -0.05,
    "alpha": -0.5,
    "strike": 100.0,
    "barrier": 120.0,
    "spot": 110.0
  }
}
"""),
}
PINNED_CURVE = """\
s,payoff,value
40,21.7095198726,21.7095198726
60,21.0622059088,21.0622059088
80,13.7431124841,19.3174554118
100,0,19.0848218353
120,0,18.903530699
140,0,18.751689785
160,0,18.6211482365
180,0,18.506757109
200,0,18.4050263477
"""


# Curves whose first spot is exactly a*: the value there is the payoff.
PINNED_CURVE_FROM_A_STAR = {
    "base": (["--smin", "50.0", "--smax", "200", "--points", "4"], BASE, """\
s,payoff,value
50,32.2748612184,32.2748612184
100,0,22.8217732294
150,0,18.6338998125
200,0,16.1374306092
"""),
    "jumps": (["--smin", "63.18132384302513", "--smax", "200", "--points", "5"], JUMPS, """\
s,payoff,value
63.181323843,20.3364151496,20.3364151496
97.3859928823,2.15472686263,19.1113669943
131.590661922,0,18.8125598531
165.795330961,0,18.5865182701
200,0,18.4050263477
"""),
}


@pytest.mark.parametrize("case", sorted(PINNED_STDOUT))
def test_closed_form_stdout_is_pinned(case, capsys):
    argv, expect = PINNED_STDOUT[case]
    assert run_cli(argv, capsys) == (0, expect)


def test_curve_csv_is_pinned(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    argv = ["curve", *JUMPS, "--smin", "40", "--smax", "200", "--points", "9", "--out", str(out)]
    assert run_cli(argv, capsys) == (0, "")
    assert out.read_bytes() == PINNED_CURVE.encode()


@pytest.mark.parametrize("case", sorted(PINNED_CURVE_FROM_A_STAR))
def test_curve_from_a_star_is_pinned(case, tmp_path, capsys):
    grid, flags, expect = PINNED_CURVE_FROM_A_STAR[case]
    out = tmp_path / "curve.csv"
    assert run_cli(["curve", *flags, *grid, "--out", str(out)], capsys) == (0, "")
    assert out.read_bytes() == expect.encode()


# simulate's CSV by sha256, with the row kinds each run must contain: at
# threshold 0.01 the diffusion leaves 35 of 100 paths at the horizon, and at
# threshold 1e-60 the jump set writes 9 none, 8 creep and 83 jump rows.
PINNED_SIMULATE = {
    "all_kinds": (
        [*JUMPS, "--threshold", "1e-60"], {"creep", "jump", "none"},
        "c915b6b46bf3de419178d8a103fce44ae004ef04f3ab4a8ace6c4f4b629567dd",
    ),
    "diffusion": (
        [*BASE, "--threshold", "0.01"], {"creep", "none"},
        "35736bde79b9405cf270c7d2be9cf8b2857cd103f240c05b5ea423324a6de380",
    ),
    "jumps": (
        JUMPS, {"creep", "jump"},
        "69ba3f90b58d12acb52dc99a3020842de622f2ab5a2227ac72ce52f575b7241c",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_SIMULATE))
def test_simulate_csv_is_pinned(case, tmp_path, capsys):
    flags, kinds, digest = PINNED_SIMULATE[case]
    out = tmp_path / "paths.csv"
    argv = ["simulate", *flags, "--paths", "100", "--seed", "8", "--out", str(out)]
    assert run_cli(argv, capsys)[0] == 0
    rows = out.read_text().splitlines()[1:]
    assert {row.rsplit(",", 1)[1] for row in rows} == kinds
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    # A creep row's s_tau is the stop level itself, written with %.12g.
    if "--threshold" in flags:
        a = float(flags[flags.index("--threshold") + 1])
    else:
        a = run_json(["threshold", *flags], capsys)[1]["a_star"]
    creep_levels = {row.split(",")[2] for row in rows if row.endswith(",creep")}
    assert creep_levels == {"%.12g" % a}


def test_simulate_csv_is_the_same_in_small_blocks(tmp_path, capsys, monkeypatch):
    # With 7-row blocks, rows of every kind meet block edges, and each block
    # must take exactly its own rows' cells.
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 7)
    flags, _kinds, digest = PINNED_SIMULATE["all_kinds"]
    out = tmp_path / "paths.csv"
    argv = ["simulate", *flags, "--paths", "100", "--seed", "8", "--out", str(out)]
    assert run_cli(argv, capsys)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# validate --suite mc's stdout by sha256, on 300 paths at seed 1: the table
# holds every estimate to four decimals and every band to four digits.
PINNED_MC_SUITE = {
    "diffusion": (BASE, "ffcaa7266bff604c2df2210d2489417c4e873ba2efe16f48d3aab2632d718675"),
    "jumps": (JUMPS, "d8326bb4666a425b8cf26e1f87a73276ff85d073be1d5ec77c9dd05fccd6e2b4"),
}


@pytest.mark.parametrize("case", sorted(PINNED_MC_SUITE))
def test_mc_suite_table_is_pinned(case, capsys):
    flags, digest = PINNED_MC_SUITE[case]
    code, out = run_cli(["validate", "--suite", "mc", "--paths", "300", "--seed", "1", *flags], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------------------- entry point


def test_unexpected_exception_exit_4_with_traceback(capsys, monkeypatch):
    # Exit 1 is a FAILed check; a fault of the program exits 4 and shows where.
    def broken(*args):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(cli, "price", broken)
    assert main(["price", *BASE]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and "RuntimeError: broken on purpose" in err


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # The parser is built once per process; one call's flags must not leak
    # into the next call, whatever its subcommand.
    grid = ["--grid-min", "40", "--grid-max", "80", "--grid-step", "1"]
    code, doc = run_json(["threshold", *JUMPS, *grid], capsys)
    assert code == 0 and doc["method"] == "grid-closed-form"
    code, doc = run_json(["threshold", *JUMPS], capsys)
    assert code == 0 and doc["method"] == "closed-form"
    out = tmp_path / "paths.csv"
    assert run_cli(["simulate", *JUMPS, "--paths", "100", "--seed", "5", "--workers", "2",
                    "--out", str(out)], capsys)[0] == 0
    code, doc = run_json(["simulate", *JUMPS, "--paths", "100", "--out", str(out)], capsys)
    assert code == 2 and "seed" in doc["error"]["message"]
    code, doc = run_json(["price", *BASE], capsys)
    assert code == 0 and doc["params_echo"]["lambda"] == 0.0
    code, out_text = run_cli(["validate", *BASE], capsys)
    assert code == 0 and "transform identity" in out_text  # default suite is analytic


@pytest.mark.parametrize("argv, message", [
    (["price", *BASE[:-1]], "argument --spot: expected one argument"),
    (["price", *BASE, "--no-such-flag", "3"], "unrecognized arguments: --no-such-flag 3"),
    (["validate", *BASE, "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
])
def test_usage_error_is_a_json_config_error(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2 and doc["error"]["type"] == "ConfigError"
    assert doc["error"]["message"].startswith(message)
    assert captured.err.startswith("usage: cancelput")


def test_negative_spot_in_exponent_form_is_a_json_error(capsys):
    # -1e-05 is the spot's value, not a flag, so the spot is what is refused.
    code, doc = run_json(["price", *BASE[:-1], "-1e-05"], capsys)
    assert code == 2
    assert doc["error"] == {"type": "InvalidParams",
                            "message": "spot must be positive and finite, got -1e-05"}


@pytest.mark.parametrize("value", ["-1e-05", "-1E5", "-2.5e+3", "-.5e-3", "-3e0"])
@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
def test_negative_spot_in_each_exponent_form_is_invalid_params(value, joined, capsys):
    argv = ["price", *BASE[:-2], *([f"--spot={value}"] if joined else ["--spot", value])]
    code, doc = run_json(argv, capsys)
    assert code == 2
    assert doc["error"] == {"type": "InvalidParams",
                            "message": f"spot must be positive and finite, got {float(value)}"}


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cancelput price")


def test_price_does_not_import_scipy():
    # The package runs on numpy alone: neither import, quoting, nor either
    # validation suite may load scipy (the tests use it only as an oracle).
    code = (
        "import contextlib, io, sys\n"
        "import cancelput\n"
        "from cancelput import cli\n"
        "assert 'scipy' not in sys.modules, 'imported by the package'\n"
        "flags = sys.argv[1:]\n"
        "with contextlib.redirect_stdout(io.StringIO()) as quote:\n"
        "    assert cli.main(['price', *flags]) == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['validate', *flags, '--suite', 'analytic']) == 0\n"
        "    assert cli.main(['validate', *flags, '--suite', 'mc', '--paths', '400',\n"
        "                     '--seed', '3', '--workers', '1']) in (0, 1)\n"
        "assert 'scipy' not in sys.modules, 'imported by a command'\n"
        "print(quote.getvalue())\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, *JUMPS], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["a_star"] == pytest.approx(63.18132384302513, rel=1e-9)


def test_closed_form_commands_do_not_import_numpy(tmp_path):
    # numpy serves only the Monte Carlo and diagnostics layers: importing the
    # package and the closed-form commands must not load it, and the lazy
    # names must load it on first use.  The closed-form records are not
    # dataclasses, so dataclasses and the inspect it imports stay out too.
    code = (
        "import contextlib, io, sys\n"
        "import cancelput\n"
        "from cancelput import cli\n"
        "heavy = ('numpy', 'dataclasses', 'inspect')\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, f'imported by the package: {loaded}'\n"
        "flags, out = sys.argv[1:-1], sys.argv[-1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['price', *flags]) == 0\n"
        "    assert cli.main(['threshold', *flags]) == 0\n"
        "    assert cli.main(['threshold', *flags, '--grid-min', '40', '--grid-max', '80',\n"
        "                     '--grid-step', '0.5']) == 0\n"
        "    assert cli.main(['curve', *flags, '--smin', '10', '--smax', '200',\n"
        "                     '--points', '40', '--out', out]) == 0\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, f'imported by a command: {loaded}'\n"
        "assert {'McConfig', 'mc_suite', 'simulate_paths'} <= set(dir(cancelput))\n"
        "from cancelput import McConfig\n"
        "assert 'numpy' in sys.modules\n"
        "assert McConfig is sys.modules['cancelput.mc'].McConfig\n"
        "missing = [n for n in cancelput.__all__ if not hasattr(cancelput, n)]\n"
        "assert not missing, missing\n"
        "assert set(cancelput.__all__) <= set(dir(cancelput))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, *JUMPS, str(tmp_path / "c.csv")],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr


def test_analytic_validation_does_not_import_numpy():
    # The analytic suite runs on plain floats: on both paper sets it leaves
    # numpy and the simulator unloaded, and the MC suite then loads them.
    code = (
        "import contextlib, io, json, sys\n"
        "from cancelput import cli\n"
        "heavy = ('numpy', 'cancelput.mc')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for flags in json.loads(sys.argv[1]):\n"
        "        assert cli.main(['validate', *flags, '--suite', 'analytic']) == 0\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, f'imported by the analytic suite: {loaded}'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['validate', *flags, '--suite', 'mc', '--paths', '200',\n"
        "                     '--seed', '3']) in (0, 1)\n"
        "missing = [m for m in heavy if m not in sys.modules]\n"
        "assert not missing, f'not imported by the MC suite: {missing}'\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps([BASE, JUMPS])],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr


def test_star_import_resolves_every_name():
    namespace: dict = {}
    exec("from cancelput import *", namespace)
    import cancelput

    assert set(cancelput.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        cancelput.no_such_name  # noqa: B018


def test_console_script_runs():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "cancelput", "price", *BASE],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["a_star"] == 50.0


def test_readme_quick_start_prints_what_it_shows(capsys):
    # The README's first Python block ends in '# ...' lines: what it prints.
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as f:
        block = f.read().split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    shown = []
    while lines[-1].startswith("# "):
        shown.insert(0, lines.pop()[2:])
    assert shown
    exec("\n".join(lines), {})
    assert capsys.readouterr().out.splitlines() == shown
