"""End-to-end CLI coverage: JSON schema, exit codes, config files, CSV output."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

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


def test_invalid_params_exit_2(capsys):
    code, doc = run_json(["price", "--r", "-1", "--sigma2", "0.2",
                          "--strike", "100", "--barrier", "120", "--spot", "110"], capsys)
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


def test_threshold_grid_point_cap_exit_2(capsys):
    # 1e-4 steps over (1, 99) would be about 980,000 points; the cap is 100,000.
    code, doc = run_json(
        ["threshold", *BASE, "--grid-min", "1", "--grid-max", "99", "--grid-step", "1e-4"],
        capsys,
    )
    assert code == 2
    assert doc["error"]["type"] == "ConfigError"
    assert "100000 points" in doc["error"]["message"]


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


def test_simulate_requires_seed(tmp_path, capsys):
    out = tmp_path / "paths.csv"
    code, doc = run_json(["simulate", *JUMPS, "--paths", "150", "--out", str(out)], capsys)
    assert code == 2
    assert "seed" in doc["error"]["message"]


def test_simulate_deterministic_across_workers(tmp_path, capsys):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    base = ["simulate", *JUMPS, "--paths", "200", "--seed", "33"]
    assert run_cli([*base, "--workers", "1", "--out", str(a)], capsys)[0] == 0
    assert run_cli([*base, "--workers", "2", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- validate


def test_validate_analytic_suites(capsys):
    code, out = run_cli(["validate", *BASE, "--suite", "analytic"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out = run_cli(["validate", *JUMPS, "--suite", "analytic"], capsys)
    assert code == 0


def test_validate_analytic_reports_a_check_it_cannot_evaluate(capsys):
    # At rho = 0.03 the generator check's quadrature rules disagree; that one
    # check fails and the other seventeen still print.
    args = ["validate", *JUMPS, "--suite", "analytic"]
    args[args.index("--rho") + 1] = "0.03"
    code, out = run_cli(args, capsys)
    assert code == 1
    verdicts = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(verdicts) == 18
    assert [ln for ln in verdicts if ln.startswith("FAIL")] == [
        ln for ln in verdicts if "generator cross-check" in ln
    ]
    assert "17/18 checks passed" in out


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


# ------------------------------------------------------------- entry point


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


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cancelput", "price", *BASE],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["a_star"] == 50.0
