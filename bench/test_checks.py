"""The benchmark's own tests: the reference, the input generator, and that
every output check fails on a perturbed result.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import pytest

import checks
import inputs
import reference

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from cancelput import cli  # noqa: E402


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _flags(p: dict, spot: float = reference.PAPER_SPOT) -> list[str]:
    return ["--r", repr(p["r"]), "--sigma2", repr(p["sigma2"]), "--lambda", repr(p["lam"]),
            "--rho", repr(p["rho"]), "--strike", repr(p["strike"]),
            "--barrier", repr(p["barrier"]), "--spot", repr(spot)]


@pytest.fixture(scope="module")
def jump_ref():
    return reference.Reference(**reference.PAPER_JUMPS)


# -- reference -------------------------------------------------------------

def test_reference_matches_paper_figures():
    assert reference.self_check() == []


def test_reference_threshold_is_a_maximum(jump_ref):
    a = jump_ref.a_star
    with reference.mp.workdps(reference.DPS):
        v = lambda x: jump_ref._policy_value(jump_ref._h, reference.mp.mpf(x))  # noqa: E731
        assert v(a) > v(a * (1 + 1e-6)) and v(a) > v(a * (1 - 1e-6))


def test_reference_exercise_region_pays_the_payoff(jump_ref):
    s = 0.8 * jump_ref.a_star
    q = jump_ref.quote(s)
    assert q.region == "Exercise" and q.value == jump_ref.payoff(s)


# -- inputs ----------------------------------------------------------------

@pytest.mark.parametrize("jumps", [False, True])
def test_pool_is_seeded_and_inside_the_domain(jumps):
    pool = inputs.make_pool(7, jumps, 6)
    again = inputs.make_pool(7, jumps, 6)
    assert [(p.r, p.sigma2, p.lam, p.rho, p.barrier, p.spots) for p in pool] == \
           [(p.r, p.sigma2, p.lam, p.rho, p.barrier, p.spots) for p in again]
    assert pool[0].spots != inputs.make_pool(8, jumps, 6)[0].spots
    for p in pool:
        assert inputs.R_RANGE[0] <= p.r <= inputs.R_RANGE[1]
        assert inputs.SIGMA2_RANGE[0] <= p.sigma2 <= inputs.SIGMA2_RANGE[1]
        assert inputs.BARRIER_RANGE[0] <= p.barrier <= inputs.BARRIER_RANGE[1]
        if jumps:
            assert inputs.LAMBDA_RANGE[0] <= p.lam <= inputs.LAMBDA_RANGE[1]
            assert inputs.RHO_RANGE[0] <= p.rho <= inputs.RHO_RANGE[1]
        else:
            assert p.lam == 0.0
        assert not inputs.upward_drift(p.r, p.sigma2, p.lam, p.rho)
        ex, below, above = p.spots
        assert ex < p.ref.a_star < below <= p.barrier <= above


def test_upward_drift_rule():
    assert inputs.upward_drift(0.1, 0.1, 0.0, 1.0)        # mu = 0.05 > 0
    assert not inputs.upward_drift(0.05, 0.2, 0.0, 1.0)   # mu = -0.05
    assert not inputs.upward_drift(0.05, 0.2, 5.0, 2.0)   # paper jump set


# -- closed-form checks ----------------------------------------------------

def test_price_check_passes_and_fails_on_perturbation(jump_ref):
    code, out = _cli(["price", *_flags(reference.PAPER_JUMPS)])
    want = jump_ref.quote(reference.PAPER_SPOT)
    assert code == 0 and checks.quote("price", json.loads(out), want) == []
    for key in ("a_star", "value", "creeping_factor", "undershoot_factor"):
        got = json.loads(out)
        got[key] *= 1 + 1e-8
        assert checks.quote("price", got, want), key
    got = json.loads(out)
    got["region"] = "Exercise"
    assert checks.quote("price", got, want)


def test_threshold_and_grid_checks(jump_ref):
    code, out = _cli(["threshold", *_flags(reference.PAPER_JUMPS)])
    assert code == 0 and checks.threshold_json("t", out, jump_ref.a_star) == []
    assert checks.threshold_json("t", out, jump_ref.a_star * (1 + 1e-8))

    argv = ["threshold", *_flags(reference.PAPER_JUMPS),
            "--grid-min", "1", "--grid-max", "99", "--grid-step", "0.1"]
    code, out = _cli(argv)
    assert code == 0 and checks.grid_json("g", out, jump_ref.a_star, 0.1, 981) == []
    assert checks.grid_json("g", out, jump_ref.a_star + 0.25, 0.1, 981)
    assert checks.grid_json("g", out, jump_ref.a_star, 0.1, 980)


def test_curve_check(tmp_path, jump_ref):
    path = str(tmp_path / "curve.csv")
    smin, smax, n = 10.0, 240.0, 60
    code, _ = _cli(["curve", *_flags(reference.PAPER_JUMPS), "--smin", repr(smin),
                    "--smax", repr(smax), "--points", str(n), "--out", path])
    assert code == 0
    grid = [smin + (smax - smin) * i / (n - 1) for i in range(n)]
    pays = [jump_ref.payoff(s) for s in grid]
    vals = [jump_ref.value(s) for s in grid]
    text = open(path, encoding="utf-8").read()
    assert checks.curve_csv("c", text, grid, pays, vals, jump_ref.a_star) == []

    rows = text.splitlines()
    i_cont = next(i for i, s in enumerate(grid) if s > jump_ref.a_star) + 1
    s_txt, pay_txt, val_txt = rows[i_cont].split(",")
    perturbed = rows.copy()
    perturbed[i_cont] = f"{s_txt},{pay_txt},{float(val_txt) * (1 + 1e-8):.12g}"
    assert checks.curve_csv("c", "\n".join(perturbed), grid, pays, vals, jump_ref.a_star)
    # below the threshold the value must be the payoff itself
    s_txt, pay_txt, _ = rows[1].split(",")
    perturbed = rows.copy()
    perturbed[1] = f"{s_txt},{pay_txt},{float(pay_txt) + 1e-6:.12g}"
    assert checks.curve_csv("c", "\n".join(perturbed), grid, pays,
                            [float(pay_txt) + 1e-6] + vals[1:], jump_ref.a_star)
    # and never below it, even where the reference agrees
    low = float(pay_txt) * (1 - 1e-7)
    perturbed[1] = f"{s_txt},{pay_txt},{low:.12g}"
    assert checks.curve_csv("c", "\n".join(perturbed), grid, pays,
                            [low] + vals[1:], jump_ref.a_star)


def test_analytic_report():
    code, out = _cli(["validate", *_flags(reference.PAPER_DIFFUSION), "--suite", "analytic"])
    assert code == 0 and checks.analytic_report("a", code, out) == []
    assert checks.analytic_report("a", 1, out.replace("PASS", "FAIL", 1))


# -- Monte Carlo checks ----------------------------------------------------

MC_TABLE = """PASS  policy value vs closed form       observed=4.070e-01  bound=9.783e-01  (mc)
PASS  bridge detects crossings earlier  observed=-8.606e-03  bound=1.000e-12  (x)
2/2 checks passed
"""


def test_mc_report():
    verdicts, errors = checks.mc_report("v", 0, MC_TABLE)
    assert errors == [] and len(verdicts.passed) == 2
    assert checks.mc_report("v", 1, MC_TABLE)[1]                       # exit code disagrees
    assert checks.mc_report("v", 0, MC_TABLE.replace("2/2", "1/2"))[1]  # summary disagrees
    stat_fail = MC_TABLE.replace("PASS  policy", "FAIL  policy").replace("2/2", "1/2")
    verdicts, errors = checks.mc_report("v", 1, stat_fail)
    assert errors == [] and verdicts.failed == ["policy value vs closed form"]
    det_fail = MC_TABLE.replace("PASS  bridge", "FAIL  bridge").replace("2/2", "1/2")
    assert checks.mc_report("v", 1, det_fail)[1]


def _simulate(tmp_path, params: dict, n: int, seed: int) -> str:
    path = str(tmp_path / "paths.csv")
    code, _ = _cli(["simulate", *_flags(params), "--paths", str(n), "--seed", str(seed),
                    "--workers", "1", "--out", path])
    assert code == 0
    return open(path, encoding="utf-8").read()


def _rewrite(text: str, fn) -> str:
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        idx, tau, s, kind = line.split(",")
        out.append(",".join(fn(idx, tau, s, kind)))
    return "\n".join(out) + "\n"


def _pooled_errors(ref, text: str, n: int) -> list[str]:
    pooled = checks.PooledPaths(ref, reference.PAPER_SPOT)
    return pooled.add_csv("sim", text, n) + pooled.errors()


def test_pooled_mc_checks_pass_and_fail_on_perturbation(tmp_path, jump_ref):
    n = 3000
    text = _simulate(tmp_path, reference.PAPER_JUMPS, n, seed=2024)
    assert _pooled_errors(jump_ref, text, n) == []

    # later stopping times lower the discounted payoff and both factors
    late = _rewrite(text, lambda i, t, s, k: (i, f"{float(t) * 1.3:.12g}" if t else t, s, k))
    assert any("payoff" in e for e in _pooled_errors(jump_ref, late, n))
    # deeper jumps break the exponential undershoot law
    deep = _rewrite(text, lambda i, t, s, k: (
        i, t, f"{float(s) * 0.9:.12g}" if k == "jump" else s, k))
    assert any("undershoot law" in e for e in _pooled_errors(jump_ref, deep, n))
    # creep rows must sit exactly on a*
    a_txt = f"{jump_ref.a_star * (1 + 1e-6):.12g}"
    off = _rewrite(text, lambda i, t, s, k: (i, t, a_txt if k == "creep" else s, k))
    assert any("creep row" in e for e in _pooled_errors(jump_ref, off, n))
    # relabelling creeps as jumps moves weight between the two factors
    swapped = _rewrite(text, lambda i, t, s, k: (i, t, s, "jump" if k == "creep" else k))
    assert _pooled_errors(jump_ref, swapped, n)


def test_pooled_diffusion_has_no_jump_crossings(tmp_path):
    ref = reference.Reference(**reference.PAPER_DIFFUSION)
    n = 400
    text = _simulate(tmp_path, reference.PAPER_DIFFUSION, n, seed=5)
    assert _pooled_errors(ref, text, n) == []
    lines = text.splitlines()
    i = next(j for j, ln in enumerate(lines) if ln.endswith(",creep"))
    idx, tau, _s, _k = lines[i].split(",")
    lines[i] = f"{idx},{tau},{ref.a_star * 0.9:.12g},jump"
    assert _pooled_errors(ref, "\n".join(lines) + "\n", n)


def test_pooled_band_is_three_standard_errors_with_payoff_floor(jump_ref):
    pooled = checks.PooledPaths(jump_ref, reference.PAPER_SPOT)
    for x in (1.0, 3.0):
        for moments in (pooled.payoff, pooled.creep, pooled.jump, pooled.undershoot):
            moments.add(x)
    want = jump_ref.quote(reference.PAPER_SPOT).value
    (name, diff, band), *_ = pooled.verdicts()
    assert name == "payoff" and diff == pytest.approx(abs(2.0 - want))
    assert band == pytest.approx(max(3.0 * math.sqrt(2.0 / 2.0), 0.015 * want))
