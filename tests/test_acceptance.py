"""Acceptance gate: ten go/no-go checks, one per test, each printing a verdict.

Run `pytest tests/test_acceptance.py -v` for one PASSED/FAILED line per
criterion; the printed [PASS]/[FAIL] detail lines carry the observed
numbers and appear in captured output (always shown on failure).

The Monte Carlo criterion runs 10^5 direct-mode paths per case, whose
stops also give the survival estimate; expect about two seconds on one core.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cancelput.mc import (
    McConfig,
    McEstimate,
    McMode,
    estimate_value,
    simulate_paths,
)
from cancelput.model import laplace_exponent, make_model
from cancelput.pricer import (
    Contract,
    g_payoff,
    grid_search_threshold,
    h_function,
    optimal_threshold,
    price,
    value_at_threshold,
)
from cancelput.scale import basis_for
from oracles import bs_reference, generator_apply, w_r

C = Contract(strike=100.0, barrier=120.0, spot=110.0)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def diffusion():
    m = make_model(r=0.05, sigma2=0.2, lam=0.0, rho=1.0)
    return m, basis_for(m)


@pytest.fixture(scope="module")
def jumps():
    m = make_model(r=0.05, sigma2=0.2, lam=5.0, rho=2.0)
    return m, basis_for(m)


def test_criterion_01_diffusion_benchmark(diffusion):
    m, b = diffusion
    t0 = time.perf_counter()
    rep = price(b, m, C)
    ref = bs_reference(m, C)
    elapsed = time.perf_counter() - t0
    exact = 250.0 / math.sqrt(132.0)
    ok = (
        abs(rep.a_star - 50.0) <= 1e-9
        and abs(rep.value - exact) <= 1e-9
        and abs(rep.value - 21.76) <= 5e-3
        and abs(ref.plain_put - 36.70) <= 5e-3
        and elapsed < 0.010
    )
    _verdict(
        1,
        ok,
        f"a*={rep.a_star:.12g} value={rep.value:.12g} (250/sqrt(132)={exact:.12g}) "
        f"plain={ref.plain_put:.6f} in {elapsed*1e3:.2f} ms",
    )


def test_criterion_02_jump_benchmark(jumps):
    m, b = jumps
    t0 = time.perf_counter()
    rep = price(b, m, C)
    elapsed = time.perf_counter() - t0
    ok = abs(rep.a_star - 63.18) <= 1e-2 and abs(rep.value - 18.99) <= 1e-2 and elapsed < 0.010
    _verdict(2, ok, f"a*={rep.a_star:.6f} value={rep.value:.6f} in {elapsed*1e3:.2f} ms")


def test_criterion_03_grid_argmax_matches_closed_form(diffusion, jumps):
    t0 = time.perf_counter()
    worst = 0.0
    for m, b in (diffusion, jumps):
        a_star = optimal_threshold(b, m, C)
        grid = [round(0.01 * i, 2) for i in range(1, 10000)]
        a_hat, _ = grid_search_threshold(m, C, grid)
        worst = max(worst, abs(a_hat - a_star))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 + 1e-9 and elapsed < 1.0
    _verdict(3, ok, f"max |grid argmax - closed form| = {worst:.4g} in {elapsed:.2f} s")


def test_criterion_04_laplace_transform_identity(jumps):
    from scipy.integrate import quad

    m, b = jumps
    t0 = time.perf_counter()
    x_hi = 40.0
    worst_excess = -1.0
    detail = []
    for beta in (1.5, 2.0, 3.0):
        val, _ = quad(lambda x: math.exp(-beta * x) * w_r(b, x), 0.0, x_hi, limit=200)
        want = 1.0 / (laplace_exponent(m, beta) - m.r)
        tail = abs(b.c[0]) * math.exp((1.0 - beta) * x_hi) / (beta - 1.0)
        err = abs(val - want)
        worst_excess = max(worst_excess, err - (tail + 1e-8))
        detail.append(f"beta={beta:g} err={err:.2e} bound={tail + 1e-8:.2e}")
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and elapsed < 1.0
    _verdict(4, ok, "; ".join(detail) + f" in {elapsed:.2f} s")


def test_criterion_05_smooth_fit_and_value_matching(diffusion, jumps):
    t0 = time.perf_counter()
    detail = []
    ok = True
    for label, (m, b) in (("diffusion", diffusion), ("jumps", jumps)):
        a = optimal_threshold(b, m, C)
        match = abs(value_at_threshold(b, m, C, a, a) - g_payoff(m, C, a))
        # Richardson-extrapolated one-sided derivative of the value at a*+
        def v(s: float) -> float:
            return value_at_threshold(b, m, C, s, a)

        d = []
        for h in (1e-4 * a, 5e-5 * a):
            d.append((-3.0 * v(a) + 4.0 * v(a + h) - v(a + 2.0 * h)) / (2.0 * h))
        d_right = 2.0 * d[1] - d[0]
        hg = 1e-6 * a
        d_g = (g_payoff(m, C, a + hg) - g_payoff(m, C, a - hg)) / (2.0 * hg)
        fit = abs(d_right - d_g)
        ok = ok and match <= 1e-10 * C.strike and fit <= 1e-6 * abs(d_g)
        detail.append(f"{label}: |V-G|={match:.2e}, |V'-G'|={fit:.2e} (G'={d_g:.4f})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(5, ok, "; ".join(detail) + f" in {elapsed:.2f} s")


def test_criterion_06_hjb_sign_and_generator(diffusion, jumps):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for label, (m, b) in (("diffusion", diffusion), ("jumps", jumps)):
        a = optimal_threshold(b, m, C)
        ss = np.linspace(0.0, a, 10_002)[1:-1]  # 10^4 interior points
        h_max = max(h_function(m, C, float(s)) for s in ss)
        worst_gen = 0.0
        for s in np.linspace(0.1 * C.strike, 0.9 * a, 100):
            s = float(s)
            lhs = generator_apply(m, lambda u: g_payoff(m, C, u), s) - m.r * g_payoff(m, C, s)
            ref = h_function(m, C, s)
            worst_gen = max(worst_gen, abs(lhs - ref) / abs(ref))
        ok = ok and h_max < 0.0 and worst_gen <= 1e-6
        detail.append(f"{label}: max H={h_max:.3e}, generator rel err={worst_gen:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(6, ok, "; ".join(detail) + f" in {elapsed:.2f} s")


def test_criterion_07_monte_carlo_agreement(diffusion, jumps):
    # One direct-mode run per set: its stops are survival mode's, so the
    # survival estimate comes from the same record, and the two weights of
    # each path are compared pairwise, within 3 SE of their difference.
    t0 = time.perf_counter()
    detail = []
    ok = True
    for label, (m, b), rel_tol in (("diffusion", diffusion, 0.01), ("jumps", jumps, 0.015)):
        a = optimal_threshold(b, m, C)
        closed = price(b, m, C).value
        cfg = McConfig(n_paths=100_000, horizon=200.0, seed=20240811,
                       mode=McMode.DIRECT_LAST_PASSAGE)
        direct = simulate_paths(m, C, a, cfg)
        survival = replace(direct, returned=None)
        est = survival.value(m, C)
        band = max(3.0 * est.stderr, rel_tol * closed)
        ok = ok and abs(est.mean - closed) <= band
        gap = McEstimate.from_sample(direct.payoffs(m, C) - survival.payoffs(m, C))
        ok = ok and abs(gap.mean) <= 3.0 * gap.stderr
        detail.append(
            f"{label}: mc={est.mean:.4f}+-{est.stderr:.4f} closed={closed:.4f} band={band:.4f} "
            f"direct-survival={gap.mean:.4f}+-{gap.stderr:.4f}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 30.0
    _verdict(7, ok, "; ".join(detail) + f" in {elapsed:.1f} s")


def test_criterion_08_undershoot_law(jumps):
    m, b = jumps
    t0 = time.perf_counter()
    a = optimal_threshold(b, m, C)
    cfg = McConfig(n_paths=15_000, horizon=200.0, seed=77)
    paths = simulate_paths(m, C, a, cfg)
    unders = np.log(a) - np.log(paths.s_tau[paths.crossing == "jump"])
    n = unders.size
    se = float(unders.std(ddof=1)) / math.sqrt(n)
    gap = abs(float(unders.mean()) - 0.5)
    elapsed = time.perf_counter() - t0
    ok = n >= 10_000 and gap <= 3.0 * se
    _verdict(
        8, ok, f"{n} jump crossings, mean undershoot {unders.mean():.5f} "
        f"(target 0.5, 3se={3*se:.5f}) in {elapsed:.1f} s"
    )


def test_criterion_09_degenerate_branch_continuity():
    m_eps = make_model(r=0.05, sigma2=0.2, lam=1e-6, rho=2.0)
    m_0 = make_model(r=0.05, sigma2=0.2, lam=0.0, rho=1.0)
    rep_eps = price(basis_for(m_eps), m_eps, C)
    rep_0 = price(basis_for(m_0), m_0, C)
    rel_a = abs(rep_eps.a_star / rep_0.a_star - 1.0)
    rel_v = abs(rep_eps.value / rep_0.value - 1.0)
    ok = rel_a <= 1e-4 and rel_v <= 1e-4
    _verdict(9, ok, f"a* rel diff {rel_a:.2e}, value rel diff {rel_v:.2e} (tol 1e-4)")


def test_criterion_10_determinism_across_workers(jumps):
    m, b = jumps
    a = optimal_threshold(b, m, C)
    one = estimate_value(m, C, a, McConfig(n_paths=500, horizon=200.0, seed=123456789, workers=1))
    two = estimate_value(m, C, a, McConfig(n_paths=500, horizon=200.0, seed=123456789, workers=2))
    ok = one.mean == two.mean and one.stderr == two.stderr
    _verdict(
        10, ok,
        f"workers 1 vs 2: mean {one.mean!r} vs {two.mean!r}, "
        f"stderr {one.stderr!r} vs {two.stderr!r}",
    )
