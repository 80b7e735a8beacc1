"""Closed-form pricing: payoff, passage factors, threshold, value, generator."""
from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from cancelput.errors import (
    BranchError,
    DomainError,
    InconsistentBasis,
    InvalidParams,
    QuadratureFailure,
    ThresholdOutOfRange,
)
from cancelput.model import ModelParams, laplace_exponent, make_model
from cancelput.pricer import (
    Contract,
    Region,
    bs_reference,
    creeping_factor,
    g_integral,
    g_payoff,
    generator_apply,
    h_function,
    optimal_threshold,
    price,
    undershoot_factor,
    value_at_threshold,
)
from cancelput.scale import basis_for, build_scale_basis_bs

REL = 1e-12

# Frozen reference outputs.  The no-jump configuration reduces to closed
# forms checkable by hand; the jump configuration was frozen from a
# quadrature/bisection oracle independent of this implementation.
A_STAR_NOJUMP = 50.0
VALUE_NOJUMP = 21.759706994462224  # = 250/sqrt(132)
CREEP_NOJUMP = 0.6741998624632419  # = (110/50)^(-1/2)
A_STAR_JUMPS = 63.18132384302513
VALUE_JUMPS = 18.989794468567634
CREEP_JUMPS = 0.09927709796458127
UNDER_JUMPS = 0.8493179387324855
GINT_JUMPS = 19.981744663063317
DELTA_JUMPS = -0.9808811103075172


# ----------------------------------------------------------------- contract


@pytest.mark.parametrize(
    "strike,barrier,spot",
    [(100.0, 90.0, 110.0), (100.0, 100.0, 110.0), (0.0, 120.0, 110.0), (100.0, 120.0, 0.0), (-5.0, 120.0, 110.0)],
)
def test_contract_rejects_bad_geometry(strike, barrier, spot):
    with pytest.raises(InvalidParams):
        Contract(strike=strike, barrier=barrier, spot=spot)


# ------------------------------------------------------------------ payoff


def test_payoff_values(model_nojump, contract):
    m, c = model_nojump, contract
    assert g_payoff(m, c, 110.0) == 0.0
    assert g_payoff(m, c, 105.0) == 0.0  # above strike
    assert g_payoff(m, c, 50.0) == pytest.approx(50.0 / math.sqrt(2.4), rel=REL)
    # near the origin the cancellation discount damps the intrinsic value
    assert g_payoff(m, c, 1e-6) == pytest.approx(
        (100.0 - 1e-6) * (120.0 / 1e-6) ** -0.5, rel=REL
    )
    with pytest.raises(DomainError):
        g_payoff(m, c, 0.0)
    with pytest.raises(DomainError):
        g_payoff(m, c, -3.0)


def test_payoff_below_plain_put(model_jumps, contract):
    # The cancellation discount (h/s)^alpha < 1 for s < barrier.
    for s in np.linspace(1.0, 99.0, 50):
        assert g_payoff(model_jumps, contract, float(s)) <= 100.0 - s + 1e-12


def test_g_integral_frozen_and_nojump_zero(model_nojump, model_jumps, contract):
    assert g_integral(model_nojump, contract, 50.0) == 0.0
    got = g_integral(model_jumps, contract, A_STAR_JUMPS)
    assert got == pytest.approx(GINT_JUMPS, rel=REL)


def test_g_integral_matches_quadrature(model_jumps, contract):
    # Independent check: integrate the payoff against the overshoot
    # density rho * e^{-rho y} directly.
    m, c = model_jumps, contract
    for a in (30.0, 63.18132384302513, 90.0):
        want, err = quad(
            lambda y: m.rho * math.exp(-m.rho * y) * g_payoff(m, c, a * math.exp(-y)),
            0.0,
            60.0,
            limit=200,
        )
        assert g_integral(m, c, a) == pytest.approx(want, rel=1e-10, abs=10 * err)


def test_g_integral_domain(model_jumps, contract):
    with pytest.raises(DomainError):
        g_integral(model_jumps, contract, 100.0)
    with pytest.raises(DomainError):
        g_integral(model_jumps, contract, 0.0)


# ----------------------------------------------------------- passage factors


def test_factors_at_the_threshold(model_jumps, contract):
    b = basis_for(model_jumps)
    a = A_STAR_JUMPS
    assert creeping_factor(b, model_jumps, a, a) == pytest.approx(1.0, abs=1e-12)
    assert undershoot_factor(b, model_jumps, a, a) == pytest.approx(0.0, abs=1e-12)


def test_factor_frozen_values(model_nojump, model_jumps, contract):
    b0 = basis_for(model_nojump)
    assert creeping_factor(b0, model_nojump, 110.0, 50.0) == pytest.approx(CREEP_NOJUMP, rel=REL)
    assert undershoot_factor(b0, model_nojump, 110.0, 50.0) == 0.0  # no jumps, no undershoot
    bj = basis_for(model_jumps)
    assert creeping_factor(bj, model_jumps, 110.0, A_STAR_JUMPS) == pytest.approx(CREEP_JUMPS, rel=REL)
    assert undershoot_factor(bj, model_jumps, 110.0, A_STAR_JUMPS) == pytest.approx(UNDER_JUMPS, rel=REL)


def test_factors_sum_to_discounted_passage(model_jumps):
    # creep + undershoot = E[e^{-r tau}], which for the no-jump model is
    # (s/a)^{eta2}; with jumps we freeze the oracle value.
    b = basis_for(model_jumps)
    total = creeping_factor(b, model_jumps, 110.0, A_STAR_JUMPS) + undershoot_factor(
        b, model_jumps, 110.0, A_STAR_JUMPS
    )
    assert total == pytest.approx(0.9485950366970669, rel=1e-11)
    assert 0.0 < total < 1.0


def test_factors_decay_far_from_threshold(model_jumps):
    b = basis_for(model_jumps)
    prev = 1.1
    for s in (70.0, 90.0, 120.0, 200.0, 500.0):
        tot = creeping_factor(b, model_jumps, s, A_STAR_JUMPS) + undershoot_factor(
            b, model_jumps, s, A_STAR_JUMPS
        )
        assert 0.0 <= tot < prev
        prev = tot


def test_factors_clamped_without_warning_for_tiny_excursions(model_nojump):
    # Values a hair outside [0, 1] from roundoff are clamped silently.
    b = basis_for(model_nojump)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = creeping_factor(b, model_nojump, 50.0 + 1e-13, 50.0)
    assert val <= 1.0


# ------------------------------------------------------- threshold and value


def test_threshold_nojump_exact(model_nojump, contract):
    b = basis_for(model_nojump)
    a = optimal_threshold(b, model_nojump, contract)
    # K (eta2 + alpha) / (eta2 + alpha - 1) = 100 * (-1) / (-2)
    assert abs(a - 50.0) < 1e-12


def test_threshold_jumps_frozen(model_jumps, contract):
    b = basis_for(model_jumps)
    assert optimal_threshold(b, model_jumps, contract) == pytest.approx(A_STAR_JUMPS, rel=REL)


def test_threshold_is_the_argmax(model_jumps, contract):
    # Brute-force the value-vs-threshold curve on a 0.1 grid; the closed
    # form must sit within one step of the discrete argmax.
    b = basis_for(model_jumps)
    grid = np.arange(0.1, 100.0, 0.1)
    vals = [value_at_threshold(b, model_jumps, contract, 110.0, float(a)) for a in grid]
    a_hat = float(grid[int(np.argmax(vals))])
    assert abs(a_hat - A_STAR_JUMPS) <= 0.1 + 1e-9


def test_threshold_out_of_range_guard(contract):
    # A fabricated record with a positive cancellation exponent drives the
    # closed form negative; the guard must refuse rather than return it.
    m = ModelParams(r=0.05, sigma2=0.2, lam=0.0, rho=1.0, mu=-0.05, alpha=0.6)
    b = build_scale_basis_bs(m)
    with pytest.raises(ThresholdOutOfRange):
        optimal_threshold(b, m, contract)


def test_threshold_sign_guard(model_jumps, contract):
    # A basis whose second coefficient has the wrong sign breaks the
    # first-order condition's premises: a typed error, not an assert.
    b = basis_for(model_jumps)
    flipped = dataclasses.replace(b, c=(b.c[0], -b.c[1], b.c[2]))
    with pytest.raises(InconsistentBasis):
        optimal_threshold(flipped, model_jumps, contract)


def test_threshold_sign_guard_survives_optimize_flag():
    # Under python -O asserts vanish; the guard must still fire.
    code = (
        "import dataclasses\n"
        "from cancelput import Contract, InconsistentBasis, basis_for, make_model, optimal_threshold\n"
        "m = make_model(0.05, 0.2, 5.0, 2.0)\n"
        "b = basis_for(m)\n"
        "b = dataclasses.replace(b, c=(b.c[0], -b.c[1], b.c[2]))\n"
        "try:\n"
        "    optimal_threshold(b, m, Contract(100.0, 120.0, 110.0))\n"
        "except InconsistentBasis:\n"
        "    print('raised')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_value_frozen(model_nojump, model_jumps, contract):
    b0 = basis_for(model_nojump)
    v0 = value_at_threshold(b0, model_nojump, contract, 110.0, 50.0)
    assert v0 == pytest.approx(VALUE_NOJUMP, rel=REL)
    assert v0 == pytest.approx(250.0 / math.sqrt(132.0), rel=1e-13)
    bj = basis_for(model_jumps)
    vj = value_at_threshold(bj, model_jumps, contract, 110.0, A_STAR_JUMPS)
    assert vj == pytest.approx(VALUE_JUMPS, rel=REL)


def test_value_below_threshold_is_payoff(model_jumps, contract):
    b = basis_for(model_jumps)
    for s in (10.0, 40.0, 63.0):
        got = value_at_threshold(b, model_jumps, contract, s, A_STAR_JUMPS)
        assert got == g_payoff(model_jumps, contract, s)


def test_value_threshold_domain(model_jumps, contract):
    b = basis_for(model_jumps)
    for a in (-1.0, 0.0, 100.0, 150.0):
        with pytest.raises(DomainError):
            value_at_threshold(b, model_jumps, contract, 110.0, a)


def test_value_dominates_payoff(model_jumps, contract):
    b = basis_for(model_jumps)
    for s in np.geomspace(1.0, 500.0, 80):
        v = value_at_threshold(b, model_jumps, contract, float(s), A_STAR_JUMPS)
        assert v >= g_payoff(model_jumps, contract, float(s)) - 1e-9


def test_price_report(model_nojump, model_jumps, contract):
    rep = price(basis_for(model_nojump), model_nojump, contract)
    assert rep.region is Region.CONTINUATION
    assert rep.a_star == pytest.approx(50.0, abs=1e-12)
    assert rep.value == pytest.approx(VALUE_NOJUMP, rel=REL)
    assert rep.undershoot_factor == 0.0
    repj = price(basis_for(model_jumps), model_jumps, contract)
    assert repj.value == pytest.approx(VALUE_JUMPS, rel=REL)
    assert repj.g_integral == pytest.approx(GINT_JUMPS, rel=REL)


def test_price_exercise_region(model_nojump):
    b = basis_for(model_nojump)
    c = Contract(strike=100.0, barrier=120.0, spot=40.0)
    rep = price(b, model_nojump, c)
    assert rep.region is Region.EXERCISE
    assert rep.value == pytest.approx(60.0 / math.sqrt(3.0), rel=REL)
    assert rep.creeping_factor == 1.0 and rep.undershoot_factor == 0.0
    # Exactly on the boundary counts as immediate exercise too.
    rep2 = price(b, model_nojump, Contract(strike=100.0, barrier=120.0, spot=50.0))
    assert rep2.region is Region.EXERCISE


def test_smooth_fit_and_value_matching(model_nojump, model_jumps, contract):
    # First-order contact of the value with the payoff at the threshold.
    for m in (model_nojump, model_jumps):
        b = basis_for(m)
        a = optimal_threshold(b, m, contract)
        g_a = g_payoff(m, contract, a)
        v_a = value_at_threshold(b, m, contract, a, a)
        assert abs(v_a - g_a) <= 1e-10 * contract.strike
        h = 1e-5 * a
        d_right = (
            value_at_threshold(b, m, contract, a + h, a)
            - value_at_threshold(b, m, contract, a, a)
        ) / h
        d_g = (g_payoff(m, contract, a + h) - g_payoff(m, contract, a - h)) / (2 * h)
        assert abs(d_right - d_g) <= 1e-4 * abs(d_g)


# --------------------------------------------------------------- h function


def test_delta_coefficient_identity(model_nojump, model_jumps):
    # The drift coefficient in H equals r - psi(1 - alpha); check the two
    # independent expressions against each other and the frozen values.
    for m, want in ((model_nojump, -0.1), (model_jumps, DELTA_JUMPS)):
        s = 60.0
        hs = h_function(m, Contract(strike=100.0, barrier=120.0, spot=110.0), s)
        delta = hs / (120.0 / s) ** m.alpha / s + m.r * 100.0 / s
        assert delta == pytest.approx(want, rel=1e-10)
        assert delta == pytest.approx(m.r - laplace_exponent(m, 1.0 - m.alpha), rel=1e-10)


def test_h_negative_below_strike(model_jumps, contract):
    for s in np.linspace(1.0, 99.9, 60):
        assert h_function(model_jumps, contract, float(s)) < 0.0


def test_h_domain(model_jumps, contract):
    with pytest.raises(DomainError):
        h_function(model_jumps, contract, 100.0)
    with pytest.raises(DomainError):
        h_function(model_jumps, contract, 0.0)


# ---------------------------------------------------------------- generator


def test_generator_on_exponentials(model_nojump, model_jumps):
    # A s^p = psi(p) s^p for monomials; p=1 is the martingale pin r*s.
    for m in (model_nojump, model_jumps):
        for s in (20.0, 80.0, 150.0):
            got = generator_apply(m, lambda u: u, s)
            assert got == pytest.approx(m.r * s, rel=1e-9)
        got2 = generator_apply(m, lambda u: u * u, 50.0)
        assert got2 == pytest.approx(laplace_exponent(m, 2.0) * 2500.0, rel=1e-8)


def test_generator_on_constants(model_jumps):
    assert generator_apply(model_jumps, lambda u: 3.5, 70.0) == 0.0


def test_generator_matches_h_identity(model_nojump, model_jumps, contract):
    # (A - r) applied to the payoff equals H on the exercise region.
    for m in (model_nojump, model_jumps):
        for s in (15.0, 30.0, 45.0):
            lhs = generator_apply(m, lambda u: g_payoff(m, contract, u), s) - m.r * g_payoff(
                m, contract, s
            )
            assert lhs == pytest.approx(h_function(m, contract, s), rel=1e-6)


def test_generator_domain_and_failure(model_jumps):
    with pytest.raises(DomainError):
        generator_apply(model_jumps, lambda u: u, 0.0)
    with pytest.raises(QuadratureFailure):
        generator_apply(model_jumps, lambda u: math.sin(1e5 * u), 50.0)


# --------------------------------------------------------------- bs summary


def test_bs_reference_values(model_nojump, contract):
    ref = bs_reference(model_nojump, contract)
    assert ref.a_star_bs == pytest.approx(50.0, abs=1e-12)
    assert ref.value_bs == pytest.approx(VALUE_NOJUMP, rel=1e-11)
    # Plain perpetual put: threshold K*eta2/(eta2-1), value (K-a)(s/a)^{eta2}.
    a_plain = 100.0 / 3.0
    want = (100.0 - a_plain) * (110.0 / a_plain) ** -0.5
    assert ref.plain_put == pytest.approx(want, rel=REL)
    assert ref.plain_put == pytest.approx(36.6987921708787, rel=REL)
    # Cancellation can only reduce the option's worth.
    assert ref.value_bs < ref.plain_put


def test_bs_reference_rejects_jumps(model_jumps, contract):
    with pytest.raises(BranchError):
        bs_reference(model_jumps, contract)


def test_random_parameter_sweep_thresholds_in_range():
    # Across a seeded cloud of admissible models the closed-form threshold
    # should stay inside (0, K); out-of-range hits raise and are counted.
    rng = np.random.default_rng(20240816)
    c = Contract(strike=100.0, barrier=120.0, spot=110.0)
    escaped = 0
    checked = 0
    for _ in range(100):
        r = float(rng.uniform(0.01, 0.12))
        sigma2 = float(rng.uniform(0.05, 0.6))
        lam = float(rng.uniform(0.0, 6.0))
        rho = float(rng.uniform(0.4, 5.0))
        try:
            m = make_model(r=r, sigma2=sigma2, lam=lam, rho=rho)
        except Exception:
            continue
        b = basis_for(m)
        try:
            a = optimal_threshold(b, m, c)
        except ThresholdOutOfRange:
            escaped += 1
            continue
        checked += 1
        assert 0.0 < a < 100.0
        v_star = value_at_threshold(b, m, c, 110.0, a)
        # optimality: nudging the threshold never helps
        for bump in (0.99 * a, 1.01 * a):
            assert value_at_threshold(b, m, c, 110.0, bump) <= v_star + 1e-9
    assert checked >= 50, f"sweep too thin: {checked} checked, {escaped} escaped"
