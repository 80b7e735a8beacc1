"""Closed-form pricing: payoff, passage factors, threshold, value, generator."""
from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from box import case, draws
from cancelput import pricer
from cancelput.errors import (
    CancelPutError,
    DomainError,
    InconsistentBasis,
    InvalidParams,
    NumericsWarning,
    ThresholdOutOfRange,
)
from cancelput.model import ModelParams, laplace_exponent, make_model
from cancelput.pricer import (
    Contract,
    Region,
    _clamped_unit,
    g_integral,
    g_payoff,
    h_function,
    optimal_threshold,
    passage_factors,
    policy_values,
    price,
    value_at_threshold,
)
from cancelput.scale import ScaleBasis, basis_for
from oracles import BranchError, QuadratureFailure, bs_reference, generator_apply

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
    with pytest.raises(DomainError):
        g_payoff(m, c, math.nan)


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
    creep, under = passage_factors(b, model_jumps, a, a)
    assert creep == pytest.approx(1.0, abs=1e-12)
    assert under == pytest.approx(0.0, abs=1e-12)


def test_factors_domain(model_jumps):
    b = basis_for(model_jumps)
    for s, a in ((50.0, A_STAR_JUMPS), (110.0, 0.0), (math.nan, A_STAR_JUMPS)):
        with pytest.raises(DomainError):
            passage_factors(b, model_jumps, s, a)


def test_factor_frozen_values(model_nojump, model_jumps, contract):
    b0 = basis_for(model_nojump)
    creep, under = passage_factors(b0, model_nojump, 110.0, 50.0)
    assert creep == pytest.approx(CREEP_NOJUMP, rel=REL)
    assert under == 0.0  # no jumps, no undershoot
    bj = basis_for(model_jumps)
    creep, under = passage_factors(bj, model_jumps, 110.0, A_STAR_JUMPS)
    assert creep == pytest.approx(CREEP_JUMPS, rel=REL)
    assert under == pytest.approx(UNDER_JUMPS, rel=REL)


def test_factors_sum_to_discounted_passage(model_jumps):
    # creep + undershoot = E[e^{-r tau}], which for the no-jump model is
    # (s/a)^{eta2}; with jumps we freeze the oracle value.
    b = basis_for(model_jumps)
    total = sum(passage_factors(b, model_jumps, 110.0, A_STAR_JUMPS))
    assert total == pytest.approx(0.9485950366970669, rel=1e-11)
    assert 0.0 < total < 1.0


def test_factors_decay_far_from_threshold(model_jumps):
    b = basis_for(model_jumps)
    prev = 1.1
    for s in (70.0, 90.0, 120.0, 200.0, 500.0):
        tot = sum(passage_factors(b, model_jumps, s, A_STAR_JUMPS))
        assert 0.0 <= tot < prev
        prev = tot


def test_factors_clamped_without_warning_for_tiny_excursions(model_nojump):
    # Values a hair outside [0, 1] from roundoff are clamped silently.
    b = basis_for(model_nojump)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, _ = passage_factors(b, model_nojump, 50.0 + 1e-13, 50.0)
    assert val <= 1.0


@pytest.mark.parametrize(
    "ratio,under,value",
    [
        (1e12, 0.014796249303647233, 0.5063100165703273),
        (1e15, 0.005867220711118153, 0.2007693000100875),
    ],
)
def test_undershoot_far_from_threshold(ratio, under, value):
    # Far above a*, e^x amplifies anything the eta_1 = 1 term leaves behind;
    # on this set its roundoff residue once cost 0.3% of the factor at 1e12
    # and clamped it to zero at 1e15.  Reference: 50-digit mpmath, with the
    # martingale root pinned at exactly 1.
    m = make_model(
        r=0.08193492635809045, sigma2=0.4678551768663966,
        lam=3.604007159110768, rho=2.7065383683819517,
    )
    b = basis_for(m)
    c = Contract(strike=100.0, barrier=131.9181540300086, spot=56.12694880858979 * ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericsWarning)
        rep = price(b, m, c)
    assert rep.a_star == pytest.approx(56.12694880858979, rel=1e-12)
    assert rep.undershoot_factor == pytest.approx(under, rel=1e-6)
    assert rep.value == pytest.approx(value, rel=1e-6)


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
    b = basis_for(m)
    with pytest.raises(ThresholdOutOfRange):
        optimal_threshold(b, m, contract)


def test_threshold_sign_guard(model_jumps, model_nojump, contract):
    # A basis whose second coefficient has the wrong sign breaks the
    # first-order condition's premises: a typed error, not an assert.
    for m in (model_jumps, model_nojump):
        b = basis_for(m)
        flipped = b._replace(c=(b.c[0], -b.c[1], *b.c[2:]))
        with pytest.raises(InconsistentBasis):
            optimal_threshold(flipped, m, contract)


def test_threshold_mixed_sum_guard(model_jumps, contract):
    # Negative coefficients on positive exponents pass the coefficient signs
    # but not the root's: the threshold formula needs a negative root.
    fabricated = ScaleBasis(eta=(1.0, 0.5, 0.2), c=(1.0, -1.0, -1.0))
    with pytest.raises(InconsistentBasis, match="negative root"):
        optimal_threshold(fabricated, model_jumps, contract)


@pytest.mark.parametrize("raw, clamped", [(1.0 + 1e-9, 1.0), (-1e-9, 0.0)])
def test_factor_outside_the_unit_interval_warns_and_clamps(raw, clamped):
    # The warning names the point, so a clamp inside a grid or a curve says where.
    with pytest.warns(NumericsWarning, match="creeping factor at s=110.0, a=50.0 left \\[0, 1\\]"):
        assert _clamped_unit(raw, "creeping factor", 110.0, 50.0) == clamped
    # Within the tolerance the clamp is silent (a NumericsWarning fails the suite).
    assert _clamped_unit(clamped + (raw - clamped) / 100.0, "creeping factor", 110.0, 50.0) == clamped


def test_threshold_sign_guard_survives_optimize_flag():
    # Under python -O asserts vanish; the guard must still fire.
    code = (
        "from cancelput import Contract, InconsistentBasis, basis_for, make_model, optimal_threshold\n"
        "m = make_model(0.05, 0.2, 5.0, 2.0)\n"
        "b = basis_for(m)\n"
        "b = b._replace(c=(b.c[0], -b.c[1], b.c[2]))\n"
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


@pytest.mark.parametrize(
    "bad",
    [(math.nan, 60.0), (150.0, 100.0), (50.0, 120.0), (110.0, 0.0)],
    ids=["nan-spot", "threshold-at-strike", "threshold-above-strike", "zero-threshold"],
)
def test_policy_values_guards_hold_mid_batch(model_jumps, contract, bad):
    # Each guard of the one-point path holds for a point inside a batch: a NaN
    # spot is refused, not priced as NaN, and so is a threshold outside (0, K).
    b = basis_for(model_jumps)
    good = [(110.0, 50.0), (40.0, 60.0)]
    with pytest.raises(DomainError):
        policy_values(b, model_jumps, contract, [*good, bad, *good])


def test_policy_values_clamp_a_factor_mid_batch(model_nojump, contract):
    # Doubled coefficients double the creeping factor, 2 (s/a)^-1/2 here: above
    # 1 only for s/a < 4, so only the middle point is clamped, and its warning
    # says where.
    b = basis_for(model_nojump)
    doubled = b._replace(c=tuple(2.0 * ci for ci in b.c))
    g = g_payoff(model_nojump, contract, 50.0)
    with pytest.warns(NumericsWarning, match="creeping factor at s=75.0, a=50.0 left") as seen:
        values = policy_values(doubled, model_nojump, contract,
                               [(450.0, 50.0), (75.0, 50.0), (800.0, 50.0)])
    assert len(seen) == 1
    assert values[1] == g
    assert values[0] == pytest.approx(2.0 / 3.0 * g, rel=1e-14)
    assert values[2] == pytest.approx(0.5 * g, rel=1e-14)


@pytest.mark.parametrize(
    "entry",
    ["policy_values", "passage_factors", "value_at_threshold", "price", "grid_search_threshold"],
)
def test_clamp_warning_names_the_callers_line(model_nojump, entry, monkeypatch):
    # Every public closed-form entry point, however deep its path into the
    # loop, points the warning at the line that called it.
    b = basis_for(model_nojump)
    doubled = b._replace(c=tuple(2.0 * ci for ci in b.c))
    monkeypatch.setattr(pricer, "basis_for", lambda m: doubled)
    c = Contract(strike=100.0, barrier=120.0, spot=75.0)
    call = {
        "policy_values": lambda: policy_values(doubled, model_nojump, c, [(75.0, 50.0)]),
        "passage_factors": lambda: passage_factors(doubled, model_nojump, 75.0, 50.0),
        "value_at_threshold": lambda: value_at_threshold(doubled, model_nojump, c, 75.0, 50.0),
        "price": lambda: price(doubled, model_nojump, c),
        "grid_search_threshold": lambda: pricer.grid_search_threshold(model_nojump, c, [50.0]),
    }[entry]
    with pytest.warns(NumericsWarning, match="creeping factor at s=75.0, a=50.0 left") as seen:
        call()
    assert [w.filename for w in seen] == [__file__]


def test_policy_values_form_the_payoff_once_per_run_of_equal_thresholds(model_jumps, contract):
    b = basis_for(model_jumps)
    points = [(110.0, 50.0), (130.0, 50.0), (110.0, 60.0), (40.0, 50.0), (110.0, 50.0)]
    expected = [value_at_threshold(b, model_jumps, contract, s, a) for s, a in points]
    divisions = []

    class Threshold(float):  # records x / a: G(a) and G_bar(a) are formed from h / a
        def __rtruediv__(self, other):
            divisions.append((other, float(self)))
            return float(other) / float(self)

    points = [(s, Threshold(a)) for s, a in points]
    assert policy_values(b, model_jumps, contract, points) == expected
    # A threshold that returns after another is a new run: its payoffs are formed again.
    assert [a for x, a in divisions if x == contract.barrier] == [50.0, 60.0, 50.0]


@pytest.mark.parametrize("model", ["model_nojump", "model_jumps"])
@pytest.mark.parametrize(
    "spot, region", [(110.0, Region.CONTINUATION), (30.0, Region.EXERCISE)],
    ids=["continuation", "exercise"],
)
def test_price_forms_the_payoff_from_one_power(model, spot, region, contract, request):
    # G and G_bar at a* share (h/a*)^alpha; below a* the payoff is G(spot).
    m = request.getfixturevalue(model)
    b = basis_for(m)
    powers = []

    class Ratio(float):  # h / x: counts the powers taken of it
        def __pow__(self, other):
            powers.append(float(self))
            return float(self) ** other

    class Barrier(float):
        def __truediv__(self, other):
            return Ratio(float(self) / other)

    plain = contract._replace(spot=spot)
    rep = price(b, m, plain._replace(barrier=Barrier(plain.barrier)))
    assert rep == price(b, m, plain) and rep.region is region
    assert powers == [plain.barrier / (rep.a_star if region is Region.CONTINUATION else spot)]


def _one_point_factors(b, m, s, a):
    """(creep, under) for one s >= a, the per-root sums written out plainly with
    each product in the loop's operand order: the loop must equal it bit for bit."""
    x = math.log(s / a)
    s2 = m.sigma2
    creep = 0.0
    if m.lam == 0.0:
        for ei, ci in zip(b.eta[1:], b.c[1:]):
            creep += ci * (ei - 1.0) * math.exp(ei * x)
        under = 0.0
    else:
        r = m.r
        const = 1.0 - r * b.c[0] / b.eta[0]
        acc = 0.0
        for ei, ci in zip(b.eta[1:], b.c[1:]):
            e = math.exp(ei * x)
            creep += ci * (ei - 1.0) * e
            const -= r * ci / ei
            acc += ci * e * (r / ei - s2 * ei / 2.0 - r + s2 / 2.0)
        under = min(1.0, max(0.0, const + acc))
    return min(1.0, max(0.0, s2 / 2.0 * creep)), under


def _one_point_value(b, m, c, s, a):
    """V(s; a) for one point from :func:`_one_point_factors` and the payoff functions."""
    if not (0.0 < a < c.strike):
        raise DomainError(a)
    if s < a:
        return g_payoff(m, c, s)
    creep, under = _one_point_factors(b, m, s, a)
    return creep * g_payoff(m, c, a) + under * g_integral(m, c, a)


def test_policy_values_match_the_one_point_arithmetic_exactly():
    # Over the priceable draws among the first 500 of the domain sweep, both
    # ways a batch is used: one spot (s0 = a* (s0/a*), up to 1e80 a*) against
    # many thresholds, and one threshold a* against many spots, on and next
    # to a*, below it, and up to 1e80 a*.
    checked = 0
    for params, barrier_ratio, spot_ratio in itertools.islice(draws(), 500):
        try:
            m, b, c, a_star = case(params, barrier_ratio)
        except CancelPutError:
            continue
        s0 = a_star * spot_ratio
        thresholds = [*(k / 20.0 * c.strike for k in range(1, 20)), a_star, a_star * (1.0 + 1e-12)]
        thresholds = [a for a in thresholds if a < c.strike]
        spots = [a_star * q for q in (0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5, 10.0, 1e3, 1e20, 1e80)]
        for points in ([(s0, a) for a in thresholds], [(s, a_star) for s in spots]):
            got = policy_values(b, m, c, points)
            assert got == [_one_point_value(b, m, c, s, a) for s, a in points], (params, points)
            factors = [(s, a) for s, a in points if s >= a]
            assert [passage_factors(b, m, s, a) for s, a in factors] == [
                _one_point_factors(b, m, s, a) for s, a in factors
            ], (params, points)
        # The quote's spot 100 lies above a* < K = 100: its factors and value.
        rep = price(b, m, c)
        factors = _one_point_factors(b, m, c.spot, a_star)
        assert (rep.creeping_factor, rep.undershoot_factor) == factors, params
        assert rep.value == _one_point_value(b, m, c, c.spot, a_star), params
        checked += 1
    assert checked > 250


def test_price_report(model_nojump, model_jumps, contract):
    rep = price(basis_for(model_nojump), model_nojump, contract)
    assert rep.region is Region.CONTINUATION
    assert rep.a_star == pytest.approx(50.0, abs=1e-12)
    assert rep.value == pytest.approx(VALUE_NOJUMP, rel=REL)
    assert rep.undershoot_factor == 0.0
    repj = price(basis_for(model_jumps), model_jumps, contract)
    assert repj.value == pytest.approx(VALUE_JUMPS, rel=REL)
    assert g_integral(model_jumps, contract, repj.a_star) == pytest.approx(GINT_JUMPS, rel=REL)


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


def test_drift_check_reports_the_line_at_the_threshold(model_nojump, model_jumps, contract):
    # h has the sign of delta*s - r*K on (0, a*), so the suite's drift check
    # reports that line's value at a*, with delta = r - psi(1 - alpha).
    from cancelput.diagnostics import analytic_suite

    for m, a_star in ((model_nojump, 50.0), (model_jumps, 63.18132384302513)):
        (check,) = [
            res for res in analytic_suite(m, contract) if res.name.startswith("drift")
        ]
        delta = m.r - laplace_exponent(m, 1.0 - m.alpha)
        assert check.observed == pytest.approx(delta * a_star - m.r * 100.0, rel=1e-9)
        assert check.passed and check.bound == 0.0


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


@pytest.mark.parametrize("rho", [0.05, 0.3, 20.0])
def test_generator_jump_term_across_rho(rho):
    # Monomials again, with jump sizes from huge (mean log-drop 20) to tiny;
    # the jump term is E[(s e^{-Y})^p] - s^p = s^p (rho/(rho+p) - 1).
    m = make_model(r=0.05, sigma2=0.2, lam=0.5, rho=rho)
    for p in (1.0, 2.0):
        got = generator_apply(m, lambda u: u**p, 40.0)
        assert got == pytest.approx(laplace_exponent(m, p) * 40.0**p, rel=1e-8)


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
    # Across the box the closed-form threshold should stay inside (0, K);
    # out-of-range hits raise and are counted.
    escaped = 0
    checked = 0
    for params, barrier_ratio, _spot_ratio in draws():
        try:
            m, b, c, a = case(params, barrier_ratio)
        except ThresholdOutOfRange:
            escaped += 1
            continue
        except CancelPutError:
            continue
        checked += 1
        assert 0.0 < a < 100.0
        v_star = value_at_threshold(b, m, c, 110.0, a)
        # optimality: nudging the threshold never helps; a* exceeds K/1.01
        # on 380 of the 1,186 draws that price, so the nudge up stops short of K
        for bump in (0.99 * a, min(1.01 * a, (a + 100.0) / 2.0)):
            assert value_at_threshold(b, m, c, 110.0, bump) <= v_star + 1e-9
    assert checked >= 50, f"sweep too thin: {checked} checked, {escaped} escaped"
