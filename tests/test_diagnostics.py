"""The suites' own power: the analytic suite's W checks, read from the
coefficients' signs and from ``w_r``, its generator identity, its exact
smooth-fit and first-order readings, its grids at the top of the float
range, and the Monte Carlo suite's mode agreement."""
from __future__ import annotations

import pytest

from cancelput import diagnostics, pricer, scale
from cancelput.mc import McConfig
from cancelput.model import make_model
from cancelput.pricer import Contract
from cancelput.scale import ScaleBasis, basis_for, w_r

W_CHECK = "W nonnegative and nondecreasing"
SUM_CHECK = "coefficients sum to zero"


def _suite_on(basis, m, c, monkeypatch):
    """The analytic suite's results by name, run on ``basis`` in place of m's."""
    monkeypatch.setattr(diagnostics, "basis_for", lambda m: basis)
    return {res.name: res for res in diagnostics.analytic_suite(m, c)}


def test_w_check_fails_on_a_basis_whose_w_dips(model_nojump, contract, monkeypatch):
    # c = (c1/3, -c1) gives W(0) = -2 c1/3 < 0, then W rises like e^x.  Only
    # c1 changes, so the creeping factor (which reads eta_2 and c_2 alone)
    # stays in [0, 1] and the rest of the suite runs as on the true basis.
    # Both slopes c_i eta_i keep their signs, so W still rises; its dip below
    # zero is W(0) = sum c_i, which the coefficient sum reads.
    true = basis_for(model_nojump)
    c1 = true.c[0]
    dipping = ScaleBasis(eta=true.eta, c=(c1 / 3.0, -c1))
    results = _suite_on(dipping, model_nojump, contract, monkeypatch)
    assert not results[SUM_CHECK].passed
    assert results[SUM_CHECK].observed == pytest.approx(2.0 * c1 / 3.0, rel=1e-12)
    assert results[W_CHECK].passed and results[W_CHECK].observed == 0.0


def test_w_check_reads_the_share_of_wrong_signed_slopes(model_nojump, contract, monkeypatch):
    # c = (-c1, -c1): the e^x term's slope -c1 is wrong-signed, the other,
    # -c1 eta_2 = c1 |eta_2|, is not, so the share is 1/(1 + |eta_2|), 2/3 at
    # eta_2 = -1/2.  c_2 is untouched, so the rest of the suite still runs.
    true = basis_for(model_nojump)
    c1 = true.c[0]
    falling = ScaleBasis(eta=true.eta, c=(-c1, -c1))
    check = _suite_on(falling, model_nojump, contract, monkeypatch)[W_CHECK]
    assert not check.passed and check.bound == 0.0
    assert check.observed == pytest.approx(1.0 / (1.0 - true.eta[1]), rel=1e-15)


@pytest.mark.parametrize("model", ["model_nojump", "model_jumps"])
def test_generator_identity_catches_a_drift_off_by_1e7(model, request, contract, monkeypatch):
    # h_function's delta scaled by 1 + 1e-7 moves it about 1e-7 relative off
    # (L - r)G, a million times the identity's bound; the true delta passes.
    m = request.getfixturevalue(model)

    def identity():
        (res,) = [
            res for res in diagnostics.analytic_suite(m, contract)
            if res.name == "generator identity"
        ]
        return res

    assert identity().passed

    def off(m, c, s):
        tilt = (c.barrier / s) ** m.alpha
        delta = (pricer.h_function(m, c, s) / tilt + m.r * c.strike) / s
        return tilt * (delta * (1.0 + 1e-7) * s - m.r * c.strike)

    monkeypatch.setattr(diagnostics, "h_function", off)
    res = identity()
    assert not res.passed and res.observed > 1e3 * res.bound


THRESHOLD_CHECKS = ("smooth fit at the threshold", "first-order condition at the threshold")


@pytest.mark.parametrize("shift", [0.0, 1e-8, 1e-6])
@pytest.mark.parametrize("model", ["model_nojump", "model_jumps"])
def test_threshold_checks_catch_a_moved_threshold(shift, model, request, contract,
                                                   monkeypatch):
    # Smooth fit and the first-order condition are read exactly, so a* moved
    # by 1e-8 relative reads far above both bounds; the true a* passes.
    m = request.getfixturevalue(model)
    true = pricer.optimal_threshold
    monkeypatch.setattr(diagnostics, "optimal_threshold",
                        lambda b, m, c: true(b, m, c) * (1.0 + shift))
    results = {res.name: res for res in diagnostics.analytic_suite(m, contract)}
    for name in THRESHOLD_CHECKS:
        res = results[name]
        assert res.passed == (shift == 0.0), res
        assert shift == 0.0 or res.observed > 10.0 * res.bound


@pytest.mark.parametrize("lam", [5.0, 1e-17])
def test_root_residuals_are_relative_and_cleared_of_the_pole(lam, contract):
    # At lambda = 1e-17 the root below the pole rounds onto -rho, where
    # psi(theta) - r itself would divide by zero.
    m = make_model(r=0.05, sigma2=0.2, lam=lam, rho=2.0)
    results = {res.name: res for res in diagnostics.analytic_suite(m, contract)}
    check = results["root residuals"]
    assert check.passed and check.observed <= 1e-15 and check.bound == 1e-14


def test_analytic_suite_does_not_evaluate_w_point_by_point(
    model_nojump, model_jumps, contract, monkeypatch
):
    # W is read through w_r at 25 points ("Z' = r W") and, without jumps, 101
    # more (the Brownian form): 126 for the jump-free set, 25 with jumps.
    # Its monotonicity comes from the coefficients' signs, so a scan of W
    # over a fine grid would show up as thousands of calls.
    calls = []

    def counted(b, x):
        calls.append(x)
        return w_r(b, x)

    monkeypatch.setattr(scale, "w_r", counted)
    monkeypatch.setattr(diagnostics, "w_r", counted)
    for m in (model_nojump, model_jumps):
        assert all(res.passed for res in diagnostics.analytic_suite(m, contract))
    assert len(calls) < 200


@pytest.mark.parametrize("lam", [0.0, 5.0])
def test_analytic_suite_grids_stay_finite_at_the_top_of_the_float_range(lam):
    # "Value dominates the payoff" runs to 5h and the plain-put bound to 3h;
    # at h = 1e308 both tops pass the largest float, which must cap them.
    m = make_model(r=0.05, sigma2=0.2, lam=lam, rho=2.0)
    results = diagnostics.analytic_suite(m, Contract(strike=100.0, barrier=1e308, spot=110.0))
    assert len(results) == (19 if lam == 0.0 else 17)
    failed = [res for res in results if not res.passed]
    assert not failed, failed


AGREE = "survival and direct modes agree"


@pytest.mark.parametrize("model", ["model_nojump", "model_jumps"])
def test_mode_agreement_catches_a_survival_weight_off_by_two_percent(model, request, contract):
    # Direct mode's tilt comes from psi alone, so an alpha 2% off moves only
    # the survival weight (h/S_tau)^alpha.  The paired band is under 0.5% of
    # V at 10,000 paths, so the check must see it; the true alpha passes.
    m = request.getfixturevalue(model)
    cfg = McConfig(n_paths=10_000, horizon=200.0, seed=1)

    def agree(m):
        (res,) = [res for res in diagnostics.mc_suite(m, contract, cfg) if res.name == AGREE]
        return res

    assert agree(m).passed
    off = agree(m._replace(alpha=1.02 * m.alpha))
    assert not off.passed and off.observed > off.bound


def test_undershoot_law_reports_too_few_jump_crossings(contract):
    # Under 30 jump landings the undershoot mean is not tested; the check
    # says so and passes rather than judge a handful of draws.  At lambda =
    # 0.05 about one path in ten stops by a jump.
    m = make_model(r=0.05, sigma2=0.2, lam=0.05, rho=2.0)
    cfg = McConfig(n_paths=100, horizon=200.0, seed=1)
    (res,) = [
        res for res in diagnostics.mc_suite(m, contract, cfg)
        if res.name == "undershoot law (mean vs 1/rho)"
    ]
    assert res.passed and res.note == "too few jump crossings to test"
    assert res.observed < 30.0 == res.bound
