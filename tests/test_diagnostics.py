"""The suites' own power: the analytic suite's W checks and the array
evaluation of W they run on, its generator identity, and the Monte Carlo
suite's mode agreement."""
from __future__ import annotations

import numpy as np
import pytest

from cancelput import diagnostics, pricer, scale
from cancelput.mc import McConfig
from cancelput.model import make_model
from cancelput.scale import ScaleBasis, basis_for, w_r

W_CHECK = "W nonnegative and nondecreasing"


def test_w_check_fails_on_a_basis_whose_w_dips(model_nojump, contract, monkeypatch):
    # c = (c1/3, -c1) gives W(0) = -2 c1/3 < 0, then W rises like e^x.  Only
    # c1 changes, so the creeping factor (which reads eta_2 and c_2 alone)
    # stays in [0, 1] and the rest of the suite runs as on the true basis.
    # The dip is read relative to sum |c_i e^{eta_i x}| = 4 c1/3 at x = 0.
    true = basis_for(model_nojump)
    c1 = true.c[0]
    dipping = ScaleBasis(eta=true.eta, c=(c1 / 3.0, -c1))
    monkeypatch.setattr(diagnostics, "basis_for", lambda m: dipping)
    (check,) = [
        res for res in diagnostics.analytic_suite(model_nojump, contract) if res.name == W_CHECK
    ]
    assert not check.passed
    assert check.observed == pytest.approx(0.5, rel=1e-12)


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


@pytest.mark.parametrize("lam", [5.0, 1e-17])
def test_root_residuals_are_relative_and_cleared_of_the_pole(lam, contract):
    # At lambda = 1e-17 the root below the pole rounds onto -rho, where
    # psi(theta) - r itself would divide by zero.
    m = make_model(r=0.05, sigma2=0.2, lam=lam, rho=2.0)
    results = {res.name: res for res in diagnostics.analytic_suite(m, contract)}
    check = results["root residuals"]
    assert check.passed and check.observed <= 1e-15 and check.bound == 1e-14


@pytest.mark.parametrize("model", ["model_nojump", "model_jumps"])
def test_w_grid_matches_the_scalar_w(model, request):
    b = basis_for(request.getfixturevalue(model))
    xs = np.arange(0.0, 5.0 + 1e-9, 1e-3)
    want = np.array([w_r(b, x) for x in xs.tolist()])
    # W(0) = 0 exactly in both; near 0 both sums cancel, hence the floor.
    assert np.all(np.abs(diagnostics._w_grid(b, xs) - want) <= 1e-12 * np.abs(want) + 1e-15)


def test_analytic_suite_does_not_evaluate_w_point_by_point(
    model_nojump, model_jumps, contract, monkeypatch
):
    # The W checks scan 5,001 + 101 + 25 points; a scalar loop over any of
    # the larger grids shows up as thousands of w_r calls.
    calls = []

    def counted(b, x):
        calls.append(x)
        return w_r(b, x)

    monkeypatch.setattr(scale, "w_r", counted)
    monkeypatch.setattr(diagnostics, "w_r", counted, raising=False)
    for m in (model_nojump, model_jumps):
        assert all(res.passed for res in diagnostics.analytic_suite(m, contract))
    assert len(calls) < 200


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
