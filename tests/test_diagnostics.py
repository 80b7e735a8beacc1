"""The suites' own power: every analytic check passes on the true inputs and
FAILs under one perturbation of the defect it is named for; the W checks,
read from the coefficients' signs, the generator identity, the exact
smooth-fit and first-order readings, the grids at the top of the float
range, and the Monte Carlo suite's mode agreement."""
from __future__ import annotations

import itertools
import math

import pytest

from box import case, draws
from cancelput import diagnostics, mc, pricer
from cancelput.mc import McConfig
from cancelput.model import make_model
from cancelput.pricer import Contract
from cancelput.scale import ScaleBasis, basis_for
from oracles import bs_reference

W_CHECK = "W nonnegative and nondecreasing"
SUM_CHECK = "coefficients sum to zero"


def _suite_on(basis, m, c, monkeypatch):
    """The analytic suite's results by name, run on ``basis`` in place of m's."""
    monkeypatch.setattr(diagnostics, "basis_for", lambda m: basis)
    return {res.name: res for res in diagnostics.analytic_suite(m, c)}


EPS = 1e-8


def _scaled(field, i=None):
    """The model's ``field``, or the basis's ``field``[i], times 1 + EPS."""
    def perturb(m, monkeypatch):
        if i is None:
            return m._replace(**{field: getattr(m, field) * (1.0 + EPS)})
        b = basis_for(m)
        values = list(getattr(b, field))
        values[i] *= 1.0 + EPS
        monkeypatch.setattr(diagnostics, "basis_for", lambda m: b._replace(**{field: tuple(values)}))
        return m
    return perturb


def _moved_threshold(m, monkeypatch):
    true = pricer.optimal_threshold
    monkeypatch.setattr(diagnostics, "optimal_threshold", lambda b, m, c: true(b, m, c) * (1.0 + EPS))
    return m


def _falling_w(m, monkeypatch):
    # c_1 negated: the e^x term's slope is wrong-signed, so W falls far out.
    b = basis_for(m)
    monkeypatch.setattr(diagnostics, "basis_for", lambda m: b._replace(c=(-b.c[0], *b.c[1:])))
    return m


def _values_under_the_payoff(m, monkeypatch):
    # Below a* the policy's value is the payoff itself, so 1e-8 under it dips below.
    true = pricer.policy_values
    monkeypatch.setattr(diagnostics, "policy_values", lambda *args: [v * (1.0 - EPS) for v in true(*args)])
    return m


def _drift_positive_before_the_threshold(m, monkeypatch):
    # h_function's delta moved to 2rK/a*, so delta a* - rK = rK > 0.
    def h_function(m, c, s):
        delta = 2.0 * m.r * c.strike / pricer.optimal_threshold(basis_for(m), m, c)
        return (c.barrier / s) ** m.alpha * (delta * s - m.r * c.strike)
    monkeypatch.setattr(diagnostics, "h_function", h_function)
    return m


def _values_over_the_plain_put(m, monkeypatch):
    # The textbook plain put, which is at least K - s, raised by 1e-8.
    monkeypatch.setattr(diagnostics, "policy_values", lambda b, m, c, points: [
        bs_reference(m, c._replace(spot=s)).plain_put * (1.0 + EPS) for s, _ in points])
    return m


BOTH = ("model_nojump", "model_jumps")
PERTURBATIONS = [
    ("martingale identity", _scaled("mu"), BOTH),
    ("cancellation exponent residual", _scaled("alpha"), BOTH),
    ("root residuals", _scaled("eta", 1), BOTH),
    ("coefficients sum to zero", _scaled("c", 0), BOTH),
    ("derivative normalization", _scaled("c", 1), BOTH),
    ("reciprocal-root identity", _scaled("c", -1), BOTH),
    ("transform identity", _scaled("eta", -1), BOTH),
    ("W nonnegative and nondecreasing", _falling_w, BOTH),
    ("smooth fit at the threshold", _moved_threshold, BOTH),
    # The upper root alone: optimal_threshold reads the lower one.
    ("first-order condition at the threshold", _scaled("eta", 2), ("model_jumps",)),
    ("value dominates the payoff", _values_under_the_payoff, BOTH),
    ("drift of discounted payoff negative below the threshold", _drift_positive_before_the_threshold, BOTH),
    ("generator identity", _scaled("alpha"), BOTH),
    ("cancellable never exceeds the plain put", _values_over_the_plain_put, ("model_nojump",)),
]
CASES = [(model, name, perturb) for name, perturb, models in PERTURBATIONS for model in models]


@pytest.mark.parametrize("model", BOTH)
def test_every_check_has_a_perturbation(model, request, contract):
    m = request.getfixturevalue(model)
    ran = [res.name for res in diagnostics.analytic_suite(m, contract)]
    assert ran == [name for mod, name, _ in CASES if mod == model]


@pytest.mark.parametrize("model, name, perturb", CASES,
                         ids=[f"{model[6:]}-{name}" for model, name, _ in CASES])
def test_each_check_fails_under_its_defect(model, name, perturb, request, contract, monkeypatch):
    # Identities are perturbed by a relative 1e-8 in one of mu, alpha, eta_i,
    # c_i or a*; the margins by the defect each is named for.  The check
    # passes on the true inputs and FAILs on the perturbed ones.
    m = request.getfixturevalue(model)

    def check(m):
        (res,) = [res for res in diagnostics.analytic_suite(m, contract) if res.name == name]
        return res

    assert check(m).passed
    res = check(perturb(m, monkeypatch))
    assert not res.passed, res


def test_plain_put_bound_is_finite_at_a_steep_root(model_nojump, contract, monkeypatch):
    # A basis of basis_for's own two-root form with eta_2 = -600: the plain
    # put as a power, (K/(1 - 1/eta_2))^(1 - eta_2), overflowed; as an
    # exponential of a logarithm it can only underflow.
    eta2 = -600.0
    c1 = 1.0 / (model_nojump.sigma2 / 2.0 * (1.0 - eta2))
    results = _suite_on(ScaleBasis(eta=(1.0, eta2), c=(c1, -c1)), model_nojump, contract, monkeypatch)
    assert math.isfinite(results["cancellable never exceeds the plain put"].observed)


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


THRESHOLD_CHECKS = {
    "model_nojump": ("smooth fit at the threshold",),
    "model_jumps": ("smooth fit at the threshold", "first-order condition at the threshold"),
}


@pytest.mark.parametrize("shift", [0.0, 1e-8, 1e-6])
@pytest.mark.parametrize("model", ["model_nojump", "model_jumps"])
def test_threshold_checks_catch_a_moved_threshold(shift, model, request, contract,
                                                   monkeypatch):
    # Smooth fit and, with jumps, the first-order condition are read exactly,
    # so a* moved by 1e-8 relative reads far above both bounds; the true a*
    # passes.  Without jumps the first-order condition is not run: its one
    # negative root is optimal_threshold's own, so smooth fit is the a* check.
    m = request.getfixturevalue(model)
    true = pricer.optimal_threshold
    monkeypatch.setattr(diagnostics, "optimal_threshold",
                        lambda b, m, c: true(b, m, c) * (1.0 + shift))
    results = {res.name: res for res in diagnostics.analytic_suite(m, contract)}
    for name in THRESHOLD_CHECKS[model]:
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


@pytest.mark.parametrize("lam", [0.0, 5.0])
def test_analytic_suite_grids_stay_finite_at_the_top_of_the_float_range(lam):
    # "Value dominates the payoff" runs to 5h and the plain-put bound to 3h;
    # at h = 1e308 both tops pass the largest float, which must cap them.
    m = make_model(r=0.05, sigma2=0.2, lam=lam, rho=2.0)
    results = diagnostics.analytic_suite(m, Contract(strike=100.0, barrier=1e308, spot=110.0))
    assert len(results) == 13
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


@pytest.mark.parametrize("index", [9, 12, 21])
def test_undershoot_law_reads_jumps_that_land_below_the_float_range(index):
    # Box draws whose jumps land so far below a* that s0 e^x underflows to 0:
    # the undershoot and the survival weight are read from the log position,
    # so the row is finite and numpy warns of no division by zero.
    params, barrier_ratio, _spot_ratio = next(itertools.islice(draws(), index, None))
    m, _b, c, a = case(params, barrier_ratio)
    c = c._replace(spot=min(1.3 * a, c.barrier))
    cfg = McConfig(400, max(200.0, 10.0 / m.r), index + 1)  # the horizon validate uses
    (res,) = [res for res in diagnostics.mc_suite(m, c, cfg) if res.name.startswith("undershoot law")]
    assert res.passed and math.isfinite(res.observed) and math.isfinite(res.bound)


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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model", ["model_nojump", "model_jumps"])
def test_mc_suite_rows_equal_those_of_separate_runs(model, workers, request, contract, monkeypatch):
    # The suite's one kernel pass holds the stop paths and the martingale
    # check's terminal paths; run apart, each gives the same rows bit for bit.
    m = request.getfixturevalue(model)
    fused = mc.simulate_stop_and_terminal
    for seed in range(1, 6):
        cfg = McConfig(n_paths=200, horizon=200.0, seed=seed, workers=workers)
        rows = diagnostics.mc_suite(m, contract, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(mc, "simulate_stop_and_terminal", lambda m, c, a, t, cfg: (
                fused(m, c, a, None, cfg)[0], fused(m, c, None, t, cfg)[1]))
            assert diagnostics.mc_suite(m, contract, cfg) == rows


@pytest.mark.parametrize(
    "model, passes", [("model_nojump", 1), ("model_jumps", 2)], ids=["model_nojump", "model_jumps"]
)
def test_mc_suite_kernel_passes(model, passes, request, contract, monkeypatch):
    # The stop and terminal paths in one pass and, without jumps, direct
    # mode's return too, since every stop creeps onto the threshold; with
    # jumps the return starts where each path landed, in a second pass.
    calls = []
    run_paths = mc._run_paths
    monkeypatch.setattr(mc, "_run_paths", lambda *args: calls.append(args) or run_paths(*args))
    diagnostics.mc_suite(request.getfixturevalue(model), contract, McConfig(400, 200.0, 1))
    assert len(calls) == passes


def test_mode_agreement_band_survives_a_payoff_below_1e_154():
    # With the barrier at 1e308 every payoff is near 1e-284, whose squared
    # deviations underflow; the standard error is read from the rescaled
    # sample instead of as 0.  The check itself still fails: the return
    # run's cut-off is absolute, so every direct weight here is 0.
    m = make_model(r=0.05, sigma2=0.2, lam=5.0, rho=2.0)
    c = Contract(strike=100.0, barrier=1e308, spot=110.0)
    (res,) = [res for res in diagnostics.mc_suite(m, c, McConfig(400, 200.0, 3)) if res.name == AGREE]
    assert not res.passed
    assert res.bound / 3.0 == pytest.approx(1.5e-284, rel=0.01)
