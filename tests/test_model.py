"""Model construction, Laplace exponent, and the cancellation exponent."""
from __future__ import annotations

import math

import pytest

from box import draws
from cancelput.errors import CancelPutError, DegenerateCancellation, InvalidParams, PoleError
from cancelput.model import ModelParams, laplace_exponent, make_model

REL = 1e-12


def test_drift_pins_discounted_price_to_martingale(model_nojump, model_jumps):
    # mu is chosen so that psi(1) = r exactly; this is the no-arbitrage pin.
    for m in (model_nojump, model_jumps):
        assert laplace_exponent(m, 1.0) == pytest.approx(m.r, rel=REL)


def test_nojump_drift_and_exponent_are_exact(model_nojump):
    # r - sigma2/2 with these floats lands exactly on -0.05, and the
    # Brownian cancellation exponent 2*mu/sigma2 on -0.5.
    assert model_nojump.mu == -0.05
    assert model_nojump.alpha == -0.5


def test_jump_drift_value(model_jumps):
    # r - sigma2/2 + lam/(1+rho) = 0.05 - 0.1 + 5/3
    assert model_jumps.mu == pytest.approx(0.05 - 0.1 + 5.0 / 3.0, rel=REL)


def test_jump_alpha_frozen_value(model_jumps):
    # Root of psi(-alpha) = 0 in (-1, 0); value frozen from a bisection
    # oracle run at 1e-15 bracket width.
    assert model_jumps.alpha == pytest.approx(-0.9253434578869282, rel=1e-13)


def test_alpha_is_a_root_of_the_exponent(model_nojump, model_jumps):
    for m in (model_nojump, model_jumps):
        assert abs(laplace_exponent(m, -m.alpha)) <= 1e-13


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(r=0.0, sigma2=0.2, lam=0.0, rho=1.0),
        dict(r=-0.05, sigma2=0.2, lam=0.0, rho=1.0),
        dict(r=0.05, sigma2=0.0, lam=0.0, rho=1.0),
        dict(r=0.05, sigma2=-0.2, lam=0.0, rho=1.0),
        dict(r=0.05, sigma2=0.2, lam=-1.0, rho=1.0),
        dict(r=0.05, sigma2=0.2, lam=5.0, rho=0.0),
        dict(r=0.05, sigma2=0.2, lam=5.0, rho=-2.0),
    ],
)
def test_parameter_bounds_rejected(kwargs):
    with pytest.raises(InvalidParams):
        make_model(**kwargs)


def test_nonnegative_drift_means_no_last_passage():
    # mu = r - sigma2/2 >= 0: the log-price drifts up, sup of the path is
    # not attained, and the cancellation feature is vacuous.
    with pytest.raises(DegenerateCancellation):
        make_model(r=0.2, sigma2=0.2, lam=0.0, rho=1.0)
    # With jumps it is the compensated drift mu - lam/rho that must be < 0.
    with pytest.raises(DegenerateCancellation):
        make_model(r=0.3, sigma2=0.2, lam=0.1, rho=10.0)


def test_pole_guard(model_jumps, model_nojump):
    with pytest.raises(PoleError):
        laplace_exponent(model_jumps, -2.0)
    with pytest.raises(PoleError):
        laplace_exponent(model_jumps, -2.5)
    # No jumps, no pole: any theta is fine.
    assert math.isfinite(laplace_exponent(model_nojump, -5.0))


def test_direct_construction_skips_validation():
    # ModelParams is a plain record; tests and experiments may build
    # degenerate instances (e.g. vanishing volatility) directly.
    m = ModelParams(r=0.05, sigma2=1e-12, lam=0.0, rho=1.0, mu=-0.05, alpha=-0.5)
    assert m.sigma2 == 1e-12


def test_alpha_in_open_interval_across_random_parameters():
    # Across the box, alpha must always land strictly inside (-1, 0) and
    # kill the Laplace exponent.
    for params, _barrier_ratio, _spot_ratio in draws():
        try:
            m = make_model(*params)
        except CancelPutError:
            continue
        assert -1.0 < m.alpha < 0.0
        assert abs(laplace_exponent(m, -m.alpha)) <= 1e-12
