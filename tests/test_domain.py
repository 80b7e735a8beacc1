"""Root and threshold accuracy across the documented parameter domain
(``box.py``), against mpmath, and the analytic suite's verdicts over the
same draws.

The oracle below solves the same quadratics in 60-digit arithmetic from the
float inputs and the exact martingale drift, and forms a* from the
first-order condition summed over both negative roots; it shares no code
with the package.
"""
from __future__ import annotations

import itertools
import math

import mpmath
import pytest

from box import DRAWS, STRIKE, case, draws
from cancelput.diagnostics import analytic_suite
from cancelput.errors import CancelPutError
from cancelput.model import make_model
from cancelput.pricer import Contract, optimal_threshold, price
from cancelput.scale import basis_for

ROOT_REL = 1e-12
ETA_REL = 1e-14
COEF_REL = 1e-13
ETA2_ULPS = 4.0
ASTAR_REL = 3e-15


def _oracle(r, sigma2, lam, rho):
    """(alpha, negative scale exponents, coefficients) in 60-digit arithmetic.

    -alpha is the positive root of psi(t)(t + rho)/t, and the negative
    exponents are the roots of (psi(t) - r)(t + rho)/(t - 1); without jumps
    psi is itself the quadratic and the second exponent is -2r/sigma2.  The
    coefficients are the partial fractions of 1/(psi - r) over the roots.
    """
    with mpmath.workdps(60):
        r, s2, lam, rho = (mpmath.mpf(v) for v in (r, sigma2, lam, rho))
        if lam == 0:
            alpha, negative = 2 * (r - s2 / 2) / s2, (-2 * r / s2,)
        else:
            mu = r - s2 / 2 + lam / (1 + rho)

            def roots(b, c):
                d = mpmath.sqrt(b * b - 2 * s2 * c)
                return (-b - d) / s2, (-b + d) / s2

            alpha = -roots(mu + s2 * rho / 2, mu * rho - lam)[1]
            negative = roots(mu + s2 * (rho + 1) / 2, r * rho)
        etas = (mpmath.mpf(1),) + negative
        coeffs = []
        for i, ei in enumerate(etas):
            denom = s2 / 2
            for j, ej in enumerate(etas):
                if j != i:
                    denom *= ei - ej
            coeffs.append((ei + rho if lam else 1) / denom)
        return alpha, negative, coeffs


def _threshold_oracle(r, sigma2, lam, rho, alpha, negative, coeffs):
    """a* for strike STRIKE in 60-digit arithmetic, over _oracle's output.

    Without jumps K(eta2 + alpha)/(eta2 + alpha - 1).  With jumps the
    first-order condition summed over the negative roots: K num/den with
    num = W2 + alpha + rho/(rho - alpha) M, den = W2 - (1 - alpha) +
    rho/(rho - alpha + 1) M, W2 = (s2/2) sum c eta (eta - 1) and
    M = sum c eta (r (1/eta - 1) - (s2/2)(eta - 1)).
    """
    with mpmath.workdps(60):
        k = mpmath.mpf(STRIKE)
        if lam == 0:
            eta2 = negative[0]
            return k * (eta2 + alpha) / (eta2 + alpha - 1)
        r, half, rho = mpmath.mpf(r), mpmath.mpf(sigma2) / 2, mpmath.mpf(rho)
        pairs = list(zip(negative, coeffs[1:]))
        w2 = sum(half * c * e * (e - 1) for e, c in pairs)
        mix = sum(c * e * (r * (1 / e - 1) - half * (e - 1)) for e, c in pairs)
        num = w2 + alpha + rho / (rho - alpha) * mix
        den = w2 - (1 - alpha) + rho / (rho - alpha + 1) * mix
        return k * num / den


def _rel(x, ref):
    return float(abs((mpmath.mpf(x) - ref) / ref))


def _root_errors(params):
    """Relative errors of alpha, the jump exponents, the coefficients and
    a*, and the distance of the jump-free second exponent from the oracle's
    in ulps."""
    m = make_model(*params)
    b = basis_for(m)
    alpha, negative, coeffs = _oracle(*params)
    assert b.eta[0] == 1.0
    errors = {
        "alpha": _rel(m.alpha, alpha),
        "c": max(_rel(c, ref) for c, ref in zip(b.c, coeffs)),
        "a_star": _rel(optimal_threshold(b, m, Contract(STRIKE, 2.0 * STRIKE, STRIKE)),
                       _threshold_oracle(*params, alpha, negative, coeffs)),
    }
    if m.lam == 0.0:
        errors["eta2_ulps"] = float(abs(b.eta[1] - negative[0]) / math.ulp(b.eta[1]))
    else:
        errors["eta"] = max(_rel(e, ref) for e, ref in zip(b.eta[1:], negative))
    return errors


def _within_bounds(errors):
    return (
        errors["alpha"] <= ROOT_REL
        and errors["c"] <= COEF_REL
        and errors["a_star"] <= ASTAR_REL
        and errors.get("eta", 0.0) <= ETA_REL
        and errors.get("eta2_ulps", 0.0) <= ETA2_ULPS
    )


@pytest.mark.parametrize(
    "params",
    [
        # The worst alpha of a 20,000-draw fuzz of the box: psi'(-alpha) is
        # small there, so a small residual does not mean a close root.
        (0.005168806885224186, 1.2163390560821214e-08, 1.064351673145807e-07,
         1.976653778858245e-05),
        # Tiny sigma2, lambda and rho together.
        (3e-4, 7.7e-8, 5.8e-7, 2e-5),
        # Small r against a large sigma2: the quadratic formula's negative
        # root cancels there, while -2r/sigma2 is one rounding.
        (0.0003048064954939779, 1.4671205129024605, 0.0, 1.0),
        (0.05, 0.2, 5.0, 2.0),
        (0.05, 0.2, 0.0, 1.0),
        # The worst coefficients of that fuzz: the root below the pole sits
        # 1.3e-8 from it, so eta + rho cancels unless it comes from the
        # offsets' product.
        (0.0009356707682438538, 1.7493925672380424, 4.8325607751918e-07,
         40.931943675273466),
        # A low root far below the pole, -50.47027953849838, where the
        # cleared cubic's terms reach 1e4.
        (0.05, 0.1, 6.0, 1.5),
    ],
    ids=["fuzz-worst", "tiny-jumps", "diffusion-small-r", "paper-jumps", "paper-diffusion",
         "coefficient-worst", "far-low-root"],
)
def test_roots_match_the_oracle_on_named_sets(params):
    errors = _root_errors(params)
    assert _within_bounds(errors), errors


def test_roots_match_the_oracle_across_the_box():
    worst = {"alpha": 0.0, "c": 0.0, "a_star": 0.0, "eta": 0.0, "eta2_ulps": 0.0}
    outcomes = {"priced": 0, "refused": 0}
    for params, barrier_ratio, spot_ratio in draws():
        try:
            m, b, c, a_star = case(params, barrier_ratio)
            rep = price(b, m, c._replace(spot=a_star * spot_ratio))
        except CancelPutError:
            outcomes["refused"] += 1
            continue
        outcomes["priced"] += 1
        assert 0.0 <= rep.value <= 100.0, params
        for key, err in _root_errors(params).items():
            worst[key] = max(worst[key], err)
    # Both outcomes occur: an upward drift is refused, not priced.
    assert outcomes["priced"] > DRAWS // 2 and outcomes["refused"] > DRAWS // 4
    assert _within_bounds(worst), worst


def test_analytic_suite_passes_wherever_the_box_prices():
    # The first 500 draws at spot a* (s0/a*): every draw that prices runs the
    # whole suite without raising, and every check passes.
    checked = 0
    for params, barrier_ratio, spot_ratio in itertools.islice(draws(), 500):
        try:
            m, b, c, a_star = case(params, barrier_ratio)
            c = c._replace(spot=a_star * spot_ratio)
            price(b, m, c)
        except CancelPutError:
            continue
        failed = [res for res in analytic_suite(m, c) if not res.passed]
        assert not failed, (params, c, failed)
        checked += 1
    assert checked > 250


def test_analytic_suite_passes_on_box_draw_1484():
    # Draw 1,484 of box.draws(), set up as in the sweep above.  Its coefficients
    # (15.03, -3.78, -11.25) sum to 4.6e-14, their rounding, which a scan of
    # W read as a dip of 1.5e-15 below zero at x = 0; that sum is the
    # coefficient check's to judge, and every slope c_i eta_i is positive.
    m = make_model(0.006486230603904512, 0.12010317310239024, 5.163544238333623e-06,
                   0.11143290207166266)
    c = Contract(strike=100.0, barrier=117.9796327142907, spot=52257747808.968796)
    failed = [res for res in analytic_suite(m, c) if not res.passed]
    assert not failed, failed
