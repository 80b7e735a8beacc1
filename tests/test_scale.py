"""Harmonic-basis construction and the two fundamental solutions."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

import cancelput
from box import draws
from cancelput.errors import CancelPutError, DegenerateRoots, DomainError
from cancelput.model import laplace_exponent, make_model
from cancelput.pricer import Contract, price
from cancelput.scale import ScaleBasis, _partial_fraction_weights, basis_for
from oracles import w_r

REL = 1e-12

# Frozen three-root basis for the jump configuration (r=.05, sigma2=.2,
# lam=5, rho=2), computed by a high-precision root-finding oracle.
ETA_J = (1.0, -19.114349951605373, -0.05231671506129416)
C_J = (1.417322834645669, -0.4463599126536248, -0.9709629219920444)


def test_three_root_basis_frozen_values(model_jumps):
    b = basis_for(model_jumps)
    assert b.eta[0] == 1.0  # the martingale root, exact
    assert len(b.eta) == len(b.c) == 3
    for got, want in zip(b.eta, ETA_J):
        assert got == pytest.approx(want, rel=REL)
    for got, want in zip(b.c, C_J):
        assert got == pytest.approx(want, rel=REL)


def test_roots_kill_the_rational_cubic(model_jumps):
    # Each eta_i solves psi(theta) = r on its analytic continuation.
    b = basis_for(model_jumps)
    m = model_jumps
    for eta in b.eta:
        # (psi(theta) - r)(theta + rho) expands to a cubic; evaluate the
        # rational form away from the pole.
        val = (
            m.mu * eta
            + 0.5 * m.sigma2 * eta**2
            - m.lam * eta / (eta + m.rho)
            - m.r
        )
        assert abs(val) <= 1e-12


def test_root_layout(model_jumps):
    b = basis_for(model_jumps)
    neg = sorted(b.eta[1:])
    assert neg[0] < -model_jumps.rho
    assert -model_jumps.rho < neg[1] < 0.0


@pytest.mark.parametrize("lam,rho", [(5.0, 2.0), (0.5, 1.0), (2.0, 4.0), (8.0, 0.7)])
def test_weight_identities(lam, rho):
    # The partial-fraction weights satisfy three exact sum rules:
    # sum c = 0, sum c*eta = 2/sigma2, sum c/eta = 1/r.
    m = make_model(r=0.05, sigma2=0.2, lam=lam, rho=rho)
    b = basis_for(m)
    cs = np.array(b.c)
    etas = np.array(b.eta)
    assert abs(cs.sum()) <= 1e-12 * np.abs(cs).max()
    assert float(cs @ etas) == pytest.approx(2.0 / m.sigma2, rel=1e-10)
    assert float((cs / etas).sum()) == pytest.approx(1.0 / m.r, rel=1e-10)


def test_branch_dispatch(model_nojump, model_jumps):
    # One entry point: the jump intensity alone picks two or three roots.
    assert len(basis_for(model_nojump).eta) == len(basis_for(model_nojump).c) == 2
    assert len(basis_for(model_jumps).eta) == len(basis_for(model_jumps).c) == 3
    for gone in ("build_scale_basis", "build_scale_basis_bs"):
        assert not hasattr(cancelput, gone)


def test_two_root_basis_values(model_nojump):
    b = basis_for(model_nojump)
    assert b.eta[1] == pytest.approx(-0.5, abs=1e-15)
    assert b.c[0] == pytest.approx(1.0 / (0.1 * 1.5), rel=REL)
    assert len(b.eta) == len(b.c) == 2
    assert b.c[1] == -b.c[0]


def test_two_root_w_matches_brownian_closed_form(model_nojump):
    # For the pure diffusion the scale function has the textbook form
    # (e^{x} - e^{eta2 x}) * 2 / (sigma2 * (1 - eta2)).
    b = basis_for(model_nojump)
    eta2 = b.eta[1]
    pref = 2.0 / (model_nojump.sigma2 * (1.0 - eta2))
    for x in np.linspace(0.0, 6.0, 37):
        want = pref * (math.exp(x) - math.exp(eta2 * x))
        assert w_r(b, float(x)) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_w_and_z_boundary_values(model_jumps):
    b = basis_for(model_jumps)
    assert abs(w_r(b, 0.0)) <= 1e-12
    # Below the origin W takes its killed value.
    assert w_r(b, -0.3) == 0.0


def test_w_nonnegative_nondecreasing(model_jumps):
    b = basis_for(model_jumps)
    xs = np.linspace(0.0, 5.0, 2001)
    ws = np.array([w_r(b, float(x)) for x in xs])
    assert ws.min() >= -1e-12
    assert np.diff(ws).min() >= -1e-12


def test_laplace_transform_identity(model_jumps):
    # int_0^inf e^{-beta x} W(x) dx = 1 / (psi(beta) - r).  Truncate at 40;
    # the neglected tail is bounded by |c1| e^{(1-beta) 40} / (beta - 1).
    b = basis_for(model_jumps)
    beta = 2.0
    val, err = quad(lambda x: math.exp(-beta * x) * w_r(b, x), 0.0, 40.0, limit=200)
    want = 1.0 / (laplace_exponent(model_jumps, beta) - model_jumps.r)
    tail = abs(b.c[0]) * math.exp((1.0 - beta) * 40.0) / (beta - 1.0)
    assert want == pytest.approx(12.0 / 13.0, rel=REL)  # exact rational here
    assert abs(val - want) <= tail + 1e-8 + 10.0 * err


@pytest.mark.parametrize("lam", [1e-8, 1e-17, 1e-300])
def test_small_lambda_limit_recovers_diffusion_basis(lam):
    # As lambda -> 0 the root below the pole sinks onto -rho with a vanishing
    # weight.  From about lambda = 1e-16 * r it rounds onto -rho exactly; its
    # offset from the pole comes from the offsets' product, so it still prices.
    m_eps = make_model(r=0.05, sigma2=0.2, lam=lam, rho=2.0)
    m0 = make_model(r=0.05, sigma2=0.2, lam=0.0, rho=2.0)
    b_eps = basis_for(m_eps)
    b0 = basis_for(m0)
    for x in np.linspace(0.0, 3.0, 31):
        assert abs(w_r(b_eps, float(x)) - w_r(b0, float(x))) <= 1e-5
    c = Contract(strike=100.0, barrier=120.0, spot=110.0)
    got, want = price(b_eps, m_eps, c), price(b0, m0, c)
    tol = max(1e-12, 1e2 * lam)
    assert got.a_star == pytest.approx(want.a_star, rel=tol)
    assert got.value == pytest.approx(want.value, rel=tol)


def test_coincident_roots_rejected():
    with pytest.raises(DegenerateRoots):
        _partial_fraction_weights((1.0, -2.0, -2.0 + 5e-11), (3.0, 0.0, 5e-11), 0.2)


@pytest.mark.parametrize(
    "etas,pair",
    [
        ((1.0, 1.0 + 5e-11, -2.0), (1.0, 1.0 + 5e-11)),
        ((1.0, -2.0, 1.0 - 5e-11), (1.0, 1.0 - 5e-11)),
        ((1.0, -2.0, -2.0 + 5e-11), (-2.0, -2.0 + 5e-11)),
        # More than one pair coincides: they are checked (0, 1), (0, 2), (1, 2).
        ((1.0, 1.0 + 5e-11, 1.0 - 5e-11), (1.0, 1.0 + 5e-11)),
        ((1.0, 1.0 - 1.8e-10, 1.0 - 0.9e-10), (1.0, 1.0 - 0.9e-10)),
    ],
    ids=["0-1", "0-2", "1-2", "0-1-first", "0-2-first"],
)
def test_coincident_roots_error_names_the_pair(etas, pair):
    with pytest.raises(DegenerateRoots, match=re.escape(f"roots {pair[0]} and {pair[1]} coincide")):
        _partial_fraction_weights(etas, (3.0, -1.0, 1.0), 0.2)


def _loop_weights(etas, offsets, sigma2):
    """Reference partial fractions: a generic loop over any number of roots."""
    out = []
    for i, ei in enumerate(etas):
        denom = sigma2 / 2.0
        for j, ej in enumerate(etas):
            if j == i:
                continue
            gap = ei - ej
            if abs(gap) <= 1e-10:
                raise DegenerateRoots(f"roots {ei} and {ej} coincide within 1e-10")
            denom *= gap
        out.append(offsets[i] / denom)
    return tuple(out)


def _reference_jump_basis(m):
    """basis_for's jump branch with the pole offsets ordered by ``sorted`` and
    the weights from :func:`_loop_weights`; None where the layout check fails."""
    s2, r = m.sigma2, m.r
    j = m.lam / (1.0 + m.rho)
    half = s2 * m.rho / 2.0
    a = r + j - half
    disc = math.hypot(a, math.sqrt(2.0 * s2 * m.rho * j))
    b_plus_d = r + j + half + disc
    eta_lo, eta_hi = -b_plus_d / s2, -2.0 * r * m.rho / b_plus_d
    q = a + math.copysign(disc, a)
    off_lo, off_hi = sorted((-q / s2, 2.0 * m.rho * j / q))
    if not (-math.inf < off_lo < 0.0 < off_hi and eta_hi < 0.0):
        return None
    etas = (1.0, eta_lo, eta_hi)
    return ScaleBasis(etas, _loop_weights(etas, (1.0 + m.rho, off_lo, off_hi), s2))


def test_jump_basis_equals_the_loop_reference_across_the_box():
    # Exact equality, draw by draw: the closed-form weights form the same
    # products in the same order as the loop, and the offsets' order by the
    # sign of q is the one sorted() gives.  The box reaches both signs of
    # a = r + j - sigma2 rho/2, so both orders of the offsets are exercised.
    signs = set()
    compared = 0
    for params, _, _ in draws():
        try:
            m = make_model(*params)
        except CancelPutError:
            continue
        if m.lam == 0.0:
            continue
        want = _reference_jump_basis(m)
        if want is None:
            with pytest.raises(DegenerateRoots):
                basis_for(m)
            continue
        assert basis_for(m) == want, params
        signs.add(math.copysign(1.0, m.r + m.lam / (1.0 + m.rho) - m.sigma2 * m.rho / 2.0))
        compared += 1
    assert signs == {-1.0, 1.0} and compared > 500


def test_no_overflow_far_from_origin(model_jumps):
    # W grows like e^x: finite at 600, beyond the float range at 720, where
    # it refuses with a typed error that names x instead of a value.
    b = basis_for(model_jumps)
    assert math.isfinite(w_r(b, 600.0))
    with pytest.raises(DomainError, match="x=720.0"):
        w_r(b, 720.0)
