"""Self-check suites: closed-form identities and simulator cross-checks.

Each check returns a record rather than asserting, so the CLI can print a
table and exit nonzero only at the end.  Tolerances are the ones the
closed forms are actually built to meet; the Monte Carlo comparisons use
3-sigma bands, with small relative floors where the band is a sanity check.
The analytic suite runs on plain floats; only the Monte Carlo one loads numpy.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .model import ModelParams, laplace_exponent
from .pricer import Contract, g_integral, g_payoff, h_function, optimal_threshold, policy_values, price
from .scale import basis_for

if TYPE_CHECKING:
    from .mc import McConfig


class CheckResult(NamedTuple):
    name: str
    passed: bool
    observed: float
    bound: float
    note: str = ""


def _check(name: str, observed: float, bound: float, note: str = "") -> CheckResult:
    return CheckResult(name, bool(observed <= bound), float(observed), float(bound), note)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced floats from ``lo`` to ``hi``, as numpy.linspace forms them."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    """``n`` floats in geometric progression from ``lo`` to ``hi``, the top
    capped at the largest float so that a grid reaching past it stays finite."""
    hi = min(hi, sys.float_info.max)
    return [lo, *(10.0**e for e in _linspace(math.log10(lo), math.log10(hi), n)[1:-1]), hi]


def _root_residual(m: ModelParams, theta: float, rate: float) -> float:
    """|psi(theta) - rate|, cleared of the jump pole, over the sum of its terms.

    With jumps the residual is (psi(theta) - rate)(theta + rho) multiplied
    out, so a root next to the pole is not amplified by 1/(theta + rho)^2 and
    a root on it is no division by zero.  Relative to its terms' magnitudes
    it reads the roundoff left in the root: a few ulps for an accurate one.
    """
    terms = [m.sigma2 / 2.0 * theta * theta, m.mu * theta, -rate]
    if m.lam > 0.0:
        terms = [t * theta for t in terms] + [t * m.rho for t in terms] + [-m.lam * theta]
    return abs(sum(terms)) / sum(map(abs, terms))


def _plain_put(k: float, eta2: float, s: float) -> float:
    """The plain perpetual put (no cancellation) at ``s``: K - s at or below
    its boundary a_p = K eta2/(eta2 - 1), and (K - a_p)(s/a_p)^eta2 above,
    with K - a_p = K/(1 - eta2) and the power an exponential of a logarithm,
    so that it can only underflow."""
    a_p = k * eta2 / (eta2 - 1.0)
    return k - s if s <= a_p else k / (1.0 - eta2) * math.exp(eta2 * math.log(s / a_p))


def analytic_suite(m: ModelParams, c: Contract) -> list[CheckResult]:
    """Closed-form identity checks for one parameter set."""
    b = basis_for(m)
    out: list[CheckResult] = []

    # Relative to the magnitudes of psi(1)'s terms, mu + s2/2 - lam/(1 + rho).
    psi_size = max(abs(m.mu) + m.sigma2 / 2.0 + m.lam / (1.0 + m.rho), m.r)
    out.append(_check("martingale identity", abs(laplace_exponent(m, 1.0) - m.r) / psi_size, 1e-14))
    out.append(_check("cancellation exponent residual", _root_residual(m, -m.alpha, 0.0), 1e-14))

    pairs = list(zip(b.eta, b.c))
    worst_root = max(_root_residual(m, e, m.r) for e in b.eta)
    out.append(_check("root residuals", worst_root, 1e-14))

    coef_scale = max(abs(cc) for _, cc in pairs)
    out.append(_check("coefficients sum to zero", abs(sum(cc for _, cc in pairs)), 1e-12 * coef_scale))
    slopes = [cc * e for e, cc in pairs]
    slope = sum(slopes)
    norm = 2.0 / m.sigma2
    out.append(_check("derivative normalization", abs(slope - norm) / norm, 1e-10))
    recip = sum(cc / e for e, cc in pairs)
    out.append(_check("reciprocal-root identity", abs(recip - 1.0 / m.r) * m.r, 1e-10))

    # Transform identity: the Laplace transform of W, sum c_i/(beta - eta_i)
    # term by term, must reproduce the resolvent 1/(psi(beta) - r).  The gap
    # is read relative to the terms' and the target's magnitudes, the worst
    # over three beta.
    worst_tr = 0.0
    for beta in (1.5, 2.0, 3.0):
        target = 1.0 / (laplace_exponent(m, beta) - m.r)
        terms = [cc / (beta - e) for e, cc in pairs]
        worst_tr = max(worst_tr, abs(sum(terms) - target) / (sum(map(abs, terms)) + abs(target)))
    out.append(_check("transform identity", worst_tr, 1e-13))

    # W' = sum c_i eta_i e^{eta_i x} >= 0 where every c_i eta_i >= 0, and W(0) = sum c_i
    # = 0 is checked above: the reading is the share of sum |c_i eta_i| of the wrong sign.
    wrong = -sum(t for t in slopes if t < 0.0) / sum(map(abs, slopes))
    out.append(_check("W nonnegative and nondecreasing", wrong, 0.0))

    a_star = optimal_threshold(b, m, c)
    k, alpha, half = c.strike, m.alpha, m.sigma2 / 2.0
    g, g_bar = g_payoff(m, c, a_star), g_integral(m, c, a_star)

    # Smooth fit: at x = log(s/a*), V = creep G + under G_bar with creep = (s2/2)(W' - W)
    # and under = Z - (s2/2)W' - (r - s2/2)W, so a* V'(a*+) is read from W's unregrouped sum
    # at 0+ (the eta = 1 term too), against a* G'(a*) for G = (K - s)(h/s)^alpha.  (s2/2)W''
    # is scaled term by term: formed plainly it overflows to NaN at s2 = 1e-300.  Value
    # matching, V(a*) = G(a*), needs W(0) = 0 and (s2/2)W'(0) = 1 only, read above.
    w2 = sum(half * t * e for e, t in zip(b.eta, slopes))
    terms = [w2 * g, -half * slope * g, m.r * sum(b.c) * g_bar, -w2 * g_bar, -(m.r - half) * slope * g_bar,
             (c.barrier / a_star) ** alpha * (a_star + alpha * (k - a_star))]
    out.append(_check("smooth fit at the threshold", abs(sum(terms)) / sum(map(abs, terms)), 1e-10))

    if m.lam > 0.0:
        # First-order condition: dV/da = 0 from every spot, so each e^{eta x} coefficient
        # is stationary in a and each negative root fixes a* by itself.  optimal_threshold
        # reads the lower root; the upper one, e, must give the same a* through the same
        # formula, whose sums all add like signs.  Without jumps the one negative root is
        # optimal_threshold's own, and smooth fit is the a* check.
        e, r, rho = b.eta[2], m.r, m.rho
        a_e = k * (e + alpha) / (e + alpha - 1.0)
        a_e *= (rho - alpha + 1.0) / (rho - alpha) * (
            (half * alpha * e + r * rho) / (r * rho - half * (1.0 - alpha) * e)
        )
        out.append(_check("first-order condition at the threshold", abs(a_e - a_star) / a_star, 1e-13))

    worst_dom = 0.0
    spots = _geomspace(0.1 * a_star, 5.0 * c.barrier, 500)
    for s, v in zip(spots, policy_values(b, m, c, zip(spots, [a_star] * len(spots)))):
        worst_dom = max(worst_dom, g_payoff(m, c, s) - v)
    out.append(_check("value dominates the payoff", worst_dom, 1e-9))

    # h_function(s) = (h/s)^alpha (delta*s - r*K) with (h/s)^alpha > 0, so on
    # (0, a*) it has the sign of a line that starts at -r*K: negative
    # throughout iff delta*a* - r*K < 0.  That end value is reported, not
    # h_function(a*), whose factor (h/a*)^alpha says nothing of the sign.
    drift_end = h_function(m, c, a_star) * (a_star / c.barrier) ** m.alpha
    name = "drift of discounted payoff negative below the threshold"
    out.append(CheckResult(name, drift_end < 0.0, drift_end, 0.0))

    # Below K, G = h^alpha (K s^-alpha - s^(1-alpha)) is a sum of two powers
    # and jumps only move s down, so E[(s e^X_t)^p] = s^p e^{t psi(p)} and
    # psi(-alpha) = 0 give (L - r)G(s) = (h/s)^alpha (s (r - psi(1 - alpha)) - rK)
    # exactly: h_function's hand-derived delta checked against laplace_exponent,
    # the gap relative to the line's two terms.
    delta = m.r - laplace_exponent(m, 1.0 - m.alpha)
    worst_gen = max(
        abs(h_function(m, c, s) / (c.barrier / s) ** m.alpha - (s * delta - m.r * k))
        / (abs(s * delta) + m.r * k)
        for s in _linspace(0.1 * k, 0.9 * a_star, 100)
    )
    out.append(_check("generator identity", worst_gen, 1e-13))

    if m.lam == 0.0:
        eta2, worst_rel = b.eta[1], 0.0
        spots = _geomspace(0.2 * a_star, 3.0 * c.barrier, 100)
        for s, v in zip(spots, policy_values(b, m, c, zip(spots, [a_star] * len(spots)))):
            worst_rel = max(worst_rel, v - _plain_put(k, eta2, s))
        note = f"plain at spot: {_plain_put(k, eta2, c.spot):.4f}"
        out.append(_check("cancellable never exceeds the plain put", worst_rel, 1e-12, note))

    return out


def mc_suite(m: ModelParams, c: Contract, cfg: McConfig) -> list[CheckResult]:
    """Simulator cross-checks against the closed forms."""
    from dataclasses import replace

    import numpy as np

    from .mc import McEstimate, McMode, simulate_stop_and_terminal

    rep = price(basis_for(m), m, c)
    a_star, closed = rep.a_star, rep.value
    out: list[CheckResult] = []

    # One direct-mode run, whose kernel pass also samples the martingale
    # check's terminal paths: its stops are survival mode's, so the survival
    # figures come from the same record with the closed-form weight.
    direct_cfg = replace(cfg, mode=McMode.DIRECT_LAST_PASSAGE)
    direct, term = simulate_stop_and_terminal(m, c, a_star, 1.0, direct_cfg)
    paths = replace(direct, returned=None)
    survival, direct_pay = paths.payoffs(m, c), direct.payoffs(m, c)
    est = McEstimate.from_sample(survival)
    floor = 0.01 if m.lam == 0.0 else 0.015
    out.append(
        _check(
            "policy value vs closed form",
            abs(est.mean - closed),
            max(3.0 * est.stderr, floor * abs(closed)),
            f"mc {est.mean:.4f} vs closed {closed:.4f}",
        )
    )

    cf, uf = rep.creeping_factor, rep.undershoot_factor
    for label, fac, ref in zip(("creeping", "undershoot"), paths.passage_factors(m), (cf, uf)):
        out.append(
            _check(
                f"{label} factor vs closed form",
                abs(fac.mean - ref),
                3.0 * fac.stderr + 0.01 * max(ref, 0.01),
                f"mc {fac.mean:.4f} vs closed {ref:.4f}",
            )
        )

    if m.lam > 0.0:
        # Read from the log position: s_tau underflows to 0 below the float range.
        landed = paths.x_tau[paths.crossing == "jump"]
        if landed.size >= 30:
            u = McEstimate.from_sample(math.log(a_star / c.spot) - landed)
            out.append(
                _check(
                    "undershoot law (mean vs 1/rho)",
                    abs(u.mean - 1.0 / m.rho),
                    3.0 * u.stderr,
                    f"{u.n_paths} jump crossings",
                )
            )
        else:
            out.append(
                CheckResult(
                    "undershoot law (mean vs 1/rho)", True, float(landed.size), 30.0,
                    "too few jump crossings to test",
                )
            )

    out.append(
        _check(
            "discounted asset is a martingale",
            abs(term.mean - c.spot),
            3.0 * term.stderr,
            f"mc {term.mean:.4f} vs spot {c.spot:.4f}",
        )
    )

    # The two weights of each path, paired: their difference cancels the
    # payoff's noise and leaves the return's.
    gap = McEstimate.from_sample(direct_pay - survival)
    out.append(
        _check(
            "survival and direct modes agree",
            abs(gap.mean),
            3.0 * gap.stderr,
            f"survival {est.mean:.4f} vs direct {float(np.mean(direct_pay)):.4f}",
        )
    )

    return out
