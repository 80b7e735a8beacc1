"""Self-check suites: closed-form identities and simulator cross-checks.

Each check returns a record rather than asserting, so the CLI can print a
table and exit nonzero only at the end.  Tolerances are the ones the
closed forms are actually built to meet; the Monte Carlo comparisons use
3-sigma bands, with small relative floors where the band is a sanity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureFailure
from .model import ModelParams, laplace_exponent, _psi_rational
from .pricer import (
    Contract,
    bs_reference,
    g_payoff,
    generator_apply,
    h_function,
    optimal_threshold,
    price,
    value_at_threshold,
)
from .scale import ScaleBasis, basis_for, z_r
from .mc import (
    McConfig,
    McEstimate,
    McMode,
    estimate_discounted_terminal,
    estimate_value,
    simulate_paths,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    bound: float
    note: str = ""


def _check(name: str, observed: float, bound: float, note: str = "") -> CheckResult:
    return CheckResult(name, bool(observed <= bound), float(observed), float(bound), note)


def _w_grid(b: ScaleBasis, xs: np.ndarray) -> np.ndarray:
    """W on an array of x >= 0, summed as ``w_r`` sums it.

    ``w_r`` saturates its exponents for huge x; on the check grids (x <= 5)
    none is needed, because every eta_i <= 1 keeps (eta_i - 1) x <= 0.
    """
    return np.exp(xs) * sum(ci * np.exp((ei - 1.0) * xs) for ei, ci in zip(b.eta, b.c))


def _right_derivative(f, s: float) -> float:
    """One-sided forward-difference ladder with two Richardson levels."""
    steps = (1e-4 * s, 5e-5 * s, 2.5e-5 * s)
    f0 = f(s)
    d = [(f(s + h) - f0) / h for h in steps]
    r1 = 2.0 * d[1] - d[0]
    r2 = 2.0 * d[2] - d[1]
    return (4.0 * r2 - r1) / 3.0


def analytic_suite(m: ModelParams, c: Contract) -> list[CheckResult]:
    """Closed-form identity checks for one parameter set."""
    b = basis_for(m)
    out: list[CheckResult] = []

    out.append(
        _check("martingale identity", abs(laplace_exponent(m, 1.0) - m.r), 1e-12 * m.r)
    )
    out.append(
        _check("cancellation exponent residual", abs(laplace_exponent(m, -m.alpha)), 1e-12)
    )

    pairs = list(zip(b.eta, b.c))
    worst_root = max(abs(_psi_rational(m, e) - m.r) for e, _ in pairs)
    out.append(_check("root residuals", worst_root, 1e-10))

    coef_scale = max(abs(cc) for _, cc in pairs)
    out.append(_check("coefficients sum to zero", abs(sum(cc for _, cc in pairs)), 1e-12 * coef_scale))
    slope = sum(cc * e for e, cc in pairs)
    out.append(
        _check(
            "derivative normalization",
            abs(slope - 2.0 / m.sigma2) / (2.0 / m.sigma2),
            1e-10,
        )
    )
    recip = sum(cc / e for e, cc in pairs)
    out.append(
        _check("reciprocal-root identity", abs(recip - 1.0 / m.r) * m.r, 1e-10)
    )

    if m.lam > 0.0:
        in_band = sum(1 for e, _ in pairs if -m.rho < e < 0.0)
        below = sum(1 for e, _ in pairs if e < -m.rho)
        out.append(
            CheckResult(
                "root layout around the pole",
                in_band == 1 and below == 1,
                float(in_band),
                1.0,
                "one root each side of the jump pole",
            )
        )

    # Transform identity: the Laplace transform of W, sum c_i/(beta - eta_i)
    # term by term, must reproduce the resolvent 1/(psi(beta) - r).
    for beta in (1.5, 2.0, 3.0):
        target = 1.0 / (laplace_exponent(m, beta) - m.r)
        val = sum(cc / (beta - e) for e, cc in pairs)
        out.append(_check(f"transform identity (beta={beta:g})", abs(val - target), 1e-8))

    worst = 0.0
    xs = np.linspace(0.01, 5.0, 25)
    for x, ref in zip(xs.tolist(), (m.r * _w_grid(b, xs)).tolist()):
        h = 1e-6 * max(1.0, x)
        dz = (z_r(b, m, x + h) - z_r(b, m, x - h)) / (2.0 * h)
        worst = max(worst, abs(dz - ref) / abs(ref))
    out.append(_check("Z' = r W", worst, 1e-6))

    xs = np.arange(0.0, 5.0 + 1e-9, 1e-3)
    ws = _w_grid(b, xs)
    # worst excursion below zero or downward step; pure roundoff stays ~1e-16
    violation = max(float(-ws.min()), float(-np.diff(ws).min()), 0.0)
    out.append(_check("W nonnegative and nondecreasing", violation, 1e-12))

    a_star = optimal_threshold(b, m, c)
    k = c.strike
    gap = abs(value_at_threshold(b, m, c, a_star, a_star) - g_payoff(m, c, a_star))
    out.append(_check("value matching at the threshold", gap, 1e-10 * k))

    v_right = _right_derivative(lambda s: value_at_threshold(b, m, c, s, a_star), a_star)
    # G(s) = (K - s)(h/s)^alpha below the strike, differentiated exactly.
    g_prime = (c.barrier / a_star) ** m.alpha * (-1.0 - m.alpha * (k - a_star) / a_star)
    out.append(
        _check(
            "smooth fit at the threshold",
            abs(v_right - g_prime),
            1e-6 * abs(g_prime),
        )
    )

    worst_foc = 0.0
    for s in (1.1 * a_star, c.spot, 2.0 * k):
        h1, h2 = 1e-4 * a_star, 5e-5 * a_star
        d1 = (
            value_at_threshold(b, m, c, s, a_star + h1)
            - value_at_threshold(b, m, c, s, a_star - h1)
        ) / (2.0 * h1)
        d2 = (
            value_at_threshold(b, m, c, s, a_star + h2)
            - value_at_threshold(b, m, c, s, a_star - h2)
        ) / (2.0 * h2)
        worst_foc = max(worst_foc, abs((4.0 * d2 - d1) / 3.0))
    out.append(_check("first-order condition at the threshold", worst_foc, 1e-6))

    worst_dom = 0.0
    for s in np.geomspace(0.1 * a_star, 5.0 * c.barrier, 500).tolist():
        v = value_at_threshold(b, m, c, s, a_star)
        worst_dom = max(worst_dom, g_payoff(m, c, s) - v)
    out.append(_check("value dominates the payoff", worst_dom, 1e-9))

    # h_function(s) = (h/s)^alpha (delta*s - r*K) with (h/s)^alpha > 0, so on
    # (0, a*) it has the sign of a line that starts at -r*K: negative
    # throughout iff delta*a* - r*K < 0.  That end value is reported, not
    # h_function(a*), whose factor (h/a*)^alpha says nothing of the sign.
    drift_end = h_function(m, c, a_star) * (a_star / c.barrier) ** m.alpha
    out.append(
        CheckResult(
            "drift of discounted payoff negative below the threshold",
            drift_end < 0.0,
            drift_end,
            0.0,
        )
    )

    worst_gen = 0.0
    try:
        for s in np.linspace(0.1 * k, 0.9 * a_star, 100):
            s = float(s)
            lhs = generator_apply(m, lambda u: g_payoff(m, c, u), s) - m.r * g_payoff(m, c, s)
            ref = h_function(m, c, s)
            worst_gen = max(worst_gen, abs(lhs - ref) / abs(ref))
        out.append(_check("generator cross-check", worst_gen, 1e-6))
    except QuadratureFailure as exc:
        # The other checks do not need the generator: report this one as failed.
        out.append(CheckResult("generator cross-check", False, math.nan, 1e-6, str(exc)))

    if m.lam == 0.0:
        ref = bs_reference(m, c)
        eta2 = b.eta[1]
        xs = np.linspace(0.0, 5.0, 101)
        known = (np.exp(xs) - np.exp(eta2 * xs)) / (m.sigma2 / 2.0 * (1.0 - eta2))
        worst_w = float(np.max(np.abs(_w_grid(b, xs) - known) / np.maximum(1.0, known)))
        out.append(_check("two-root W matches the Brownian form", worst_w, 1e-12))

        worst_rel = 0.0
        for s in np.geomspace(0.2 * a_star, 3.0 * c.barrier, 100).tolist():
            plain = bs_reference(m, replace(c, spot=s)).plain_put
            v = value_at_threshold(b, m, c, s, a_star)
            worst_rel = max(worst_rel, v - plain)
        out.append(
            _check("cancellable never exceeds the plain put", worst_rel, 1e-12, f"plain at spot: {ref.plain_put:.4f}")
        )

    return out


def mc_suite(m: ModelParams, c: Contract, cfg: McConfig) -> list[CheckResult]:
    """Simulator cross-checks against the closed forms."""
    rep = price(basis_for(m), m, c)
    a_star, closed = rep.a_star, rep.value
    out: list[CheckResult] = []

    paths = simulate_paths(m, c, a_star, replace(cfg, mode=McMode.SURVIVAL_WEIGHTED))
    est = paths.value(m, c)
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
        landed = paths.s_tau[paths.crossing == "jump"]
        if landed.size >= 30:
            u = McEstimate.from_sample(np.log(a_star / landed))
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

    term = estimate_discounted_terminal(m, c, 1.0, cfg)
    out.append(
        _check(
            "discounted asset is a martingale",
            abs(term.mean - c.spot),
            3.0 * term.stderr,
            f"mc {term.mean:.4f} vs spot {c.spot:.4f}",
        )
    )

    # Direct mode needs its own, smaller run: its paths go on past the stop.
    direct_cfg = replace(
        cfg,
        n_paths=max(100, cfg.n_paths // 10),
        mode=McMode.DIRECT_LAST_PASSAGE,
    )
    est_d = estimate_value(m, c, a_star, direct_cfg)
    combined = math.hypot(est.stderr, est_d.stderr)
    out.append(
        _check(
            "survival and direct modes agree",
            abs(est.mean - est_d.mean),
            3.0 * combined + est_d.truncation_bound,
            f"survival {est.mean:.4f} vs direct {est_d.mean:.4f}",
        )
    )

    return out
