"""Closed-form pricing of the cancellable perpetual put.

The contract pays (K - S)^+ when exercised, but only if the asset has not
yet made its final visit to the barrier ``h`` above the strike; exercising
after that last visit pays nothing.  Conditioning on the last-visit event
turns the claim into an ordinary perpetual optimal stopping problem with
the tilted payoff

    G(s) = (K - s)^+ * min((h/s)^alpha, 1),

where ``alpha`` is the model's cancellation exponent.  The optimal policy
is a threshold rule: stop the first time the asset is at or below ``a*``.
Everything below evaluates that policy in closed form -- the discounted
hitting factors split into a creeping part (the diffusion touches the
threshold exactly) and a jump part (the asset leaps over it, landing at an
exponentially distributed undershoot).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (
    BranchError,
    DomainError,
    InconsistentBasis,
    InvalidParams,
    NumericsWarning,
    QuadratureFailure,
    ThresholdOutOfRange,
)
from .model import ModelParams
from .scale import ScaleBasis, build_scale_basis_bs, w_r, w_r_prime, z_r

#: Allowed numerical excursion outside [0, 1] before a factor clamp warns.
_CLAMP_TOL = 1e-10

#: Relative steps of the central-difference ladders used by generator_apply.
_D1_STEPS = (1e-4, 5e-5, 2.5e-5)
_D2_STEPS = (1e-3, 5e-4)

#: The jump integrand is truncated where its exponential weight is below this.
_JUMP_WEIGHT_CUTOFF = 1e-14


class Region(enum.Enum):
    CONTINUATION = "Continuation"
    EXERCISE = "Exercise"


@dataclass(frozen=True)
class Contract:
    """Perpetual put terms: strike, cancellation barrier, current spot."""

    strike: float
    barrier: float
    spot: float

    def __post_init__(self) -> None:
        if not (self.strike > 0.0):
            raise InvalidParams(f"strike must be positive, got {self.strike}")
        if not (self.spot > 0.0):
            raise InvalidParams(f"spot must be positive, got {self.spot}")
        if not (self.barrier > self.strike):
            raise InvalidParams(
                f"barrier must exceed the strike, got barrier={self.barrier} "
                f"<= strike={self.strike}"
            )


@dataclass(frozen=True)
class PriceReport:
    a_star: float
    value: float
    creeping_factor: float
    undershoot_factor: float
    g_at_a: float
    g_integral: float
    region: Region


def g_payoff(m: ModelParams, c: Contract, s: float) -> float:
    """Cancellation-tilted put payoff (K - s)^+ * min((h/s)^alpha, 1)."""
    if s <= 0.0:
        raise DomainError(f"payoff needs a positive price, got s={s}")
    intrinsic = c.strike - s
    if intrinsic <= 0.0:
        return 0.0
    return intrinsic * min((c.barrier / s) ** m.alpha, 1.0)


def g_integral(m: ModelParams, c: Contract, a: float) -> float:
    """Expected payoff under an exponential(rho) undershoot below ``a``.

    Equals the integral of rho*e^{-rho*y} G(a e^{-y}) over y > 0.  Because
    a < K < h, the landing point stays below both kinks and the integral
    collapses to the closed form used here.  Zero without jumps (the
    undershoot event never happens).
    """
    if not (0.0 < a < c.strike):
        raise DomainError(f"threshold must lie in (0, strike), got a={a}")
    if m.lam == 0.0:
        return 0.0
    rho, alpha = m.rho, m.alpha
    return (c.barrier / a) ** alpha * rho * (
        c.strike / (rho - alpha) - a / (rho - alpha + 1.0)
    )


def _clamped_unit(raw: float, label: str) -> float:
    if raw < -_CLAMP_TOL or raw > 1.0 + _CLAMP_TOL:
        warnings.warn(
            f"{label} left [0, 1] by more than {_CLAMP_TOL} (raw {raw}); clamped",
            NumericsWarning,
            stacklevel=3,
        )
    return min(1.0, max(0.0, raw))


def creeping_factor(b: ScaleBasis, m: ModelParams, s: float, a: float) -> float:
    """Discounted probability weight of touching ``a`` continuously.

    Standard form (s2/2)(W'(x) - phi_r W(x)) at x = log(s/a); computed as
    the equivalent sum (s2/2) * sum c_i (eta_i - phi_r) e^{eta_i x}, whose
    leading term vanishes identically (eta_1 = phi_r = 1), so the result
    decays instead of being a difference of two growing exponentials.
    """
    if not (s >= a > 0.0):
        raise DomainError(f"need s >= a > 0, got s={s}, a={a}")
    x = math.log(s / a)
    acc = 0.0
    for ei, ci in zip(b.eta, b.c):
        if ci == 0.0 or ei == b.phi_r:
            continue
        acc += ci * (ei - b.phi_r) * math.exp(ei * x)
    return _clamped_unit(m.sigma2 / 2.0 * acc, "creeping factor")


def undershoot_factor(b: ScaleBasis, m: ModelParams, s: float, a: float) -> float:
    """Discounted probability weight of jumping strictly below ``a``.

    Standard form Z(x) - (s2/2)W'(x) - W(x)(r/phi_r - phi_r*s2/2) at
    x = log(s/a), regrouped per exponent so the eta_1 = phi_r term cancels
    exactly and the constant collapses through sum c_i/eta_i = 1/r.
    Without jumps the event is impossible and the factor is exactly zero.
    """
    if not (s >= a > 0.0):
        raise DomainError(f"need s >= a > 0, got s={s}, a={a}")
    if m.lam == 0.0:
        return 0.0
    x = math.log(s / a)
    s2, r, phi = m.sigma2, m.r, b.phi_r
    const = 1.0
    acc = 0.0
    for ei, ci in zip(b.eta, b.c):
        if ci == 0.0:
            continue
        const -= r * ci / ei
        acc += ci * math.exp(ei * x) * (
            r / ei - s2 * ei / 2.0 - r / phi + phi * s2 / 2.0
        )
    return _clamped_unit(const + acc, "undershoot factor")


def value_at_threshold(
    b: ScaleBasis, m: ModelParams, c: Contract, s: float, a: float
) -> float:
    """Value at spot ``s`` of stopping at the first passage below ``a``.

    Splits over how the threshold is reached: creep lands exactly at ``a``
    and collects G(a); a jump lands below with the memoryless undershoot
    law and collects the averaged payoff.  At or below the threshold the
    policy stops immediately, so the value is the payoff itself.
    """
    if not (0.0 < a < c.strike):
        raise DomainError(f"threshold must lie in (0, strike), got a={a}")
    if s < a:
        return g_payoff(m, c, s)
    return creeping_factor(b, m, s, a) * g_payoff(m, c, a) + undershoot_factor(
        b, m, s, a
    ) * g_integral(m, c, a)


def optimal_threshold(b: ScaleBasis, m: ModelParams, c: Contract) -> float:
    """Exercise threshold maximizing the stop-below-``a`` value.

    From the first-order condition in closed form.  Without jumps it
    reduces to the classic two-exponent ratio; with jumps the negative
    exponents enter through the two sums below.  The side conditions on
    the signs of the coefficients are the model's own consistency guards;
    a basis that breaks them raises :class:`InconsistentBasis`.
    """
    k = c.strike
    alpha = m.alpha
    if m.lam == 0.0:
        eta2 = b.eta[1]
        a_star = k * (eta2 + alpha) / (eta2 + alpha - 1.0)
    else:
        s2, r, rho = m.sigma2, m.r, m.rho
        if not (b.c[1] < 0.0 and b.c[2] < 0.0):
            raise InconsistentBasis(
                f"negative-exponent coefficients must be negative, got {b.c[1:]}"
            )
        sum_wpp = 0.0  # weights of W'' at 0+, i.e. sum c_i eta_i (eta_i - 1)
        sum_mix = 0.0  # mixed discount sum, positive in the valid regime
        for ei, ci in zip(b.eta[1:], b.c[1:]):
            sum_wpp += ci * ei * (ei - 1.0)
            sum_mix += ci * ei * (r * (1.0 / ei - 1.0) - (s2 / 2.0) * (ei - 1.0))
        if not (sum_mix > 0.0):
            raise InconsistentBasis(f"mixed discount sum must be positive, got {sum_mix}")
        num = (s2 / 2.0) * sum_wpp + alpha + rho / (rho - alpha) * sum_mix
        den = (
            (s2 / 2.0) * sum_wpp
            - (1.0 - alpha)
            + rho / (rho - alpha + 1.0) * sum_mix
        )
        a_star = k * num / den
    if not (0.0 < a_star < k):
        raise ThresholdOutOfRange(
            f"closed-form threshold {a_star} escaped (0, {k}); parameters "
            "are outside the regime where the threshold policy is optimal"
        )
    return a_star


def price(b: ScaleBasis, m: ModelParams, c: Contract) -> PriceReport:
    """Full report at the optimal threshold, evaluated at the contract spot."""
    a_star = optimal_threshold(b, m, c)
    g_at_a = g_payoff(m, c, a_star)
    g_int = g_integral(m, c, a_star)
    if c.spot <= a_star:
        return PriceReport(
            a_star=a_star,
            value=g_payoff(m, c, c.spot),
            creeping_factor=1.0,
            undershoot_factor=0.0,
            g_at_a=g_at_a,
            g_integral=g_int,
            region=Region.EXERCISE,
        )
    creep = creeping_factor(b, m, c.spot, a_star)
    under = undershoot_factor(b, m, c.spot, a_star)
    return PriceReport(
        a_star=a_star,
        value=creep * g_at_a + under * g_int,
        creeping_factor=creep,
        undershoot_factor=under,
        g_at_a=g_at_a,
        g_integral=g_int,
        region=Region.CONTINUATION,
    )


def h_function(m: ModelParams, c: Contract, s: float) -> float:
    """Drift of the discounted payoff below the strike.

    For 0 < s < K the generator applied to G minus r*G collapses to
    (h/s)^alpha (delta*s - r*K); its strict negativity on (0, a*) is what
    certifies the threshold policy.  Outside (0, K) the reduction is not
    valid and the call is refused.
    """
    if not (0.0 < s < c.strike):
        raise DomainError(f"closed form only valid on (0, strike), got s={s}")
    alpha = m.alpha
    delta = alpha * m.sigma2
    if m.lam > 0.0:
        lam, rho = m.lam, m.rho
        delta += -lam / (1.0 + rho) + lam * rho / ((rho - alpha) * (1.0 + rho - alpha))
    return (c.barrier / s) ** alpha * (delta * s - m.r * c.strike)


def _d1_ladder(f: Callable[[float], float], s: float) -> float:
    """First derivative: central differences + two Richardson levels."""
    d = [(f(s + h) - f(s - h)) / (2.0 * h) for h in (q * s for q in _D1_STEPS)]
    t1 = (4.0 * d[1] - d[0]) / 3.0
    t2 = (4.0 * d[2] - d[1]) / 3.0
    return (16.0 * t2 - t1) / 15.0


def _d2_ladder(f: Callable[[float], float], s: float) -> float:
    """Second derivative: wider steps (the h^-2 roundoff bites early), one level."""
    f0 = f(s)
    g = [
        (f(s + h) - 2.0 * f0 + f(s - h)) / (h * h) for h in (q * s for q in _D2_STEPS)
    ]
    return (4.0 * g[1] - g[0]) / 3.0


def generator_apply(m: ModelParams, f: Callable[[float], float], s: float) -> float:
    """Infinitesimal generator of the price process applied to ``f`` at ``s``.

    Drift and diffusion terms use Richardson-extrapolated central
    differences (relative steps small enough for smooth payoffs but wide
    enough that second-difference roundoff stays far below the quadrature
    tolerance).  The jump term integrates the exponential undershoot kernel
    by adaptive quadrature, truncated where the kernel weight underflows
    the tolerance.
    """
    if s <= 0.0:
        raise DomainError(f"generator needs a positive price, got s={s}")
    mu_tilde = m.r + (m.lam / (1.0 + m.rho) if m.lam > 0.0 else 0.0)
    out = mu_tilde * s * _d1_ladder(f, s) + m.sigma2 * s * s * _d2_ladder(f, s) / 2.0
    if m.lam > 0.0:
        from scipy import integrate  # deferred: importing scipy dominates start-up

        rho = m.rho
        f_s = f(s)
        y_max = -math.log(_JUMP_WEIGHT_CUTOFF) / rho
        val, _abserr, info, *tail = integrate.quad(
            lambda y: (f(s * math.exp(-y)) - f_s) * math.exp(-rho * y),
            0.0,
            y_max,
            limit=200,
            epsabs=1e-12,
            epsrel=1e-12,
            full_output=1,
        )
        if tail:  # non-empty means quadpack attached an error message
            raise QuadratureFailure(
                f"jump-kernel quadrature did not converge at s={s}: {tail[0]}"
            )
        out += m.lam * rho * val
    return out


class BsReference(NamedTuple):
    a_star_bs: float
    value_bs: float
    plain_put: float


def bs_reference(m: ModelParams, c: Contract) -> BsReference:
    """Jump-free sanity anchors: cancellable threshold/value and plain put.

    The cancellable quantities re-derive the two-exponent closed form
    directly; the plain perpetual put (no cancellation) is the textbook
    power solution.  Only meaningful without jumps.
    """
    if m.lam > 0.0:
        raise BranchError("reference formulas require zero jump intensity")
    basis = build_scale_basis_bs(m)
    eta2 = basis.eta[1]
    alpha = m.alpha
    k, h, s0 = c.strike, c.barrier, c.spot
    a_star = k * (eta2 + alpha) / (eta2 + alpha - 1.0)
    value = (k - a_star) * (s0 / a_star) ** eta2 * (h / a_star) ** alpha
    neg_power = -2.0 * m.r / m.sigma2
    coef = -(1.0 / neg_power) * (k / (1.0 - 1.0 / neg_power)) ** (1.0 - neg_power)
    plain = coef * s0**neg_power
    return BsReference(a_star_bs=a_star, value_bs=value, plain_put=plain)
