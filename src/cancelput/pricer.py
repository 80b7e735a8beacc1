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
import functools
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import (
    BranchError,
    ConfigError,
    DomainError,
    InconsistentBasis,
    InvalidParams,
    NumericsWarning,
    QuadratureFailure,
    ThresholdOutOfRange,
)
from .model import ModelParams
from .scale import ScaleBasis, basis_for, build_scale_basis_bs

if TYPE_CHECKING:
    from .mc import McConfig

#: Allowed numerical excursion outside [0, 1] before a factor clamp warns.
_CLAMP_TOL = 1e-10

#: Relative steps of the central-difference ladders used by generator_apply.
_D1_STEPS = (1e-4, 5e-5, 2.5e-5)
_D2_STEPS = (1e-3, 5e-4)

#: Node counts of the two Gauss-Laguerre rules for the jump term, and the
#: largest relative gap between them.  The gap is the coarse rule's error;
#: the fine rule's is about its square, so a 1e-7 gap leaves it near 1e-14.
_GL_NODES = (32, 64)
_GL_TOL = 1e-7


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
        if not (0.0 < self.strike < math.inf):
            raise InvalidParams(f"strike must be positive and finite, got {self.strike}")
        if not (0.0 < self.spot < math.inf):
            raise InvalidParams(f"spot must be positive and finite, got {self.spot}")
        if not (self.strike < self.barrier < math.inf):
            raise InvalidParams(
                f"barrier must exceed the strike and be finite, got barrier={self.barrier}, "
                f"strike={self.strike}"
            )


@dataclass(frozen=True)
class PriceReport:
    a_star: float
    value: float
    creeping_factor: float
    undershoot_factor: float
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


def passage_factors(
    b: ScaleBasis, m: ModelParams, s: float, a: float
) -> tuple[float, float]:
    """Discounted weights of reaching ``a`` from ``s``: by creep, touching
    ``a`` continuously, and by a jump landing strictly below it.

    At x = log(s/a) these are (s2/2)(W'(x) - W(x)) and
    Z(x) - (s2/2)W'(x) - W(x)(r - s2/2), regrouped per exponent.  Both leave
    out the eta_1 = 1 term: it is exactly zero, and summed, its roundoff
    residue would grow like e^x.  The constant collapses through
    sum c_i/eta_i = 1/r.  Without jumps the second event is impossible: its
    factor is exactly 0 and only the creep sum is formed.
    """
    if not (s >= a > 0.0):
        raise DomainError(f"need s >= a > 0, got s={s}, a={a}")
    x = math.log(s / a)
    s2 = m.sigma2
    creep = 0.0
    if m.lam == 0.0:  # its own loop: grids and curves then pay no per-root jump test
        for ei, ci in zip(b.eta[1:], b.c[1:]):
            creep += ci * (ei - 1.0) * math.exp(ei * x)
        return _clamped_unit(s2 / 2.0 * creep, "creeping factor"), 0.0
    r = m.r
    const = 1.0 - r * b.c[0] / b.eta[0]
    acc = 0.0
    for ei, ci in zip(b.eta[1:], b.c[1:]):
        e = math.exp(ei * x)
        creep += ci * (ei - 1.0) * e
        const -= r * ci / ei
        acc += ci * e * (r / ei - s2 * ei / 2.0 - r + s2 / 2.0)
    return (
        _clamped_unit(s2 / 2.0 * creep, "creeping factor"),
        _clamped_unit(const + acc, "undershoot factor"),
    )


def _value(m: ModelParams, c: Contract, a: float, creep: float, under: float) -> float:
    """Value of stopping below ``a`` from its passage factors: creep lands
    exactly at ``a`` and collects G(a); a jump lands below with the
    memoryless undershoot law and collects the averaged payoff."""
    return creep * g_payoff(m, c, a) + under * g_integral(m, c, a)


def value_at_threshold(
    b: ScaleBasis, m: ModelParams, c: Contract, s: float, a: float
) -> float:
    """Value at spot ``s`` of stopping at the first passage below ``a``.

    Strictly below the threshold the policy stops at once, so the value is
    the payoff itself; from ``a`` up it is formed from the passage factors.
    """
    if not (0.0 < a < c.strike):
        raise DomainError(f"threshold must lie in (0, strike), got a={a}")
    if s < a:
        return g_payoff(m, c, s)
    creep, under = passage_factors(b, m, s, a)
    return _value(m, c, a, creep, under)


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
    if c.spot <= a_star:
        return PriceReport(a_star, g_payoff(m, c, c.spot), 1.0, 0.0, Region.EXERCISE)
    creep, under = passage_factors(b, m, c.spot, a_star)
    value = _value(m, c, a_star, creep, under)
    return PriceReport(a_star, value, creep, under, Region.CONTINUATION)


def grid_search_threshold(
    m: ModelParams,
    c: Contract,
    a_grid,
    cfg: McConfig | None = None,
) -> tuple[float, list[float]]:
    """Argmax of the policy value over candidate thresholds (the first, on ties).

    Closed-form evaluation without ``cfg``; with it every grid point is
    estimated by simulation from the same seed, so the comparison rides on
    common random numbers and the argmax is not noise-dominated.
    """
    grid = [float(a) for a in a_grid]
    if not grid:
        raise ConfigError("threshold grid is empty")
    if any(not (0.0 < a < c.strike) for a in grid):
        raise ConfigError("threshold grid must lie inside (0, strike)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("threshold grid must be strictly increasing")

    if cfg is not None:
        if grid[-1] >= c.spot:
            raise ConfigError(
                f"a simulated threshold grid must lie below the spot {c.spot}, got {grid[-1]}"
            )
        from .mc import estimate_value

        values = [estimate_value(m, c, a, cfg).mean for a in grid]
    else:
        basis = basis_for(m)
        values = [value_at_threshold(basis, m, c, c.spot, a) for a in grid]
    return grid[values.index(max(values))], values


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


@functools.cache
def _laguerre(n: int):
    """Nodes and weights of the n-node Gauss-Laguerre rule.  numpy loads here,
    on first use, so the closed forms above never import it."""
    import numpy as np

    return np.polynomial.laguerre.laggauss(n)


@functools.lru_cache(maxsize=256)
def _jump_kernel(n: int, rho: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Shrink factors e^{-y} and weights of the n-node rule for Y ~ Exp(rho),
    on nodes u = beta*y.

    beta = sqrt(rho (rho + 2)) is the geometric mean of the kernel's decay
    rate and that of a term quadratic in the landing price, so for small rho
    the payoff's variation is not crowded against u = 0.
    """
    import numpy as np

    beta = math.sqrt(rho * (rho + 2.0))
    u, w = _laguerre(n)
    shrink = np.exp(-u / beta)
    weight = w * (rho / beta) * np.exp((1.0 - rho / beta) * u)
    return tuple(shrink.tolist()), tuple(weight.tolist())


def _jump_mean(m: ModelParams, f: Callable[[float], float], s: float, n: int):
    """E[f(s e^{-Y})] - f(s) for Y ~ Exp(rho) on the n-node Laguerre rule;
    returns the value and the sum of its absolute terms.

    Nodes whose landing point underflows to zero (y beyond about 745 + ln s)
    are left out.
    """
    shrink, weight = _jump_kernel(n, m.rho)
    f_s = f(s)
    landing = [s * q for q in shrink]
    terms = [wt * (f(x) - f_s) for x, wt in zip(landing, weight) if x > 0.0]
    return sum(terms), sum(map(abs, terms))


def generator_apply(m: ModelParams, f: Callable[[float], float], s: float) -> float:
    """Infinitesimal generator of the price process applied to ``f`` at ``s``.

    Drift and diffusion terms use Richardson-extrapolated central
    differences (relative steps small enough for smooth payoffs but wide
    enough that second-difference roundoff stays far below the quadrature
    tolerance).  The jump term integrates against the exponential
    undershoot kernel on Gauss-Laguerre nodes; a 32-node and a 64-node rule
    must agree to a relative 1e-7, or :class:`QuadratureFailure` is raised.
    """
    if s <= 0.0:
        raise DomainError(f"generator needs a positive price, got s={s}")
    mu_tilde = m.r + (m.lam / (1.0 + m.rho) if m.lam > 0.0 else 0.0)
    out = mu_tilde * s * _d1_ladder(f, s) + m.sigma2 * s * s * _d2_ladder(f, s) / 2.0
    if m.lam > 0.0:
        (coarse, _), (fine, size) = (_jump_mean(m, f, s, n) for n in _GL_NODES)
        if abs(fine - coarse) > _GL_TOL * size:
            raise QuadratureFailure(
                f"jump-kernel rules with {_GL_NODES} nodes disagree at s={s}: "
                f"{coarse} vs {fine}"
            )
        out += m.lam * fine
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
