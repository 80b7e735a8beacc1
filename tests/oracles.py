"""Numerical references that the tests compare the closed forms against.

No command runs these; they live with the tests so that the package holds
only what its commands use, and they stay an independent check on it.

``generator_apply`` is a numerical reference for the generator of the price
process.  Drift and diffusion come from Richardson-extrapolated central
differences.  The jump term is integrated on Gauss-Laguerre nodes, since the
exponential jump kernel is the Laguerre weight; a 32-node and a 64-node rule
must agree or it raises :class:`QuadratureFailure`.  On the payoff, over the
first 1,000 box draws, they agree for every rho >= 0.1, for 40 of 81 draws
with rho in [0.01, 0.1), and for none below.  The nodes' shrink factors and
weights depend only on the node count and rho, and are cached per pair.

``w_r`` evaluates the scale function W itself, which the package reads
only through its closed forms.

``bs_reference`` re-derives the jump-free anchors: the two-exponent
threshold and value of the cancellable put, and the plain perpetual put.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from cancelput.errors import DomainError
from cancelput.model import ModelParams
from cancelput.pricer import Contract
from cancelput.scale import ScaleBasis

#: Relative steps of the central-difference ladders used by generator_apply.
_D1_STEPS = (1e-4, 5e-5, 2.5e-5)
_D2_STEPS = (1e-3, 5e-4)

#: Node counts of the two Gauss-Laguerre rules for the jump term, and the
#: largest relative gap between them.  The gap is the coarse rule's error;
#: the fine rule's is about its square, so a 1e-7 gap leaves it near 1e-14.
_GL_NODES = (32, 64)
_GL_TOL = 1e-7


class QuadratureFailure(ArithmeticError):
    """The two Gauss-Laguerre rules of the jump term disagree."""


class BranchError(ValueError):
    """The jump-free reference was asked about a model with jumps."""


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
    """Nodes and weights of the n-node Gauss-Laguerre rule."""
    return np.polynomial.laguerre.laggauss(n)


@functools.lru_cache(maxsize=256)
def _jump_kernel(n: int, rho: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Shrink factors e^{-y} and weights of the n-node rule for Y ~ Exp(rho),
    on nodes u = beta*y.

    beta = sqrt(rho (rho + 2)) is the geometric mean of the kernel's decay
    rate and that of a term quadratic in the landing price, so for small rho
    the payoff's variation is not crowded against u = 0.
    """
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
    eta2 = -2.0 * m.r / m.sigma2
    alpha = m.alpha
    k, h, s0 = c.strike, c.barrier, c.spot
    a_star = k * (eta2 + alpha) / (eta2 + alpha - 1.0)
    value = (k - a_star) * (s0 / a_star) ** eta2 * (h / a_star) ** alpha
    coef = -(1.0 / eta2) * (k / (1.0 - 1.0 / eta2)) ** (1.0 - eta2)
    plain = coef * s0**eta2
    return BsReference(a_star_bs=a_star, value_bs=value, plain_put=plain)


def _in_range(name: str, x: float, evaluate) -> float:
    """The range rule of W: ``evaluate()``, or a :class:`DomainError` naming
    ``x`` where that overflows the float range.  W grows like c1 e^x, so that
    is where c1 e^x does, or from x = 709.78 on, where e^x itself does."""
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if not abs(value) < math.inf:
        raise DomainError(f"{name} at x={x} is beyond the float range")
    return value


def w_r(b: ScaleBasis, x: float) -> float:
    """W at ``x``; zero for ``x < 0`` by convention.

    Evaluated as e^x * (c1 + sum_i c_i e^{(eta_i - 1) x}): every eta_i <= 1,
    so e^x is the only factor that grows.
    """
    if x < 0.0:
        return 0.0
    acc = 0.0
    for ei, ci in zip(b.eta, b.c):
        acc += ci * math.exp((ei - 1.0) * x)
    return _in_range("W", x, lambda: math.exp(x) * acc)
