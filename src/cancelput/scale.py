"""Scale functions of the jump-diffusion, in exponential-sum form.

Discounted first-passage identities for a spectrally negative process are
expressed through a pair of functions (W, Z) indexed by the discount rate.
For this model both admit finite exponential sums: the cubic

    (psi(theta) - r) * (theta + rho) = 0

has three simple real roots, one of which is exactly 1 under the martingale
drift, and partial fractions of 1/(psi - r) over those roots give the sum
coefficients.  Without jumps the cubic collapses to a quadratic and the sum
has two terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import BranchError, DegenerateRoots
from .model import ModelParams

#: Two roots closer than this are treated as coincident.
_ROOT_SEP_TOL = 1e-10
#: Newton polishing stops once the cubic is within this many ulps of its terms.
_POLISH_ULPS = 8.0 * sys.float_info.epsilon
_MAX_EXP_ARG = 700.0  # exp() overflows just above 709; saturate before that


@dataclass(frozen=True)
class ScaleBasis:
    """Exponents and coefficients of the exponential-sum scale functions.

    ``eta`` holds the exponents, three with jumps and two without; the
    first is always 1, the positive root of psi(theta) = r.  ``c`` holds
    the matching coefficients.
    """

    eta: tuple[float, ...]
    c: tuple[float, ...]


def _cubic(m: ModelParams, theta: float) -> tuple[float, float, float]:
    """(psi(theta) - r)(theta + rho), expanded so the pole is cleared.

    Returns the value, the sum of its terms' magnitudes (the value's
    roundoff floor), and the derivative.
    """
    k3 = m.sigma2 / 2.0
    k2 = m.mu + m.sigma2 * m.rho / 2.0
    k1 = m.mu * m.rho - m.lam - m.r
    terms = (k3 * theta**3, k2 * theta**2, k1 * theta, -m.r * m.rho)
    return sum(terms), sum(map(abs, terms)), 3.0 * k3 * theta**2 + 2.0 * k2 * theta + k1


def _polish_root(m: ModelParams, theta: float) -> float:
    for _ in range(20):
        val, size, slope = _cubic(m, theta)
        if abs(val) <= _POLISH_ULPS * size or slope == 0.0:
            break
        theta -= val / slope
    return theta


def _partial_fraction_weights(
    etas: tuple[float, float, float], sigma2: float, rho: float
) -> tuple[float, float, float]:
    """Coefficients C_i = 2(eta_i + rho) / (sigma2 * prod_{j!=i}(eta_i - eta_j)).

    Pure helper so degenerate inputs can be exercised directly in tests;
    the quadratic-factor discriminant is strictly positive for every
    parameter set that passes model validation, which makes the coincident
    case unreachable through the public constructor.
    """
    out = []
    for i, ei in enumerate(etas):
        denom = sigma2 / 2.0
        for j, ej in enumerate(etas):
            if j == i:
                continue
            gap = ei - ej
            if abs(gap) <= _ROOT_SEP_TOL:
                raise DegenerateRoots(
                    f"roots {ei} and {ej} coincide within {_ROOT_SEP_TOL}"
                )
            denom *= gap
        out.append((ei + rho) / denom)
    return tuple(out)


def build_scale_basis(m: ModelParams) -> ScaleBasis:
    """Three-exponential basis for a model with jumps (``lam > 0``).

    The negative exponents come from the quadratic factor of the cleared
    cubic; they are computed in the numerically stable product form and
    Newton-polished on the cubic itself.  One lies in (-rho, 0), the other
    below -rho; any other layout means the partial-fraction representation
    is invalid for these parameters.
    """
    if m.lam <= 0.0:
        raise BranchError("three-root basis requires a positive jump intensity")

    s2 = m.sigma2
    # Quadratic factor: (s2/2) theta^2 + b theta + r*rho, after dividing
    # out the exact root at theta = 1.
    b = m.mu + s2 * (m.rho + 1.0) / 2.0
    disc = b * b - 2.0 * s2 * m.r * m.rho
    if disc <= 0.0:
        raise DegenerateRoots(
            f"quadratic-factor discriminant {disc} is not positive"
        )
    # Both roots are negative: avoid cancellation by computing the large
    # one directly and the small one from the root product 2*r*rho/s2.
    root_lo = (-b - math.sqrt(disc)) / s2
    root_hi = (2.0 * m.r * m.rho / s2) / root_lo
    root_lo = _polish_root(m, root_lo)
    root_hi = _polish_root(m, root_hi)

    in_band = sum(1 for e in (root_lo, root_hi) if -m.rho < e < 0.0)
    below = sum(1 for e in (root_lo, root_hi) if e < -m.rho)
    if in_band != 1 or below != 1:
        raise DegenerateRoots(
            "negative roots do not straddle the jump pole: "
            f"got {root_lo}, {root_hi} around {-m.rho}"
        )

    etas = (1.0, root_lo, root_hi)
    coeffs = _partial_fraction_weights(etas, s2, m.rho)
    return ScaleBasis(eta=etas, c=coeffs)


def build_scale_basis_bs(m: ModelParams) -> ScaleBasis:
    """Two-exponential basis for the jump-free model (``lam = 0``).

    The exponents solve mu*theta + s2*theta^2/2 = r.  Under the martingale
    drift one of them is exactly 1, and their product is -2r/s2, so the
    other is that product: one rounding, no quadratic to solve.
    """
    if m.lam > 0.0:
        raise BranchError("two-root basis requires zero jump intensity")

    s2 = m.sigma2
    eta2 = -2.0 * m.r / s2
    c1 = 1.0 / ((s2 / 2.0) * (1.0 - eta2))
    return ScaleBasis(eta=(1.0, eta2), c=(c1, -c1))


def basis_for(m: ModelParams) -> ScaleBasis:
    """Dispatch to the branch matching the jump intensity."""
    return build_scale_basis(m) if m.lam > 0.0 else build_scale_basis_bs(m)


def w_r(b: ScaleBasis, x: float) -> float:
    """W at ``x``; zero for ``x < 0`` by convention.

    Evaluated as e^x * (c1 + sum_i c_i e^{(eta_i - 1) x}) so that large
    arguments never exponentiate a positive multiple of x twice.
    """
    if x < 0.0:
        return 0.0
    acc = 0.0
    for ei, ci in zip(b.eta, b.c):
        acc += ci * math.exp(min((ei - 1.0) * x, _MAX_EXP_ARG))
    return math.exp(min(x, _MAX_EXP_ARG)) * acc


def z_r(b: ScaleBasis, m: ModelParams, x: float) -> float:
    """Z at ``x``: 1 + r * integral of W from 0 to x; one for ``x < 0``."""
    if x < 0.0:
        return 1.0
    acc = 0.0
    for ei, ci in zip(b.eta, b.c):
        acc += ci * (math.exp(min(ei * x, _MAX_EXP_ARG)) - 1.0) / ei
    return 1.0 + m.r * acc
