"""Scale functions of the jump-diffusion, in exponential-sum form.

Discounted first-passage identities for a spectrally negative process are
expressed through a pair of functions (W, Z) indexed by the discount rate.
For this model both admit finite exponential sums: the cubic

    (psi(theta) - r) * (theta + rho) = 0

has three simple real roots, one of which is exactly 1 under the martingale
drift, and partial fractions of 1/(psi - r) over those roots give the sum
coefficients.  Without jumps the cubic collapses to a quadratic and the sum
has two terms.  Every root and coefficient is algebraic: no iteration.
"""

import math

from ._record import Record
from .errors import DegenerateRoots
from .model import ModelParams

#: Two roots closer than this are treated as coincident.
_ROOT_SEP_TOL = 1e-10


class ScaleBasis(Record):
    """Exponents and coefficients of the exponential-sum scale functions.

    ``eta`` holds the exponents, three with jumps and two without; the
    first is always 1, the positive root of psi(theta) = r.  ``c`` holds
    the matching coefficients.
    """

    __slots__ = ("eta", "c")

    def __init__(self, eta: tuple[float, ...], c: tuple[float, ...]) -> None:
        _set_eta(self, eta)
        _set_c(self, c)


_set_eta, _set_c = ScaleBasis._setters()


def _partial_fraction_weights(
    etas: tuple[float, float, float], offsets: tuple[float, float, float], sigma2: float
) -> tuple[float, float, float]:
    """Coefficients C_i = 2 offsets_i / (sigma2 * prod_{j!=i}(eta_i - eta_j)).

    ``offsets`` holds eta_i + rho, passed in because near the pole it cannot
    be formed from eta_i.  Each denominator is (sigma2/2) times the root's
    two gaps, in index order.  The pairs are checked as (0, 1), (0, 2),
    (1, 2); the first whose gap is within ``_ROOT_SEP_TOL`` raises.  Pure
    helper so degenerate inputs can be exercised directly in tests; the
    quadratic-factor discriminant is strictly positive for every parameter
    set that passes model validation, which makes the coincident case
    unreachable through the public constructor.
    """
    (e0, e1, e2), tol = etas, _ROOT_SEP_TOL
    d01, d02, d12 = e0 - e1, e0 - e2, e1 - e2
    if abs(d01) <= tol or abs(d02) <= tol or abs(d12) <= tol:
        ei, ej = (e0, e1) if abs(d01) <= tol else (e0, e2) if abs(d02) <= tol else (e1, e2)
        raise DegenerateRoots(f"roots {ei} and {ej} coincide within {tol}")
    half = sigma2 / 2.0
    return (offsets[0] / (half * d01 * d02), offsets[1] / (half * -d01 * d12),
            offsets[2] / (half * -d02 * -d12))


def basis_for(m: ModelParams) -> ScaleBasis:
    """Exponents and coefficients of W and Z for ``m``, by algebra.

    Without jumps the exponents solve mu*theta + s2*theta^2/2 = r: one is
    exactly 1 under the martingale drift, and their product is -2r/s2, so
    the other is that product.  With jumps the negative exponents are the
    roots of the cleared cubic's quadratic factor

        Q(theta) = (s2/2) theta^2 + b theta + r*rho,   b = r + j + s2*rho/2,

    with j = lam/(1 + rho), built from the inputs and not from mu (which
    cancels against s2/2).  Its discriminant is D^2 = a^2 + 2*s2*rho*j with
    a = r + j - s2*rho/2, a sum of squares.  The lower root is (-b - D)/s2
    and the upper one comes from the root product 2*r*rho/s2.  The offsets
    from the jump pole, eta + rho = (-a - D)/s2 and (-a + D)/s2, multiply to
    Q(-rho)*2/s2 = -2*rho*j/s2 < 0: one root lies each side of -rho.  The
    offset that adds like signs, -q/s2 with q = a + sign(a) D, is formed
    directly, the one next to the pole from that product; q's sign says
    which is the lower.  The offsets are the partial-fraction numerators,
    and their signs are the layout check, which holds even where the near
    root rounds onto -rho.
    """
    s2, r = m.sigma2, m.r
    if m.lam == 0.0:
        eta2 = -2.0 * r / s2
        c1 = 1.0 / ((s2 / 2.0) * (1.0 - eta2))
        return ScaleBasis((1.0, eta2), (c1, -c1))

    j = m.lam / (1.0 + m.rho)
    half = s2 * m.rho / 2.0
    a = r + j - half
    disc = math.hypot(a, math.sqrt(2.0 * s2 * m.rho * j))
    b_plus_d = r + j + half + disc
    eta_lo, eta_hi = -b_plus_d / s2, -2.0 * r * m.rho / b_plus_d
    q = a + math.copysign(disc, a)
    off_q, off_prod = -q / s2, 2.0 * m.rho * j / q
    off_lo, off_hi = (off_q, off_prod) if q > 0.0 else (off_prod, off_q)
    if not (-math.inf < off_lo < 0.0 < off_hi and eta_hi < 0.0):
        raise DegenerateRoots(
            f"negative roots {eta_lo}, {eta_hi} are not finite and one each side "
            f"of the jump pole at {-m.rho}"
        )

    etas = (1.0, eta_lo, eta_hi)
    coeffs = _partial_fraction_weights(etas, (1.0 + m.rho, off_lo, off_hi), s2)
    return ScaleBasis(etas, coeffs)
