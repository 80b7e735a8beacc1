"""Risk-neutral jump-diffusion model for the log-price.

The log-price moves as a Brownian motion with drift plus a compound Poisson
stream of exponentially distributed downward jumps.  Under the pricing
measure the drift is pinned so that the discounted asset is a martingale,
which fixes ``mu`` in terms of the other parameters.  The cancellation
exponent ``alpha`` is the negative root of the Laplace exponent in (-1, 0);
it controls how fast the option's cancellation discount decays with the
distance below the barrier.
"""

import math

from ._record import Record
from .errors import DegenerateCancellation, InvalidParams, PoleError


class ModelParams(Record):
    """Immutable parameter bundle.  Build through :func:`make_model`.

    Direct construction skips validation on purpose: tests and diagnostics
    sometimes need deliberately extreme bundles (e.g. near-zero volatility).
    """

    __slots__ = ("r", "sigma2", "lam", "rho", "mu", "alpha")

    def __init__(
        self, r: float, sigma2: float, lam: float, rho: float, mu: float, alpha: float
    ) -> None:
        _set_r(self, r)
        _set_sigma2(self, sigma2)
        _set_lam(self, lam)
        _set_rho(self, rho)
        _set_mu(self, mu)
        _set_alpha(self, alpha)


_set_r, _set_sigma2, _set_lam, _set_rho, _set_mu, _set_alpha = ModelParams._setters()


def make_model(r: float, sigma2: float, lam: float, rho: float) -> ModelParams:
    """Validate raw inputs, pin the martingale drift, solve for ``alpha``.

    ``alpha`` is algebraic, with no iteration: 2 mu/sigma2 without jumps;
    with them, minus the positive root of the quadratic psi(t)(t + rho)/t.

    Raises
    ------
    InvalidParams
        If any input is NaN or infinite, ``r`` or ``sigma2`` is not positive,
        ``lam`` is negative, or ``rho`` is not positive.
    DegenerateCancellation
        If the log-price drifts upward (Laplace exponent has nonnegative
        slope at zero), in which case no cancellation exponent exists.
    """
    if not (0.0 < r < math.inf):
        raise InvalidParams(f"interest rate must be positive and finite, got r={r}")
    if not (0.0 < sigma2 < math.inf):
        raise InvalidParams(f"variance must be positive and finite, got sigma2={sigma2}")
    if not (0.0 <= lam < math.inf):
        raise InvalidParams(
            f"jump intensity must be nonnegative and finite, got lambda={lam}"
        )
    if not (0.0 < rho < math.inf):
        raise InvalidParams(f"jump-size rate must be positive and finite, got rho={rho}")

    # Martingale condition: the Laplace exponent equals r at 1.
    mu = r - sigma2 / 2.0 + (lam / (1.0 + rho) if lam > 0.0 else 0.0)

    # Slope of the Laplace exponent at 0 is the long-run log-price drift.
    drift = mu - (lam / rho if lam > 0.0 else 0.0)
    if drift >= 0.0:
        raise DegenerateCancellation(
            "log-price drifts upward (drift=%g >= 0); the time above the "
            "barrier is infinite and the cancellation exponent does not exist"
            % drift
        )

    if lam == 0.0:
        alpha = 2.0 * mu / sigma2
    else:
        # -alpha is the positive root of psi(t)(t + rho)/t
        #   = (sigma2/2) t^2 + b t + (mu rho - lam),
        # whose discriminant is a sum of squares (hypot neither cancels nor
        # overflows).  mu rho - lam = rho * drift < 0, so the roots have
        # opposite signs; each comes from the formula or from their product,
        # whichever adds like signs.
        b = mu + sigma2 * rho / 2.0
        root_disc = math.hypot(mu - sigma2 * rho / 2.0, math.sqrt(2.0 * sigma2 * lam))
        q = -(b + math.copysign(root_disc, b)) / 2.0
        alpha = -max(2.0 * q / sigma2, (mu * rho - lam) / q)

    if not (-1.0 < alpha < 0.0):
        raise DegenerateCancellation(f"cancellation exponent {alpha} escaped (-1, 0)")
    return ModelParams(r, sigma2, lam, rho, mu, alpha)


def laplace_exponent(model: ModelParams, theta: float) -> float:
    """E[exp(theta * X_1)] = exp(psi(theta)); this returns psi(theta).

    With jumps present the jump term has a pole at ``-rho``; evaluation at
    or left of the pole raises :class:`PoleError`.  Without jumps the
    function is an entire quadratic.
    """
    out = model.mu * theta + model.sigma2 * theta * theta / 2.0
    if model.lam > 0.0:
        if theta <= -model.rho:
            raise PoleError(f"theta={theta} is at or beyond the jump-term pole at {-model.rho}")
        out -= model.lam * theta / (theta + model.rho)
    return out
