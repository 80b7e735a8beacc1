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

import enum
import math
import sys
import warnings
from typing import TYPE_CHECKING

from ._record import Record
from .errors import (
    ConfigError,
    DomainError,
    InconsistentBasis,
    InvalidParams,
    NumericsWarning,
    ThresholdOutOfRange,
)
from .model import ModelParams
from .scale import ScaleBasis, basis_for

if TYPE_CHECKING:
    from .mc import McConfig

#: Allowed numerical excursion outside [0, 1] before a factor clamp warns.
_CLAMP_TOL = 1e-10


class Region(enum.Enum):
    CONTINUATION = "Continuation"
    EXERCISE = "Exercise"


class Contract(Record):
    """Perpetual put terms: strike, cancellation barrier, current spot."""

    __slots__ = ("strike", "barrier", "spot")

    def __init__(self, strike: float, barrier: float, spot: float) -> None:
        if not (0.0 < strike < math.inf):
            raise InvalidParams(f"strike must be positive and finite, got {strike}")
        if not (0.0 < spot < math.inf):
            raise InvalidParams(f"spot must be positive and finite, got {spot}")
        if not (strike < barrier < math.inf):
            raise InvalidParams(
                f"barrier must exceed the strike and be finite, got barrier={barrier}, "
                f"strike={strike}"
            )
        _set_strike(self, strike)
        _set_barrier(self, barrier)
        _set_spot(self, spot)


class PriceReport(Record):
    """Quote at the contract spot: threshold, value, passage factors, region."""

    __slots__ = ("a_star", "value", "creeping_factor", "undershoot_factor", "region")

    def __init__(
        self,
        a_star: float,
        value: float,
        creeping_factor: float,
        undershoot_factor: float,
        region: Region,
    ) -> None:
        _set_a_star(self, a_star)
        _set_value(self, value)
        _set_creeping_factor(self, creeping_factor)
        _set_undershoot_factor(self, undershoot_factor)
        _set_region(self, region)


_set_strike, _set_barrier, _set_spot = Contract._setters()
_set_a_star, _set_value, _set_creeping_factor, _set_undershoot_factor, _set_region = PriceReport._setters()
_CONTINUATION, _EXERCISE = Region  # a member lookup costs what a field set does


def g_payoff(m: ModelParams, c: Contract, s: float) -> float:
    """Cancellation-tilted put payoff (K - s)^+ * min((h/s)^alpha, 1)."""
    if not (s > 0.0):
        raise DomainError(f"payoff needs a positive price, got s={s}")
    intrinsic = c.strike - s
    if intrinsic <= 0.0:
        return 0.0
    return intrinsic * min((c.barrier / s) ** m.alpha, 1.0)


def g_integral(m: ModelParams, c: Contract, a: float) -> float:
    """Expected payoff under an exponential(rho) undershoot below ``a``.

    Equals the integral of rho*e^{-rho*y} G(a e^{-y}) over y > 0.  Because
    a < K < h, the landing point stays below both kinks and the integral
    collapses to (h/a)^alpha rho (K/(rho - alpha) - a/(rho - alpha + 1)).
    Zero without jumps (the undershoot event never happens).
    """
    return _payoff_pair(m, c, a)[1]


def _payoff_pair(m: ModelParams, c: Contract, a: float) -> tuple[float, float]:
    """G(a) and G_bar(a) (:func:`g_integral`) for ``a`` in (0, strike), from one (h/a)^alpha."""
    if not (0.0 < a < c.strike):
        raise DomainError(f"threshold must lie in (0, strike), got a={a}")
    k, alpha, rho, p = c.strike, m.alpha, m.rho, (c.barrier / a) ** m.alpha
    g_bar = p * rho * (k / (rho - alpha) - a / (rho - alpha + 1.0)) if m.lam != 0.0 else 0.0
    return (k - a) * (1.0 if 1.0 < p else p), g_bar  # min(p, 1.0), as in g_payoff


def _clamped_unit(raw: float, label: str, s: float, a: float) -> float:
    if raw < -_CLAMP_TOL or raw > 1.0 + _CLAMP_TOL:
        level = 1  # the warning names the first line outside this module
        while sys._getframe(level).f_code.co_filename == __file__:
            level += 1
        warnings.warn(
            f"{label} at s={s}, a={a} left [0, 1] by more than {_CLAMP_TOL} (raw {raw}); clamped",
            NumericsWarning,
            stacklevel=level + 1,
        )
    return min(1.0, max(0.0, raw))


def _passage_rows(b: ScaleBasis, m: ModelParams, pairs, c: Contract | None = None) -> list:
    """:func:`passage_factors` for each (s, a) in ``pairs`` or, given a contract,
    :func:`policy_values`, in one pass; each root's weights are formed once."""
    r, s2, jumps = m.r, m.sigma2, m.lam != 0.0  # no jumps: undershoot weights are 0
    const, terms = 1.0 - r * b.c[0] / b.eta[0] if jumps else 0.0, []
    for ei, ci in zip(b.eta[1:], b.c[1:]):
        if jumps:
            const -= r * ci / ei
        jump_weight = r / ei - s2 * ei / 2.0 - r + s2 / 2.0 if jumps else 0.0
        terms.append((ei, ci * (ei - 1.0), ci, jump_weight))
    if c is not None:
        k, h, alpha, rho = c.strike, c.barrier, m.alpha, m.rho
    rows, a_run = [], math.nan
    for s, a in pairs:
        if c is not None and a != a_run:
            if not (0.0 < a < k):
                raise DomainError(f"threshold must lie in (0, strike), got a={a}")
            a_run, p = a, (h / a) ** alpha
            g = (k - a) * (1.0 if 1.0 < p else p)  # min(p, 1.0), as in g_payoff
            g_bar = p * rho * (k / (rho - alpha) - a / (rho - alpha + 1.0)) if jumps else 0.0
        if not (s >= a > 0.0):
            if c is not None and 0.0 < s < a:  # the policy stops at once: the payoff itself
                rows.append((k - s) * min((h / s) ** alpha, 1.0))
                continue
            raise DomainError(f"need s >= a > 0 (or 0 < s < a for a value), got s={s}, a={a}")
        x = math.log(s / a)
        creep = acc = 0.0
        for ei, creep_weight, ci, jump_weight in terms:
            e = math.exp(ei * x)
            creep += creep_weight * e
            acc += ci * e * jump_weight
        creep, under = s2 / 2.0 * creep, const + acc
        if not 0.0 <= creep <= 1.0:
            creep = _clamped_unit(creep, "creeping factor", s, a)
        if not 0.0 <= under <= 1.0:
            under = _clamped_unit(under, "undershoot factor", s, a)
        rows.append(creep * g + under * g_bar if c is not None else (creep, under))
    return rows


def passage_factors(b: ScaleBasis, m: ModelParams, s: float, a: float) -> tuple[float, float]:
    """Discounted weights of reaching ``a`` from ``s``: by creep, touching
    ``a`` continuously, and by a jump landing strictly below it.

    At x = log(s/a) these are (s2/2)(W'(x) - W(x)) and
    Z(x) - (s2/2)W'(x) - W(x)(r - s2/2), regrouped per exponent.  Both leave
    out the eta_1 = 1 term: it is exactly zero, and summed, its roundoff
    residue would grow like e^x.  The constant collapses through
    sum c_i/eta_i = 1/r.  Without jumps the second event is impossible: its
    factor is exactly 0.  A factor is clamped only where it leaves [0, 1].
    """
    return _passage_rows(b, m, ((s, a),))[0]


def policy_values(b: ScaleBasis, m: ModelParams, c: Contract, points) -> list[float]:
    """Value at spot ``s`` of stopping at the first passage below ``a``, for
    each (s, a) in ``points``: the payoff itself for s < a, where the policy
    stops at once, and from ``a`` up creep * G(a) + undershoot * G_bar(a), with
    G_bar(a) the payoff's average under the memoryless undershoot, both formed
    once for each run of equal ``a``.  A spot that is NaN or not positive, or a
    threshold outside (0, strike), raises :class:`DomainError`."""
    return _passage_rows(b, m, points, c)


def value_at_threshold(b: ScaleBasis, m: ModelParams, c: Contract, s: float, a: float) -> float:
    """:func:`policy_values` at one (s, a) pair."""
    return policy_values(b, m, c, ((s, a),))[0]


def optimal_threshold(b: ScaleBasis, m: ModelParams, c: Contract) -> float:
    """Exercise threshold maximizing the stop-below-``a`` value.

    From the first-order condition, which each negative exponent meets by
    itself; this reads the lower one, e (-2r/s2 without jumps):
    a* = K (e + alpha)/(e + alpha - 1), times (rho - alpha + 1)/(rho - alpha)
    * (s2 alpha e/2 + r rho)/(r rho - s2 (1 - alpha) e/2) with jumps.  As
    e, alpha < 0 < r, rho, each sum adds like signs, so nothing cancels, and
    each ratio is formed before the product, so nothing overflows.  A basis
    that breaks these signs raises :class:`InconsistentBasis`.
    """
    k, alpha, e = c.strike, m.alpha, b.eta[1]
    if not (e < 0.0 and b.c[1] < 0.0 and b.c[-1] < 0.0):
        raise InconsistentBasis(f"threshold needs a negative root with negative coefficients, got {b}")
    a_star = k * (e + alpha) / (e + alpha - 1.0)
    if m.lam != 0.0:
        s2, r, rho = m.sigma2, m.r, m.rho
        a_star *= (rho - alpha + 1.0) / (rho - alpha) * (
            (s2 * alpha * e / 2.0 + r * rho) / (r * rho - s2 * (1.0 - alpha) * e / 2.0)
        )
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
        return PriceReport(a_star, g_payoff(m, c, c.spot), 1.0, 0.0, _EXERCISE)
    creep, under = passage_factors(b, m, c.spot, a_star)
    g, g_bar = _payoff_pair(m, c, a_star)
    return PriceReport(a_star, creep * g + under * g_bar, creep, under, _CONTINUATION)


def grid_search_threshold(
    m: ModelParams,
    c: Contract,
    a_grid,
    cfg: "McConfig | None" = None,
) -> tuple[float, list[float]]:
    """Argmax of the policy value over candidate thresholds (the first, on ties).

    Closed-form evaluation without ``cfg``; with it every grid point is
    estimated by simulation from the same seed, so the comparison rides on
    common random numbers and the argmax is not noise-dominated.
    """
    grid = list(map(float, a_grid))
    if not grid:
        raise ConfigError("threshold grid is empty")
    for prev, a in zip([0.0, *grid], grid):  # one pass; a range error outranks an order error
        if not (prev < a < c.strike):
            if all(0.0 < b < c.strike for b in grid):
                raise ConfigError("threshold grid must be strictly increasing")
            raise ConfigError("threshold grid must lie inside (0, strike)")

    if cfg is not None:
        if grid[-1] >= c.spot:
            raise ConfigError(
                f"a simulated threshold grid must lie below the spot {c.spot}, got {grid[-1]}"
            )
        from .mc import estimate_value

        values = [estimate_value(m, c, a, cfg).mean for a in grid]
    else:
        values = policy_values(basis_for(m), m, c, zip([c.spot] * len(grid), grid))
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

