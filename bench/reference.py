"""Independent reference values for the cancellable put.

Nothing here imports ``cancelput``: the benchmark checks the program's
outputs against these figures, so they must not share its code.

* lambda = 0 uses the Black-Scholes closed form.  With the martingale
  drift mu = r - sigma2/2 the negative root of mu*t + sigma2*t^2/2 = r is
  eta2 = -2r/sigma2, the cancellation exponent is alpha = 2mu/sigma2, and

      a* = K (eta2 + alpha) / (eta2 + alpha - 1)
      V(s) = (K - a*) (s/a*)^eta2 (h/a*)^alpha        for s > a*.

* lambda > 0 is evaluated in mpmath at 50 digits.  The root of
  (psi(t) - r)(t + rho) = 0 at t = 1 is pinned exactly (it is the
  martingale condition); the other two come from the quadratic factor.
  Creeping and undershoot factors use the textbook scale-function forms

      creep(x) = (sigma2/2) (W'(x) - W(x))
      under(x) = Z(x) - r W(x) - creep(x)

  and a* is found by maximising V(s; a) over a, not from a first-order
  formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

DPS = 50

#: The paper's two reference sets: r, sigma2, lambda, rho, K, h, s0.
PAPER_DIFFUSION = dict(r=0.05, sigma2=0.2, lam=0.0, rho=1.0, strike=100.0, barrier=120.0)
PAPER_JUMPS = dict(r=0.05, sigma2=0.2, lam=5.0, rho=2.0, strike=100.0, barrier=120.0)
PAPER_SPOT = 110.0


@dataclass(frozen=True)
class Quote:
    """Reference price report at one spot, as floats."""

    a_star: float
    value: float
    creeping_factor: float
    undershoot_factor: float
    region: str


class Reference:
    """Reference model for one parameter set and contract (K, h)."""

    def __init__(self, r, sigma2, lam, rho, strike, barrier):
        self.r, self.sigma2, self.lam, self.rho = float(r), float(sigma2), float(lam), float(rho)
        with mp.workdps(DPS):
            self._r = mp.mpf(r)
            self._s2 = mp.mpf(sigma2)
            self._lam = mp.mpf(lam)
            self._rho = mp.mpf(rho)
            self._k = mp.mpf(strike)
            self._h = mp.mpf(barrier)
            self._setup()
        self.strike = float(strike)
        self.barrier = float(barrier)
        self.alpha = float(self._alpha)
        self.a_star = float(self._a)

    # -- construction -------------------------------------------------

    def _setup(self) -> None:
        r, s2, lam, rho = self._r, self._s2, self._lam, self._rho
        if lam == 0:
            self._mu = r - s2 / 2
            self._alpha = 2 * self._mu / s2
            eta2 = -2 * r / s2
            self._etas = (mp.mpf(1), eta2)
            c1 = 1 / ((s2 / 2) * (1 - eta2))
            self._coeffs = (c1, -c1)
            self._a = self._k * (eta2 + self._alpha) / (eta2 + self._alpha - 1)
            return
        self._mu = r - s2 / 2 + lam / (1 + rho)
        # psi(t) = 0 for t > 0:  (mu + s2 t/2)(t + rho) = lam.
        qa, qb, qc = s2 / 2, self._mu + s2 * rho / 2, self._mu * rho - lam
        self._alpha = -(-qb + mp.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
        # (psi(t) - r)(t + rho) / (t - 1) = (s2/2) t^2 + b t + r rho.
        b = self._mu + s2 * (rho + 1) / 2
        disc = mp.sqrt(b * b - 2 * s2 * r * rho)
        self._etas = (mp.mpf(1), (-b - disc) / s2, (-b + disc) / s2)
        coeffs = []
        for i, ei in enumerate(self._etas):
            den = s2 / 2
            for j, ej in enumerate(self._etas):
                if j != i:
                    den *= ei - ej
            coeffs.append((ei + rho) / den)
        self._coeffs = tuple(coeffs)
        self._a = self._maximise_threshold()

    def _maximise_threshold(self):
        """argmax over a in (0, K) of V(h; a): scan, then golden section."""
        k, s = self._k, self._h
        grid = [k * i / 50 for i in range(1, 50)]
        vals = [self._policy_value(s, a) for a in grid]
        best = max(range(len(vals)), key=vals.__getitem__)
        lo = grid[max(best - 1, 0)] if best > 0 else k / 1000
        hi = grid[best + 1] if best + 1 < len(grid) else k * (1 - mp.mpf(1) / 1000)
        inv_phi = (mp.sqrt(5) - 1) / 2
        x1 = hi - inv_phi * (hi - lo)
        x2 = lo + inv_phi * (hi - lo)
        f1, f2 = self._policy_value(s, x1), self._policy_value(s, x2)
        while hi - lo > mp.mpf(10) ** (-16) * k:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + inv_phi * (hi - lo)
                f2 = self._policy_value(s, x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - inv_phi * (hi - lo)
                f1 = self._policy_value(s, x1)
        return (lo + hi) / 2

    # -- scale functions and passage factors --------------------------

    def _factors(self, x):
        """(creep, under) at x = log(s/a) from W, W' and Z at x."""
        exps = [mp.exp(e * x) for e in self._etas]
        w = sum(c * ex for c, ex in zip(self._coeffs, exps))
        w_prime = sum(c * e * ex for e, c, ex in zip(self._etas, self._coeffs, exps))
        creep = self._s2 / 2 * (w_prime - w)
        if self._lam == 0:
            return creep, mp.mpf(0)
        z = 1 + self._r * sum(
            c * (ex - 1) / e for e, c, ex in zip(self._etas, self._coeffs, exps)
        )
        return creep, z - self._r * w - creep

    def _payoff(self, s):
        if s >= self._k:
            return mp.mpf(0)
        return (self._k - s) * min((self._h / s) ** self._alpha, mp.mpf(1))

    def _payoff_below(self, a):
        """E[G(a e^{-Y})] for Y ~ Exp(rho); a < K < h keeps G smooth there."""
        rho, alpha = self._rho, self._alpha
        return (self._h / a) ** alpha * rho * (
            self._k / (rho - alpha) - a / (rho - alpha + 1)
        )

    def _policy_value(self, s, a):
        if s <= a:
            return self._payoff(s)
        if self._lam == 0:
            return self._payoff(a) * (s / a) ** self._etas[1]
        creep, under = self._factors(mp.log(s / a))
        return creep * self._payoff(a) + under * self._payoff_below(a)

    # -- public, float-valued ----------------------------------------

    def payoff(self, s: float) -> float:
        with mp.workdps(DPS):
            return float(self._payoff(mp.mpf(s)))

    def value(self, s: float) -> float:
        """Value at spot ``s`` under the optimal policy."""
        with mp.workdps(DPS):
            return float(self._policy_value(mp.mpf(s), self._a))

    def quote(self, s: float) -> Quote:
        with mp.workdps(DPS):
            sm = mp.mpf(s)
            if sm <= self._a:
                return Quote(self.a_star, float(self._payoff(sm)), 1.0, 0.0, "Exercise")
            creep, under = self._factors(mp.log(sm / self._a))
            return Quote(
                self.a_star,
                float(self._policy_value(sm, self._a)),
                float(creep),
                float(under),
                "Continuation",
            )


def self_check() -> list[str]:
    """Compare against the paper's figures; returns the failures found."""
    errors = []
    ref = Reference(**PAPER_DIFFUSION)
    q = ref.quote(PAPER_SPOT)
    if abs(q.a_star - 50.0) > 1e-12 or abs(q.value - 250.0 / math.sqrt(132.0)) > 1e-12:
        errors.append(f"diffusion reference a*={q.a_star!r} V={q.value!r}, want 50, 250/sqrt(132)")
    ref = Reference(**PAPER_JUMPS)
    q = ref.quote(PAPER_SPOT)
    if abs(q.a_star - 63.18) > 5e-3 or abs(q.value - 18.99) > 5e-3:
        errors.append(f"jump reference a*={q.a_star!r} V={q.value!r}, want 63.18, 18.99")
    return errors
