"""Seeded inputs for the benchmark.

Domain (K = 100 throughout):

    r      in [0.01, 0.1]       sigma2 in [0.05, 0.5]
    lambda in {0} or [0.5, 8]   rho    in [0.7, 4]     (rho unused at lambda = 0)
    h      in [105, 150]

Draws whose log-price drifts upward are rejected by the benchmark's own
formula (the cancellation exponent does not exist there); the program is
never asked.  Each parameter set is quoted at three spots placed from the
reference threshold: one in the exercise region and two in the
continuation region, below and above the barrier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import Reference

STRIKE = 100.0
R_RANGE = (0.01, 0.1)
SIGMA2_RANGE = (0.05, 0.5)
LAMBDA_RANGE = (0.5, 8.0)
RHO_RANGE = (0.7, 4.0)
BARRIER_RANGE = (105.0, 150.0)


@dataclass(frozen=True)
class ParamSet:
    r: float
    sigma2: float
    lam: float
    rho: float
    barrier: float
    spots: tuple[float, float, float]  # exercise, continuation < h, continuation > h
    ref: Reference

    strike: float = STRIKE

    def flags(self) -> list[str]:
        """Model and contract flags shared by every CLI command (spot excluded)."""
        return [
            "--r", repr(self.r), "--sigma2", repr(self.sigma2),
            "--lambda", repr(self.lam), "--rho", repr(self.rho),
            "--strike", repr(self.strike), "--barrier", repr(self.barrier),
        ]


def upward_drift(r: float, sigma2: float, lam: float, rho: float) -> bool:
    """True when the long-run log-price drift under the martingale measure is >= 0."""
    mu = r - sigma2 / 2.0 + lam / (1.0 + rho)
    return mu - lam / rho >= 0.0


def draw_params(rng: random.Random, jumps: bool) -> ParamSet:
    while True:
        r = rng.uniform(*R_RANGE)
        sigma2 = rng.uniform(*SIGMA2_RANGE)
        lam = rng.uniform(*LAMBDA_RANGE) if jumps else 0.0
        rho = rng.uniform(*RHO_RANGE) if jumps else 1.0
        if not upward_drift(r, sigma2, lam, rho):
            break
    barrier = rng.uniform(*BARRIER_RANGE)
    ref = Reference(r, sigma2, lam, rho, STRIKE, barrier)
    a = ref.a_star
    spots = (
        rng.uniform(0.5 * a, 0.9 * a),
        rng.uniform(1.1 * a, barrier),
        rng.uniform(barrier, 1.5 * barrier),
    )
    return ParamSet(r, sigma2, lam, rho, barrier, spots, ref)


def make_pool(seed: int, jumps: bool, size: int) -> list[ParamSet]:
    """``size`` parameter sets, all with or all without jumps, from ``seed``."""
    rng = random.Random(f"pool:{seed}:{int(jumps)}")
    return [draw_params(rng, jumps) for _ in range(size)]
