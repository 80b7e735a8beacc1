"""The parameter domain the tests sweep, defined once; README's "Parameter
domain" states it and says which check covers what."""
from __future__ import annotations

import math
import random

from hypothesis import strategies as st

from cancelput.model import make_model
from cancelput.pricer import Contract, optimal_threshold
from cancelput.scale import basis_for

STRIKE = 100.0
DRAWS = 2_000
#: (low, high) of each log-uniform range; h/K and s0/a* last.
R, SIGMA2, LAM, RHO = (1e-4, 0.5), (1e-8, 2.0), (1e-7, 50.0), (1e-5, 50.0)
BARRIER_RATIO, SPOT_RATIO = (1.0001, 3.0), (1.0, 1e80)
NO_JUMPS = 0.2  # the share of draws with lambda = 0
#: The Monte Carlo sweep's lambda and rho, cut to lambda <= 10 and rho >= 0.1
#: to keep its run time down: it simulates every example twice.
MC_LAM, MC_RHO = (LAM[0], 10.0), (0.1, RHO[1])


def draws():
    """DRAWS draws of ((r, sigma2, lam, rho), h/K, s0/a*), in a fixed order
    (seed 11)."""
    rng = random.Random(11)

    def log_uniform(bounds):
        return math.exp(rng.uniform(*map(math.log, bounds)))

    for _ in range(DRAWS):
        r, sigma2 = log_uniform(R), log_uniform(SIGMA2)
        lam = 0.0 if rng.random() < NO_JUMPS else log_uniform(LAM)
        rho = log_uniform(RHO)
        yield (r, sigma2, lam, rho), log_uniform(BARRIER_RATIO), log_uniform(SPOT_RATIO)


def mc_strategy():
    """The Monte Carlo sweep's draws of ((r, sigma2, lam, rho), h/K) as a
    hypothesis strategy; lambda = 0 is one of two branches."""

    def log_uniform(bounds):
        return st.floats(*map(math.log, bounds)).map(math.exp)

    lam = st.one_of(st.just(0.0), log_uniform(MC_LAM))
    params = st.tuples(log_uniform(R), log_uniform(SIGMA2), lam, log_uniform(MC_RHO))
    return st.tuples(params, log_uniform(BARRIER_RATIO))


def case(params, barrier_ratio):
    """(model, basis, contract at spot K, a*) of one draw; a set the package
    refuses raises its CancelPutError."""
    m = make_model(*params)
    b = basis_for(m)
    c = Contract(strike=STRIKE, barrier=STRIKE * barrier_ratio, spot=STRIKE)
    return m, b, c, optimal_threshold(b, m, c)
