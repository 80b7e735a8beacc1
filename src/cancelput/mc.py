"""Monte Carlo oracle for threshold stopping policies.

Paths are simulated exactly in log space, one jump epoch at a time, with
no time grid (Metwally & Atiya 2002).  Jump gaps and sizes are
exponential; each Brownian segment between jumps draws its endpoint, then
whether its bridge crept through the level, then when.  One kernel, the
first passage of a level by a horizon, serves every run: the stop and, in
the same pass, the terminal sampler and, without jumps, direct mode's return
to the barrier under an Esscher tilt (see ``_tilt``); with jumps the return
is a second pass over the stopped paths.  It moves a chunk's active paths a
block of jump epochs per numpy step; without jumps, one segment.

Randomness is counter-based: every random word is Philox4x32-10 (Salmon
et al., SC'11) of the counter (event, purpose, path) under the 64-bit seed
as key.  A path's numbers therefore do not depend on chunking, the worker
count, or how many events one step draws, and any path replays alone.
Estimates are reduced from full per-path arrays with numpy's pairwise
summation, so they are bit-identical for any worker count.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import ModelParams, laplace_exponent
from .pricer import Contract

#: Path-events per kernel step; bounds every temporary array.
_CAP = 1 << 12
#: Events drawn per path in a chunk's first step; doubles every step.
_FIRST_EVENTS = 8
#: Most worker processes one run may ask for; more is a ConfigError.
_MAX_WORKERS = 64
#: The return run ends at log(_RETURN_BIAS)/psi(theta), after which every
#: weight e^{-theta l + psi(theta) T} is below this: it bounds the bias.
_RETURN_BIAS = 1e-12

# First counter purposes of a run: its (normal, crossing, jump) draws take
# purposes p, p + 1, p + 2, each two uniforms per (event, path).
_STOP, _RETURN = 0, 3
_DRAWS = np.arange(3, dtype=np.uint64)[:, None]
_KINDS = np.array(["none", "creep", "jump"])  # crossings by the kernel's codes

_PHILOX_M0, _PHILOX_M1 = np.uint64(0xD2511F53), np.uint64(0xCD9E8D57)
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B9, 0xBB67AE85
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class McMode(enum.Enum):
    SURVIVAL_WEIGHTED = "survival"
    DIRECT_LAST_PASSAGE = "direct"


@dataclass(frozen=True)
class McConfig:
    """One simulation run, worker processes included.  ``horizon`` must also
    satisfy horizon >= 10/r, which ``simulate_paths`` checks (the rate lives
    on the model)."""

    n_paths: int
    horizon: float
    seed: int
    mode: McMode = McMode.SURVIVAL_WEIGHTED
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("n_paths", "seed", "workers"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        if self.n_paths < 100:
            raise ConfigError(f"need at least 100 paths, got {self.n_paths}")
        if not (0.0 < self.horizon < math.inf):
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon}")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if not (1 <= self.workers <= _MAX_WORKERS):
            raise ConfigError(
                f"workers must be at least 1 and at most {_MAX_WORKERS}, got {self.workers}"
            )


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_paths: int
    truncation_bound: float

    @classmethod
    def from_sample(cls, vals: np.ndarray, truncation_bound: float = 0.0) -> McEstimate:
        """Mean and standard error of a per-path sample (pairwise summation,
        so the figures do not depend on how the paths were chunked); below
        about 1e-154 squares underflow, so it rescales by a power of two."""
        mean, sd = _mean_sd(vals)
        stderr = float(sd / math.sqrt(vals.size))
        if stderr < 1e-150 and vals.any():  # an all-zero sample is exact as it is
            shift = math.frexp(float(np.max(np.abs(vals))))[1]
            stderr = math.ldexp(float(_mean_sd(np.ldexp(vals, -shift))[1] / math.sqrt(vals.size)), shift)
        return cls(float(mean), stderr, int(vals.size), truncation_bound)


def _mean_sd(vals: np.ndarray) -> tuple[np.float64, np.float64]:
    """``np.mean(vals)`` and ``np.std(vals, ddof=1)`` bit for bit, from one sum
    of the sample and one of its squared deviations."""
    mean = np.add.reduce(vals) / vals.size
    dev = vals - mean
    return mean, np.sqrt(np.add.reduce(dev * dev) / (vals.size - 1))


@dataclass(frozen=True)
class PolicyPaths:
    """Per-path outcome of one run of the stop-below-``a`` policy.

    ``tau`` and ``s_tau`` are NaN where the horizon came first, and
    ``crossing`` holds "none", "creep" or "jump".  ``x_tau`` is the log
    position log(S/s0) the kernel stopped at, at the horizon where that came
    first; it stays finite where a jump lands so far down that ``s_tau``
    underflows to 0.  ``discount`` is e^{-r tau} under the run's model, 0
    where the horizon came first.  In direct mode ``returned`` is each
    path's weight for returning to the barrier after it stopped:
    e^{-theta (h - X_tau) + psi(theta) T} for a return at time T under the
    tilt (see ``_tilt``), 0 for a path that never stopped or did not return
    before the cut-off.  It is None in survival mode.
    """

    tau: np.ndarray
    discount: np.ndarray
    s_tau: np.ndarray
    x_tau: np.ndarray
    crossing: np.ndarray
    returned: np.ndarray | None
    horizon: float

    def payoffs(self, m: ModelParams, c: Contract) -> np.ndarray:
        """Per-path discounted put payoff at the stop, weighted by the
        survival factor min((h/S_tau)^alpha, 1), read from ``x_tau``, in
        survival mode, by ``returned`` in direct mode; paths the horizon cut
        pay nothing."""
        pay = self.discount * np.fmax(c.strike - self.s_tau, 0.0)
        if self.returned is None:
            rise = math.log(c.barrier / c.spot) - self.x_tau  # log(h/S_tau)
            return pay * np.exp(np.minimum(m.alpha * rise, 0.0))
        return pay * self.returned

    def value(self, m: ModelParams, c: Contract) -> McEstimate:
        """Mean of ``payoffs``; e^{-r horizon} K bounds the cut paths' pay."""
        return McEstimate.from_sample(self.payoffs(m, c), math.exp(-m.r * self.horizon) * c.strike)

    def passage_factors(self, m: ModelParams) -> tuple[McEstimate, McEstimate]:
        """E[e^{-r tau}] split into creep and jump crossings; paths the
        horizon cut count in neither, so the two means add up to the
        discounted passage factor."""
        bound = math.exp(-m.r * self.horizon)
        creep, jump = (
            McEstimate.from_sample(np.where(self.crossing == kind, self.discount, 0.0), bound)
            for kind in ("creep", "jump")
        )
        return creep, jump


@functools.lru_cache(maxsize=16)
def _round_keys(k0: int, k1: int) -> tuple[tuple[np.uint64, np.uint64], ...]:
    """The ten round keys of Philox4x32-10 under key words (k0, k1)."""
    return tuple(
        (np.uint64((k0 + i * _PHILOX_W0) & 0xFFFFFFFF), np.uint64((k1 + i * _PHILOX_W1) & 0xFFFFFFFF))
        for i in range(10)
    )


def _philox4x32(counter, key: tuple[int, int]):
    """Philox4x32-10 of four 32-bit counter words under two 32-bit key words.

    Counter words may be arrays; they broadcast together.  Returns the four
    output words as uint64 arrays holding 32-bit values.
    """
    c0, c1, c2, c3 = (np.asarray(w, dtype=np.uint64) for w in counter)
    for k0, k1 in _round_keys(*key):
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0, c1, c2, c3 = (p1 >> _SHIFT32) ^ c1 ^ k0, p1 & _LO32, (p0 >> _SHIFT32) ^ c3 ^ k1, p0 & _LO32
    return c0, c1, c2, c3


def _unit(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Uniforms strictly inside (0, 1) from two 32-bit words each: 52 bits,
    centred in their cell, so neither 0 nor 1 can occur."""
    return (((hi << np.uint64(20)) | (lo >> np.uint64(12))) + 0.5) * 2.0**-52


def _uniforms(
    seed: int, purposes: np.ndarray, event: int, n_events: int, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two uniform arrays shaped (purpose, path, event) from the counter
    purposes shaped (purpose, path): each counter's four words make two
    uniforms."""
    events = np.arange(event, event + n_events, dtype=np.uint64)
    w0, w1, w2, w3 = _philox4x32(
        (events, purposes[:, :, None], (ids & _LO32)[:, None], (ids >> _SHIFT32)[:, None]),
        (seed & 0xFFFFFFFF, seed >> 32),
    )
    return _unit(w0, w1), _unit(w2, w3)


def _bridge_touch(d1, d2, seg, sigma2: float):
    """Probability that a Brownian bridge over time ``seg`` touches a level
    it starts d1 > 0 away from and ends d2 away from (same sign: same side).
    An endpoint at or past the level gives 1."""
    return np.exp(np.minimum(-2.0 * d1 * d2 / (sigma2 * seg), 0.0))


def _crossing_time(
    d1: np.ndarray, d2: np.ndarray, seg: np.ndarray, z: np.ndarray, u: np.ndarray,
    sigma2: float,
) -> np.ndarray:
    """Time into a segment at which its bridge first touches the level.

    The bridge starts d1 > 0 from the level and ends d2 from it (negative:
    past it) after ``seg``; given that it touches, s = seg v/(1+v) with
    v ~ IG(d1/|d2|, d1^2/(sigma2 seg)), sampled by Michael, Schucany & Haas
    from the normal ``z`` and the uniform ``u``.  Written in theta = |d2|/d1
    so that d2 = 0 (the Levy limit) needs no special case.
    """
    theta = np.abs(d2) / d1
    p = z * z * sigma2 * seg / (2.0 * d1 * d1)
    w = theta + p + np.sqrt(p * (p + 2.0 * theta))  # 1/v for the smaller root
    return np.where(u * (w + theta) <= w, seg / (1.0 + w), seg * w / (w + theta * theta))


def _simulate(
    m: ModelParams, level, horizon, seed: int, ids: np.ndarray, purpose, drift=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate paths ``ids``, each started at x = 0, to its first passage.

    Path ``ids[i]`` drifts at ``drift[i]`` (by default m.mu) and stops at its
    first passage to or past ``level[i]``, down to a level below 0 and up to
    one above, or at ``horizon[i]``; a scalar serves all paths.  Every jump
    is down, so only a level below 0 can be jumped past; a passage up is a
    creep.  Returns per-path arrays (tau, x, crossing): tau is NaN and
    crossing "none" when the horizon comes first, and x is then the position
    there; a creep records x = level exactly, a jump its landing point, and
    with level -inf x samples X at the horizon.  Path i's normal, crossing
    and jump draws take counter purposes purpose[i] + (0, 1, 2), so two runs
    over the same paths on different purposes use independent numbers.
    """
    jumps = m.lam > 0.0
    draws = _DRAWS[: 3 if jumps else 2]
    sig = math.sqrt(m.sigma2)
    n = ids.size
    level, horizon, drift = (np.full(n, v) for v in (level, horizon, m.mu if drift is None else drift))
    purpose = np.full(n, purpose, dtype=np.uint64)
    tau = np.full(n, np.nan)
    x_stop = np.zeros(n)
    kind = np.zeros(n, dtype=np.int8)  # indexes _KINDS

    for first in range(0, n, _CAP):
        pos = np.arange(first, min(first + _CAP, n))
        t = np.zeros(pos.size)
        x = np.zeros(pos.size)
        event, grow = 0, _FIRST_EVENTS
        while pos.size:
            k = pos.size
            e = max(1, min(grow, _CAP // k)) if jumps else 1
            ua, ub = _uniforms(seed, purpose[pos] + draws, event, e, ids[pos])
            lv, hz, mu = level[pos][:, None], horizon[pos][:, None], drift[pos][:, None]
            radius = np.sqrt(-2.0 * np.log(ua[0]))
            angle = (2.0 * math.pi) * ub[0]
            normal = radius * np.cos(angle)
            if jumps:
                # Segment clocks and endpoints, accumulated in event order so
                # the values never depend on e.
                gap = -np.log(ua[2]) / m.lam
                clock = np.cumsum(np.concatenate((t[:, None], gap), axis=1), axis=1)
                t0 = clock[:, :-1]
                left = hz - t0
                fires = gap < left
                alive = np.logical_and.accumulate(
                    np.concatenate((np.ones((k, 1), dtype=bool), fires[:, :-1]), axis=1), axis=1
                )
                seg = np.where(alive, np.minimum(gap, left), np.nan)
                walk = np.empty((k, 2 * e + 1))
                walk[:, 0] = x
                walk[:, 1::2] = mu * seg + sig * np.sqrt(seg) * normal
                walk[:, 2::2] = np.log(ub[2]) / m.rho  # the (negative) jumps
                walk = np.cumsum(walk, axis=1)
                x0, x1, xj = walk[:, :-1:2], walk[:, 1::2], walk[:, 2::2]
            else:  # one segment per path, to its horizon
                t0, x0, seg = t[:, None], x[:, None], hz - t[:, None]
                x1 = x0 + (mu * seg + sig * np.sqrt(seg) * normal)

            # First passage: a creep inside a segment, else a jump below.
            # d1, d2 are distances to the level, positive on the start side.
            below = lv < 0.0
            side = np.where(below, 1.0, -1.0)
            d1, d2 = side * (x0 - lv), side * (x1 - lv)
            creep = ua[1] < _bridge_touch(d1, d2, seg, m.sigma2)
            if jumps:
                crossed = alive & (creep | (fires & below & (xj <= lv)))
                stops, ks = crossed.any(axis=1), crossed.argmax(axis=1)
                crept = stops & creep[np.arange(k), ks]
                tau[pos[stops]] = clock[stops, ks[stops] + 1]  # creeps are overwritten below
                x_stop[pos[stops]] = xj[stops, ks[stops]]
                kind[pos[stops]] = 2
                ended = alive & ~fires  # the segment ran to the horizon
                reached = ended.any(axis=1)
                lost = np.flatnonzero(~stops & reached)
            else:
                stops = crept = creep[:, 0]
                lost = np.flatnonzero(~stops)
            cr = np.flatnonzero(crept)
            if cr.size:
                at = (cr, ks[cr]) if jumps else (cr, 0)  # each creeping path's segment
                s = _crossing_time(
                    d1[at], d2[at], seg[at], radius[at] * np.sin(angle[at]), ub[1][at], m.sigma2
                )
                tau[pos[cr]] = t0[at] + s
                x_stop[pos[cr]] = lv[cr, 0]
                kind[pos[cr]] = 1
            if lost.size:
                x_stop[pos[lost]] = x1[lost, ended[lost].argmax(axis=1) if jumps else 0]
            if not jumps:
                break  # every path crept or reached its horizon

            keep = ~(stops | reached)
            pos, t, x = pos[keep], clock[keep, e], walk[keep, 2 * e]
            event += e
            grow *= 2
    return tau, x_stop, _KINDS[kind]


def _run_paths(
    m: ModelParams, level, horizon, cfg: McConfig, ids: np.ndarray, purpose, drift,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_simulate`` of paths ``ids`` (its per-path arguments each one, or one
    per path), in process or one pool worker per chunk of ``cfg.workers``."""
    step = max(1, -(-ids.size // cfg.workers))
    if step >= ids.size:
        return _simulate(m, level, horizon, int(cfg.seed), ids, purpose, drift)
    level, horizon, purpose, drift = (np.full(ids.size, v) for v in (level, horizon, purpose, drift))
    chunks = [
        (m, level[i : i + step], horizon[i : i + step], int(cfg.seed), ids[i : i + step],
         purpose[i : i + step], drift[i : i + step])
        for i in range(0, ids.size, step)
    ]
    # Imported here, so that a one-worker run does not load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(_simulate, *zip(*chunks)))
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _tilt(m: ModelParams) -> tuple[float, float, ModelParams]:
    """(theta, psi(theta), the law of X under P^theta) for the return run.

    Under the Esscher tilt P^theta with psi(theta) < 0 < psi'(theta) the
    process drifts up, so every stopped path returns, and the likelihood
    ratio e^{-theta l + psi(theta) T} of a return over l at time T has mean
    P(return) (Siegmund 1976; Asmussen & Albrecher 2010, ch. XV).  Every
    theta in (q/2, q), q = -alpha the positive root of psi, is such a tilt:
    g(t) = psi(t)/t = mu + sigma2 t/2 - lam/(t + rho) is increasing and
    concave on t > 0 and 0 at q, so psi < 0 on (0, q), and concavity gives
    psi'(q/2) = g(q/2) + (q/2) g'(q/2) >= g(q) = 0, so psi's minimum lies at
    or left of q/2.  theta is 3/4 of the way from that bound to q.

    The modes stay independent checks of each other: the weights read psi
    from (mu, sigma2, lam, rho), never from alpha; alpha only places theta
    inside the interval; and theta is never q itself, where each weight
    would be the survival factor.
    """
    theta = 0.875 * -m.alpha
    mu, lam, rho = m.mu + m.sigma2 * theta, m.lam * m.rho / (m.rho + theta), m.rho + theta
    return theta, laplace_exponent(m, theta), m._replace(mu=mu, lam=lam, rho=rho)


def simulate_paths(m: ModelParams, c: Contract, a: float, cfg: McConfig) -> PolicyPaths:
    """Run ``cfg``'s paths under the policy that stops at the first passage
    to or below ``a``, in ``cfg.mode``.

    Both modes stop the same paths at the same points.  Direct mode then
    runs each stopped path again, from the stop and under the tilt (see
    ``_tilt``), to its first passage up to the barrier, and weights its
    payoff by that return's likelihood ratio (exercise strictly before the
    last visit); survival mode leaves the weight to the closed form.
    """
    return simulate_stop_and_terminal(m, c, a, None, cfg)[0]


def estimate_value(m: ModelParams, c: Contract, a: float, cfg: McConfig) -> McEstimate:
    """Estimate the value of the stop-below-``a`` policy (see ``PolicyPaths.value``)."""
    return simulate_paths(m, c, a, cfg).value(m, c)


def estimate_discounted_terminal(
    m: ModelParams, c: Contract, t: float, cfg: McConfig
) -> McEstimate:
    """Mean of e^{-r t} S_t sampled from the exact transition law.

    Under the pinned drift this must reproduce the spot for every horizon;
    it exercises the drift, the jump compounding, and the streams.  The
    kernel runs with no threshold, so every path reports X_t.
    """
    return simulate_stop_and_terminal(m, c, None, t, cfg)[1]


def simulate_stop_and_terminal(
    m: ModelParams, c: Contract, a: float | None, t: float | None, cfg: McConfig
) -> tuple[PolicyPaths | None, McEstimate | None]:
    """``simulate_paths(m, c, a, cfg)`` and ``estimate_discounted_terminal(m,
    c, t, cfg)`` in one kernel pass, either None where its ``a`` or ``t`` is.
    The terminal paths are the stop paths' ids again, on the same counters,
    with level -inf and horizon ``t``, so each result is bit for bit what its
    own call gives.  Without jumps every stop is a creep onto log(a/s0), so
    direct mode's return, from there to log(h/s0) under the tilt, joins the
    same pass (each path's weight kept only where it stopped); with jumps it
    is a second pass over the stopped paths."""
    n = cfg.n_paths
    direct = a is not None and cfg.mode is McMode.DIRECT_LAST_PASSAGE
    groups = []  # (level, horizon, drift, first counter purpose) of each run of n paths
    if a is not None:
        if not (0.0 < a < min(c.strike, c.spot)):
            raise ConfigError(
                f"threshold must lie in (0, min(strike, spot)), got a={a} with strike={c.strike}, "
                f"spot={c.spot}" + (": the spot is at or below the threshold" if c.spot <= a else "")
            )
        if cfg.horizon < 10.0 / m.r:
            raise ConfigError(
                f"horizon {cfg.horizon} too short: need >= 10/r = {10.0 / m.r:g} "
                "so the truncation tail is negligible"
            )
        groups.append((math.log(a / c.spot), cfg.horizon, m.mu, _STOP))
    if t is not None and not (t > 0.0):
        raise ConfigError(f"sampling time must be positive, got t={t}")
    if direct:
        theta, psi, tilted = _tilt(m)
        cut_off = math.log(_RETURN_BIAS) / psi
        fused = m.lam == 0.0
        if fused:
            groups.append((math.log(c.barrier / c.spot) - groups[0][0], cut_off, tilted.mu, _RETURN))
    if t is not None:
        groups.append((-math.inf, t, m.mu, _STOP))
    level, horizon, drift, purpose = np.repeat(groups, n, axis=0).T
    ids = np.concatenate([np.arange(n, dtype=np.uint64)] * len(groups))
    tau, x, crossing = _run_paths(m, level, horizon, cfg, ids, purpose, drift)
    terminal = None if t is None else McEstimate.from_sample(math.exp(-m.r * t) * c.spot * np.exp(x[-n:]))
    if a is None:
        return None, terminal

    stopped = crossing[:n] != "none"
    returned = None
    if direct:
        rise = math.log(c.barrier / c.spot) - x[:n][stopped]
        if fused:
            back = tau[n : 2 * n][stopped]
        else:
            back = _run_paths(tilted, rise, cut_off, cfg, ids[:n][stopped], _RETURN, tilted.mu)[0]
        returned = np.zeros(n)
        returned[stopped] = np.exp(-theta * rise + psi * np.where(np.isnan(back), math.inf, back))
    tau, x, crossing = tau[:n], x[:n], crossing[:n]
    discount = np.exp(-m.r * np.where(np.isnan(tau), math.inf, tau))
    s_tau = np.where(crossing == "creep", a, c.spot * np.exp(x))
    s_tau = np.where(stopped, s_tau, np.nan)
    return PolicyPaths(tau, discount, s_tau, x, crossing, returned, cfg.horizon), terminal
