"""Monte Carlo oracle for threshold stopping policies.

Paths are simulated exactly in log space, one jump epoch at a time, with
no time grid (Metwally & Atiya 2002).  Jump gaps and sizes are
exponential; each Brownian segment between jumps draws its endpoint, then
whether its bridge crept through the threshold, then when.  One kernel
serves every estimator, moving all active paths of a chunk forward a
block of jump epochs per numpy step.

Randomness is counter-based: every random word is Philox4x32-10 (Salmon
et al., SC'11) of the counter (event, purpose, path) under the 64-bit seed
as key.  A path's numbers therefore do not depend on chunking, the worker
count, or how many events one step draws, and any path replays alone.
Estimates are reduced from full per-path arrays with numpy's pairwise
summation, so they are bit-identical for any worker count.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import ModelParams
from .pricer import Contract

#: Path-events per kernel step; bounds every temporary array.
_CAP = 1 << 12
#: Events drawn per path in a chunk's first step; doubles every step.
_FIRST_EVENTS = 16
#: Most worker processes one run may ask for; more is a ConfigError.
_MAX_WORKERS = 64
#: Direct mode finishes a stopped path at the first jump that lands where
#: its exact return probability e^{alpha (h - x)} is below this (0: never).
_RETURN_EPS = 1e-9

# Counter purposes: each yields two uniforms per (event, path).
_P_NORMAL, _P_CROSS, _P_JUMP, _P_RETURN = 0, 1, 2, 3

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
        so the figures do not depend on how the paths were chunked)."""
        return cls(
            mean=float(np.mean(vals)),
            stderr=float(np.std(vals, ddof=1) / math.sqrt(vals.size)),
            n_paths=int(vals.size),
            truncation_bound=truncation_bound,
        )


@dataclass(frozen=True)
class PolicyPaths:
    """Per-path outcome of one kernel run of the stop-below-``a`` policy.

    ``tau`` and ``s_tau`` are NaN where the horizon came first, and
    ``crossing`` holds "none", "creep" or "jump".  In direct mode
    ``returned`` is each path's weight for returning to the barrier after
    it stopped: 1 when the simulation saw the return, else the exact return
    probability from where the simulation left the path, either at the
    first jump that took that probability below ``_RETURN_EPS`` or at the
    horizon (0 for a path that never stopped); it is None in survival mode.
    """

    tau: np.ndarray
    s_tau: np.ndarray
    crossing: np.ndarray
    returned: np.ndarray | None
    horizon: float

    def value(self, m: ModelParams, c: Contract) -> McEstimate:
        """Discounted put payoff at the stop, weighted by the survival factor
        min((h/S_tau)^alpha, 1) in survival mode, by ``returned`` in direct
        mode; paths the horizon cut pay nothing."""
        discount = np.exp(-m.r * np.nan_to_num(self.tau, nan=math.inf))
        s_tau = np.nan_to_num(self.s_tau, nan=c.strike)
        pay = discount * np.maximum(c.strike - s_tau, 0.0)
        if self.returned is None:
            pay = pay * np.minimum((c.barrier / s_tau) ** m.alpha, 1.0)
        else:
            pay = pay * self.returned
        return McEstimate.from_sample(pay, math.exp(-m.r * self.horizon) * c.strike)

    def passage_factors(self, m: ModelParams) -> tuple[McEstimate, McEstimate]:
        """E[e^{-r tau}] split into creep and jump crossings; paths the
        horizon cut count in neither, so the two means add up to the
        discounted passage factor."""
        discount = np.exp(-m.r * np.nan_to_num(self.tau, nan=math.inf))
        bound = math.exp(-m.r * self.horizon)
        creep, jump = (
            McEstimate.from_sample(np.where(self.crossing == kind, discount, 0.0), bound)
            for kind in ("creep", "jump")
        )
        return creep, jump


def _philox4x32(counter, key: tuple[int, int]):
    """Philox4x32-10 of four 32-bit counter words under two 32-bit key words.

    Counter words may be arrays; they broadcast together.  Returns the four
    output words as uint64 arrays holding 32-bit values.
    """
    c0, c1, c2, c3 = (np.asarray(w, dtype=np.uint64) for w in counter)
    k0, k1 = key
    for _ in range(10):
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0, c1, c2, c3 = (
            (p1 >> _SHIFT32) ^ c1 ^ np.uint64(k0),
            p1 & _LO32,
            (p0 >> _SHIFT32) ^ c3 ^ np.uint64(k1),
            p0 & _LO32,
        )
        k0 = (k0 + _PHILOX_W0) & 0xFFFFFFFF
        k1 = (k1 + _PHILOX_W1) & 0xFFFFFFFF
    return c0, c1, c2, c3


def _unit(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Uniforms strictly inside (0, 1) from two 32-bit words each: 52 bits,
    centred in their cell, so neither 0 nor 1 can occur."""
    return (((hi << np.uint64(20)) | (lo >> np.uint64(12))) + 0.5) * 2.0**-52


def _uniforms(
    seed: int, purposes: list[int], event: int, n_events: int, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two uniform arrays shaped (purpose, path, event): each counter's four
    words make two uniforms."""
    events = np.arange(event, event + n_events, dtype=np.uint64)
    w0, w1, w2, w3 = _philox4x32(
        (
            events[None, None, :],
            np.array(purposes, dtype=np.uint64)[:, None, None],
            (ids & _LO32)[None, :, None],
            (ids >> _SHIFT32)[None, :, None],
        ),
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
    """Time into a segment at which its bridge first touches the threshold.

    The bridge starts d1 > 0 above the threshold and ends d2 from it (either
    side) after ``seg``; given that it touches, s = seg v/(1+v) with
    v ~ IG(d1/|d2|, d1^2/(sigma2 seg)), sampled by Michael, Schucany & Haas
    from the normal ``z`` and the uniform ``u``.  Written in theta = |d2|/d1
    so that d2 = 0 (the Levy limit) needs no special case.
    """
    theta = np.abs(d2) / d1
    p = z * z * sigma2 * seg / (2.0 * d1 * d1)
    w = theta + p + np.sqrt(p * (p + 2.0 * theta))  # 1/v for the smaller root
    return np.where(u * (w + theta) <= w, seg / (1.0 + w), seg * w / (w + theta * theta))


def _simulate(
    m: ModelParams, b: float, h: float, horizon: float, seed: int,
    lo: int, hi: int, direct: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate paths [lo, hi), each started at x = 0, to their stopping time.

    A path stops at its first passage to or below ``b`` (b < 0), or at
    ``horizon``.  Returns per-path arrays (tau, x, crossing, hit): tau is
    NaN and crossing "none" when the horizon comes first, and x is then the
    position at the horizon; a creep records x = b exactly, a jump its
    landing point.  With ``direct`` each stopped path goes on until it
    returns to ``h`` or above (hit 1), a jump lands it at X with
    e^{alpha (h - X)} < _RETURN_EPS, or the horizon comes.  In the last two
    cases hit is the exact probability of a later return from where the
    path is, min(e^{alpha (h - X)}, 1): without upward jumps the process
    reaches h from X with that probability (strong Markov property).  The
    early finish is decided jump by jump, so it does not depend on how many
    events a step draws.  With b = -inf no path stops and x samples
    X_horizon.
    """
    jumps = m.lam > 0.0
    purposes = [_P_NORMAL, _P_CROSS] + [_P_JUMP] * jumps + [_P_RETURN] * direct
    slot = {p: i for i, p in enumerate(purposes)}
    sig = math.sqrt(m.sigma2)
    n = hi - lo
    # A stopped path landing below ``floor`` returns with probability < eps.
    floor = h - math.log(_RETURN_EPS) / m.alpha if _RETURN_EPS > 0.0 else -math.inf
    tau = np.full(n, np.nan)
    x_stop = np.zeros(n)
    crossing = np.full(n, "none", dtype="<U5")
    hit = np.zeros(n)

    for first in range(lo, hi, _CAP):
        ids = np.arange(first, min(first + _CAP, hi), dtype=np.uint64)
        t = np.zeros(ids.size)
        x = np.zeros(ids.size)
        after = np.zeros(ids.size, dtype=bool)  # stopped; watching for h (direct)
        event, grow = 0, _FIRST_EVENTS
        while ids.size:
            k = ids.size
            e = max(1, min(grow, _CAP // k)) if jumps else 1  # no jump: one segment
            ua, ub = _uniforms(seed, purposes, event, e, ids)
            pos = (ids - np.uint64(lo)).astype(np.intp)

            # Segment clocks and endpoints, accumulated in event order so the
            # values never depend on e.
            if jumps:
                gap = -np.log(ua[slot[_P_JUMP]]) / m.lam
                shift = np.log(ub[slot[_P_JUMP]]) / m.rho  # the (negative) jump
            else:
                gap = np.full((k, e), np.inf)
                shift = np.zeros((k, e))
            clock = np.cumsum(np.concatenate((t[:, None], gap), axis=1), axis=1)
            t0 = clock[:, :-1]
            left = horizon - t0
            fires = gap < left
            alive = np.logical_and.accumulate(
                np.concatenate((np.ones((k, 1), dtype=bool), fires[:, :-1]), axis=1), axis=1
            )
            seg = np.where(alive, np.minimum(gap, left), np.nan)
            radius = np.sqrt(-2.0 * np.log(ua[slot[_P_NORMAL]]))
            angle = (2.0 * math.pi) * ub[slot[_P_NORMAL]]
            walk = np.empty((k, 2 * e + 1))
            walk[:, 0] = x
            walk[:, 1::2] = m.mu * seg + sig * np.sqrt(seg) * (radius * np.cos(angle))
            walk[:, 2::2] = shift
            walk = np.cumsum(walk, axis=1)
            x0, x1, xj = walk[:, :-1:2], walk[:, 1::2], walk[:, 2::2]
            ended = alive & ~fires  # the segment ran to the horizon
            reached = ended.any(axis=1)

            # First passage to b: a creep inside a segment, else a jump below.
            d1, d2 = x0 - b, x1 - b
            creep = ua[slot[_P_CROSS]] < _bridge_touch(d1, d2, seg, m.sigma2)
            crossed = alive & (creep | (fires & (xj <= b))) & ~after[:, None]
            stops = crossed.any(axis=1)
            ks = crossed.argmax(axis=1)
            cr = np.flatnonzero(stops & creep[np.arange(k), ks])
            kc = ks[cr]
            s = _crossing_time(
                d1[cr, kc], d2[cr, kc], seg[cr, kc],
                radius[cr, kc] * np.sin(angle[cr, kc]), ub[slot[_P_CROSS]][cr, kc],
                m.sigma2,
            )
            tau[pos[stops]] = clock[stops, ks[stops] + 1]
            x_stop[pos[stops]] = xj[stops, ks[stops]]
            crossing[pos[stops]] = "jump"
            tau[pos[cr]] = t0[cr, kc] + s
            x_stop[pos[cr]] = b
            crossing[pos[cr]] = "creep"
            lost = ~stops & ~after & reached
            x_stop[pos[lost]] = x1[lost, ended[lost].argmax(axis=1)]

            if direct:
                # Return to h after the stop: the rest of a crept segment is a
                # bridge from b to its endpoint; later segments are whole.
                # Every jump from the stop on, the stopping one included, may
                # sink the path below the floor.  A segment's return comes
                # before the jump that ends it; the first event decides.
                watch = after | stops
                start = np.where(after, -1, ks)[:, None]
                epoch = np.arange(e)
                back = ua[slot[_P_RETURN]] < _bridge_touch(h - x0, h - x1, seg, m.sigma2)
                back &= alive & (epoch > start) & watch[:, None]
                with np.errstate(divide="ignore", invalid="ignore"):  # s may round to seg
                    p_rest = _bridge_touch(h - b, h - x1[cr, kc], seg[cr, kc] - s, m.sigma2)
                back[cr, kc] = ua[slot[_P_RETURN]][cr, kc] < p_rest
                happened = np.empty((k, 2 * e), dtype=bool)  # return, then jump
                happened[:, 0::2] = back
                happened[:, 1::2] = alive & fires & (epoch >= start) & (xj < floor)
                happened &= watch[:, None]
                first = happened.argmax(axis=1)
                decided = happened.any(axis=1)
                hit[pos[decided & (first % 2 == 0)]] = 1.0
                sunk = np.flatnonzero(decided & (first % 2 == 1))
                hit[pos[sunk]] = np.exp(m.alpha * (h - xj[sunk, first[sunk] // 2]))
                pending = watch & ~decided & reached
                x_end = x1[pending, ended[pending].argmax(axis=1)]
                hit[pos[pending]] = np.minimum(np.exp(m.alpha * (h - x_end)), 1.0)
                done = lost | (watch & (decided | reached))
                after = watch
            else:
                done = stops | lost

            keep = ~done
            ids, after = ids[keep], after[keep]
            t, x = clock[keep, e], walk[keep, 2 * e]
            event += e
            grow *= 2
    return tau, x_stop, crossing, hit


def _chunk_bounds(n: int, workers: int) -> list[tuple[int, int]]:
    step = -(-n // workers)
    return [(first, min(first + step, n)) for first in range(0, n, step)]


def _run_paths(
    m: ModelParams, b: float, h: float, horizon: float, cfg: McConfig, direct: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_simulate`` over ``cfg``'s paths, in process or one pool worker per chunk."""
    chunks = [
        (m, b, h, horizon, int(cfg.seed), first, last, direct)
        for first, last in _chunk_bounds(cfg.n_paths, cfg.workers)
    ]
    if len(chunks) == 1:
        parts = [_simulate(*chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_simulate, *zip(*chunks)))
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def simulate_paths(m: ModelParams, c: Contract, a: float, cfg: McConfig) -> PolicyPaths:
    """Run ``cfg``'s paths under the policy that stops at the first passage
    to or below ``a``, in ``cfg.mode``.

    Direct mode simulates each stopped path on, to weight its payoff by
    whether it returns to the barrier (exercise strictly before the last
    visit); survival mode stops there and leaves the weight to the closed
    form.
    """
    if not (0.0 < a < min(c.strike, c.spot)):
        raise ConfigError(
            f"threshold must lie in (0, min(strike, spot)), got a={a}"
        )
    if cfg.horizon < 10.0 / m.r:
        raise ConfigError(
            f"horizon {cfg.horizon} too short: need >= 10/r = {10.0 / m.r:g} "
            "so the truncation tail is negligible"
        )
    direct = cfg.mode is McMode.DIRECT_LAST_PASSAGE
    tau, x, crossing, hit = _run_paths(
        m, math.log(a / c.spot), math.log(c.barrier / c.spot), cfg.horizon, cfg, direct
    )
    s_tau = np.where(crossing == "creep", a, c.spot * np.exp(x))
    return PolicyPaths(
        tau=tau,
        s_tau=np.where(crossing == "none", np.nan, s_tau),
        crossing=crossing,
        returned=hit if direct else None,
        horizon=cfg.horizon,
    )


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
    if not (t > 0.0):
        raise ConfigError(f"sampling time must be positive, got t={t}")
    _tau, x, _crossing, _hit = _run_paths(m, -math.inf, math.inf, t, cfg, False)
    return McEstimate.from_sample(math.exp(-m.r * t) * c.spot * np.exp(x))
