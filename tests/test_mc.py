"""Monte Carlo engine: path generation, estimators, and reproducibility.

Every test here runs with a fixed seed, so the assertions are deterministic
replays, not flaky statistical coin flips.  Tolerances are 3-sigma bands
around values frozen from the closed form, with the small relative floors
the acceptance gate also uses.
"""
from __future__ import annotations

import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from box import case, draws, mc_strategy
from cancelput import mc
from cancelput.errors import CancelPutError, ConfigError
from cancelput.mc import (
    McConfig,
    McEstimate,
    McMode,
    estimate_discounted_terminal,
    estimate_value,
    simulate_paths,
)
from cancelput.model import ModelParams, laplace_exponent, make_model
from cancelput.pricer import Contract, grid_search_threshold

A_STAR_NOJUMP = 50.0
VALUE_NOJUMP = 21.759706994462224
A_STAR_JUMPS = 63.18132384302513
VALUE_JUMPS = 18.989794468567634
CREEP_JUMPS = 0.09927709796458127
UNDER_JUMPS = 0.8493179387324855


def _cfg(**kw):
    base = dict(n_paths=400, horizon=200.0, seed=11)
    base.update(kw)
    return McConfig(**base)


def _same_paths(p, q) -> bool:
    """Two path records hold the same numbers bit for bit (NaN equal to NaN)."""
    return (
        np.array_equal(p.tau, q.tau, equal_nan=True)
        and np.array_equal(p.discount, q.discount)
        and np.array_equal(p.s_tau, q.s_tau, equal_nan=True)
        and np.array_equal(p.x_tau, q.x_tau)
        and np.array_equal(p.crossing, q.crossing)
        and (p.returned is None) == (q.returned is None)
        and (p.returned is None or np.array_equal(p.returned, q.returned))
        and p.horizon == q.horizon
    )


def _psi_prime(m, theta):
    """psi'(theta), the slope of the Laplace exponent, written out here."""
    out = m.mu + m.sigma2 * theta
    if m.lam > 0.0:
        out -= m.lam * m.rho / (theta + m.rho) ** 2
    return out


def _replay(m, c, a, cfg, path):
    """Path ``path`` of ``cfg`` stopped alone: (tau, x, crossing)."""
    return mc._simulate(
        m, np.array([math.log(a / c.spot)]), cfg.horizon, cfg.seed,
        np.array([path], dtype=np.uint64), mc._STOP,
    )


# ------------------------------------------------------------ configuration


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_paths=99),
        dict(n_paths=0),
        dict(horizon=-1.0),
        dict(horizon=math.inf),
        dict(horizon=math.nan),
        dict(horizon=0.0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(workers=0),
        dict(workers=-1),
        dict(workers=mc._MAX_WORKERS + 1),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ConfigError):
        _cfg(**kw)


@pytest.mark.parametrize("kw", [dict(n_paths=150.7), dict(seed=3.9), dict(workers=1.5),
                                dict(seed="3"), dict(n_paths=None)])
def test_config_counts_must_be_integers(kw):
    # A count that is not an integer is refused, not rounded or truncated.
    with pytest.raises(ConfigError, match=f"{next(iter(kw))} must be an integer"):
        _cfg(**kw)
    # numpy integers stay accepted
    assert _cfg(n_paths=np.int64(400), seed=np.uint64(3), workers=np.int32(2)).n_paths == 400


def test_estimator_preconditions(model_jumps, contract):
    cfg = _cfg()
    with pytest.raises(ConfigError):
        estimate_value(model_jumps, contract, 150.0, cfg)  # above strike and spot
    with pytest.raises(ConfigError):
        estimate_value(model_jumps, contract, -5.0, cfg)
    # horizon must cover ~10 discount half-lives: 10/r = 200 here
    with pytest.raises(ConfigError):
        estimate_value(model_jumps, contract, A_STAR_JUMPS, _cfg(horizon=100.0))
    for t in (0.0, -1.0):
        with pytest.raises(ConfigError, match="sampling time must be positive"):
            estimate_discounted_terminal(model_jumps, contract, t, cfg)


# ------------------------------------------------------------- single paths


def test_single_path_is_reproducible(model_jumps, contract):
    cfg = _cfg()
    first = _replay(model_jumps, contract, A_STAR_JUMPS, cfg, 7)
    second = _replay(model_jumps, contract, A_STAR_JUMPS, cfg, 7)
    assert [a.tolist() for a in first] == [b.tolist() for b in second]
    other = _replay(model_jumps, contract, A_STAR_JUMPS, _cfg(seed=12), 7)
    assert first[0][0] != other[0][0]


def test_single_path_replays_its_trace(model_jumps, contract):
    # Counter-based streams: a path simulated alone is the same path as in a batch.
    cfg = _cfg(n_paths=200, seed=4)
    batch = simulate_paths(model_jumps, contract, A_STAR_JUMPS, cfg)
    for i in range(cfg.n_paths):
        tau, x, crossing = _replay(model_jumps, contract, A_STAR_JUMPS, cfg, i)
        assert crossing[0] == batch.crossing[i]
        assert np.array_equal(tau, batch.tau[i : i + 1], equal_nan=True)
        if crossing[0] == "jump":
            assert contract.spot * np.exp(x[0]) == batch.s_tau[i]


def test_deterministic_drift_crossing():
    # Shrink the volatility to almost nothing: the log-price is a straight
    # line with slope mu and the first passage time is log(s0/a)/|mu|.  The
    # exact crossing-time draw spreads it by about sigma sqrt(tau)/|mu|,
    # 1e-10 here, so it must land within 1e-9 relative.
    m = ModelParams(r=0.05, sigma2=1e-24, lam=0.0, rho=1.0, mu=-0.05, alpha=-0.5)
    c = Contract(strike=100.0, barrier=120.0, spot=110.0)
    expect = math.log(110.0 / 50.0) / 0.05
    paths = simulate_paths(m, c, 50.0, _cfg(n_paths=100, seed=3))
    assert np.all(paths.crossing == "creep")
    assert np.all(np.abs(paths.tau - expect) <= 1e-9 * expect)
    assert np.all(paths.s_tau == 50.0)  # diffusive touch is recorded exactly at the level


def test_trace_structure(model_jumps, contract):
    cfg = _cfg(seed=5)
    paths = simulate_paths(model_jumps, contract, A_STAR_JUMPS, cfg)
    assert paths.tau.shape == paths.s_tau.shape == paths.crossing.shape == (cfg.n_paths,)
    assert paths.returned is None and paths.horizon == cfg.horizon
    assert set(paths.crossing.tolist()) <= {"none", "creep", "jump"}
    creep, jump = paths.crossing == "creep", paths.crossing == "jump"
    assert np.all(paths.s_tau[creep] == A_STAR_JUMPS)  # continuous touch lands on the level
    assert np.all(paths.s_tau[jump] < A_STAR_JUMPS) and np.all(paths.tau[jump] > 0.0)
    none = paths.crossing == "none"
    assert np.all(np.isnan(paths.tau[none])) and np.all(np.isnan(paths.s_tau[none]))
    # with lam=5 and a 200-year horizon effectively every path stops
    assert not none.any()


def test_undershoot_is_exponential(model_jumps, contract):
    # Memorylessness: the overshoot below the threshold at a jump crossing
    # is Exp(rho), so its mean is 1/rho = 0.5.
    paths = simulate_paths(model_jumps, contract, A_STAR_JUMPS, _cfg(seed=5))
    unders = np.log(A_STAR_JUMPS / paths.s_tau[paths.crossing == "jump"])
    assert len(unders) > 200
    se = float(np.std(unders, ddof=1)) / math.sqrt(len(unders))
    assert abs(float(np.mean(unders)) - 0.5) <= 3.0 * se


def test_undershoot_law_ks(model_jumps, contract):
    # The whole undershoot law, not only its mean: Kolmogorov-Smirnov
    # against Exp(rho) at the 0.1% level.
    paths = simulate_paths(model_jumps, contract, A_STAR_JUMPS, _cfg(n_paths=20_000, seed=6))
    unders = np.log(A_STAR_JUMPS / paths.s_tau[paths.crossing == "jump"])
    assert len(unders) > 15_000
    assert stats.kstest(unders, "expon", args=(0.0, 0.5)).pvalue > 1e-3


def test_first_passage_law_without_jumps(model_nojump, contract):
    # Without jumps every crossing time comes from the bridge's inverse
    # Gaussian draw; its law must match the Brownian first-passage CDF
    # P(tau <= t) = Phi((b - mu t)/(sigma sqrt t)) + e^{2 mu b / sigma^2} Phi((b + mu t)/(sigma sqrt t)).
    m, n = model_nojump, 20_000
    taus = np.nan_to_num(simulate_paths(m, contract, 50.0, _cfg(n_paths=n, seed=8)).tau, nan=math.inf)
    b, sig = math.log(50.0 / contract.spot), math.sqrt(m.sigma2)
    for t in (1.0, 5.0, 20.0):
        p = stats.norm.cdf((b - m.mu * t) / (sig * math.sqrt(t))) + math.exp(
            2.0 * m.mu * b / m.sigma2
        ) * stats.norm.cdf((b + m.mu * t) / (sig * math.sqrt(t)))
        assert abs(float(np.mean(taus <= t)) - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


# --------------------------------------------------------------- estimators


def test_survival_estimate_brackets_closed_form(model_jumps, contract):
    cfg = McConfig(n_paths=2000, horizon=200.0, seed=11)
    est = estimate_value(model_jumps, contract, A_STAR_JUMPS, cfg)
    assert est.n_paths == 2000
    band = 3.0 * est.stderr + 0.015 * VALUE_JUMPS + est.truncation_bound
    assert abs(est.mean - VALUE_JUMPS) <= band
    assert est.truncation_bound == pytest.approx(math.exp(-0.05 * 200.0) * 100.0)
    # The record carries numbers only; the run's settings stay with its McConfig.
    assert [f.name for f in dataclasses.fields(est)] == [
        "mean", "stderr", "n_paths", "truncation_bound"
    ]


def test_passage_factor_estimates(model_jumps, contract):
    cfg = McConfig(n_paths=2000, horizon=200.0, seed=11)
    creep, under = simulate_paths(model_jumps, contract, A_STAR_JUMPS, cfg).passage_factors(
        model_jumps
    )
    assert abs(creep.mean - CREEP_JUMPS) <= 3.0 * creep.stderr + 0.01
    assert abs(under.mean - UNDER_JUMPS) <= 3.0 * under.stderr + 0.01


def test_no_jumps_means_no_undershoot(model_nojump, contract):
    cfg = _cfg(n_paths=200, seed=2)
    creep, under = simulate_paths(model_nojump, contract, 50.0, cfg).passage_factors(model_nojump)
    assert under.mean == 0.0 and under.stderr == 0.0
    assert creep.mean > 0.0


def test_direct_mode_runs(model_jumps, contract):
    cfg = McConfig(n_paths=150, horizon=200.0, seed=4, mode=McMode.DIRECT_LAST_PASSAGE)
    est = estimate_value(model_jumps, contract, A_STAR_JUMPS, cfg)
    # crude band: direct mode at 150 paths is noisy but must be in the
    # right neighbourhood of the closed form
    assert abs(est.mean - VALUE_JUMPS) <= 4.0 * est.stderr + est.truncation_bound


def test_direct_mode_counts_returns_after_the_horizon(model_nojump, contract):
    # The return run has its own cut-off, far past the policy's horizon, so
    # a path that returns after that horizon still counts.  Paying such
    # returns nothing left the estimate 0.9% low, about 4.7 standard errors
    # at this size.  Each weight is a likelihood ratio below 1.
    cfg = McConfig(n_paths=200_000, horizon=200.0, seed=5, mode=McMode.DIRECT_LAST_PASSAGE)
    est = estimate_value(model_nojump, contract, A_STAR_NOJUMP, cfg)
    assert abs(est.mean - VALUE_NOJUMP) <= 3.0 * est.stderr + est.truncation_bound
    paths = simulate_paths(model_nojump, contract, A_STAR_NOJUMP, _cfg(seed=5, mode=cfg.mode))
    assert np.all((paths.returned >= 0.0) & (paths.returned <= 1.0))
    assert np.any((paths.returned > 0.0) & (paths.returned < 1.0))


def test_discounted_terminal_martingale(model_jumps, contract):
    # e^{-rt} E[S_t] = S_0 under the pricing measure.
    cfg = McConfig(n_paths=2000, horizon=200.0, seed=11)
    est = estimate_discounted_terminal(model_jumps, contract, 1.0, cfg)
    assert abs(est.mean - contract.spot) <= 3.0 * est.stderr
    assert est.truncation_bound == 0.0
    assert est.n_paths == 2000


def test_standard_error_of_a_sample_below_1e_154_is_its_scaled_one():
    # The squared deviations of so small a sample underflow; its standard
    # error is read from the sample scaled by a power of two, exactly.
    vals = np.random.default_rng(3).random(400)
    small = McEstimate.from_sample(np.ldexp(vals, -1000))
    assert small.stderr == math.ldexp(McEstimate.from_sample(vals).stderr, -1000) > 0.0
    assert McEstimate.from_sample(np.zeros(400)).stderr == 0.0


@pytest.mark.parametrize("which", ["model_nojump", "model_jumps"])
def test_paths_with_their_own_horizons_are_those_run_apart(which, request, contract):
    # A per-path horizon, as a per-path level: paths with different levels
    # and horizons in one run are bit for bit those run apart by horizon.
    m = request.getfixturevalue(which)
    ids = np.arange(60, dtype=np.uint64)
    level = np.where(ids % 2 == 0, math.log(A_STAR_JUMPS / contract.spot), -math.inf)
    horizon = np.array([200.0, 1.0, 0.25])[ids % 3]
    together = mc._simulate(m, level, horizon, 5, ids, mc._STOP)
    for h in (200.0, 1.0, 0.25):
        part = horizon == h
        tau, x, crossing = mc._simulate(m, level[part], h, 5, ids[part], mc._STOP)
        assert np.array_equal(together[0][part], tau, equal_nan=True)
        assert np.array_equal(together[1][part], x)
        assert np.array_equal(together[2][part], crossing)


def test_stop_and_terminal_paths_in_one_pass_are_those_of_separate_calls(model_jumps, contract):
    cfg = _cfg(n_paths=300, seed=29, mode=McMode.DIRECT_LAST_PASSAGE)
    paths, term = mc.simulate_stop_and_terminal(model_jumps, contract, A_STAR_JUMPS, 1.0, cfg)
    assert _same_paths(paths, simulate_paths(model_jumps, contract, A_STAR_JUMPS, cfg))
    assert term == estimate_discounted_terminal(model_jumps, contract, 1.0, cfg)


# ----------------------------------------------------------- reproducibility


def test_estimates_bit_identical_across_workers(model_jumps, contract):
    cfg = _cfg(n_paths=200, seed=17, workers=1)
    one = estimate_value(model_jumps, contract, A_STAR_JUMPS, cfg)
    two = estimate_value(model_jumps, contract, A_STAR_JUMPS, dataclasses.replace(cfg, workers=2))
    assert one.mean == two.mean
    assert one.stderr == two.stderr


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool.sizes


def test_pool_never_exceeds_the_chunk_count(model_jumps, contract, recording_pool):
    # 100 paths over 64 workers make 50 chunks of two paths: 50 processes, not 64.
    cfg = _cfg(n_paths=100, seed=17)
    many = simulate_paths(
        model_jumps, contract, A_STAR_JUMPS, dataclasses.replace(cfg, workers=mc._MAX_WORKERS)
    )
    assert recording_pool == [50]
    assert _same_paths(many, simulate_paths(model_jumps, contract, A_STAR_JUMPS, cfg))


def test_fused_diffusion_pass_is_the_same_in_chunks(model_nojump, contract, recording_pool):
    # Without jumps the stop, return and terminal paths share one pass of 300;
    # 7 chunks of up to 43 cut across those groups, and each slice keeps its
    # paths' levels, horizons, drifts and counter purposes.
    cfg = _cfg(n_paths=100, seed=23, mode=McMode.DIRECT_LAST_PASSAGE)
    one = mc.simulate_stop_and_terminal(model_nojump, contract, A_STAR_NOJUMP, 1.0, cfg)
    many = mc.simulate_stop_and_terminal(
        model_nojump, contract, A_STAR_NOJUMP, 1.0, dataclasses.replace(cfg, workers=7)
    )
    assert recording_pool == [7]
    assert _same_paths(many[0], one[0]) and many[1] == one[1]


def test_traces_bit_identical_across_workers(model_jumps, contract):
    for mode in McMode:
        cfg = _cfg(n_paths=200, seed=17, mode=mode)
        one = simulate_paths(model_jumps, contract, A_STAR_JUMPS, cfg)
        for workers in (2, 3):
            many = simulate_paths(
                model_jumps, contract, A_STAR_JUMPS, dataclasses.replace(cfg, workers=workers)
            )
            assert _same_paths(many, one)


@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(draw=mc_strategy(), n_paths=st.integers(100, 400), seed=st.integers(0, 2**64 - 1))
def test_paths_bit_identical_across_workers_over_the_box(draw, n_paths, seed):
    # The spot at min(1.3 a*, h); sets that do not price (an upward drift)
    # are not drawn.
    params, barrier_ratio = draw
    try:
        m, _b, c, a = case(params, barrier_ratio)
    except CancelPutError:
        assume(False)
    c = c._replace(spot=min(1.3 * a, c.barrier))
    cfg = McConfig(n_paths=n_paths, horizon=max(200.0, 10.0 / m.r), seed=seed)
    one = simulate_paths(m, c, a, cfg)
    assert _same_paths(simulate_paths(m, c, a, dataclasses.replace(cfg, workers=2)), one)


@pytest.mark.parametrize("cap, first_events", [(64, 1), (7, 3), (1, 1)])
def test_traces_identical_across_event_blocks(model_jumps, contract, monkeypatch, cap, first_events):
    # A kernel step draws a block of events per path, sized by the number of
    # paths still active; the per-path results must not depend on it.
    cfg = _cfg(n_paths=300, seed=17)
    ref = simulate_paths(model_jumps, contract, A_STAR_JUMPS, cfg)
    monkeypatch.setattr(mc, "_CAP", cap)
    monkeypatch.setattr(mc, "_FIRST_EVENTS", first_events)
    assert _same_paths(simulate_paths(model_jumps, contract, A_STAR_JUMPS, cfg), ref)


@pytest.mark.parametrize("cap, first_events", [(64, 1), (7, 3), (1, 1)])
def test_direct_mode_identical_across_event_blocks(
    model_jumps, contract, monkeypatch, cap, first_events
):
    # Also pins the early finish to jump epochs: a step-end test would move
    # with the block size.
    cfg = _cfg(n_paths=100, seed=19, mode=McMode.DIRECT_LAST_PASSAGE)
    ref = simulate_paths(model_jumps, contract, A_STAR_JUMPS, cfg)
    monkeypatch.setattr(mc, "_CAP", cap)
    monkeypatch.setattr(mc, "_FIRST_EVENTS", first_events)
    assert _same_paths(simulate_paths(model_jumps, contract, A_STAR_JUMPS, cfg), ref)


# ------------------------------------------------------------ direct mode


@pytest.mark.parametrize("which", ["model_nojump", "model_jumps"])
def test_direct_mode_stops_where_survival_mode_does(which, request, contract):
    # Direct mode runs the stop as survival mode does, on the same counter
    # purposes, and only then runs the return.
    m = request.getfixturevalue(which)
    a = A_STAR_JUMPS if m.lam > 0.0 else A_STAR_NOJUMP
    cfg = _cfg(n_paths=300, seed=19)
    survival = simulate_paths(m, contract, a, cfg)
    direct = simulate_paths(m, contract, a, dataclasses.replace(cfg, mode=McMode.DIRECT_LAST_PASSAGE))
    assert direct.returned is not None
    assert _same_paths(dataclasses.replace(direct, returned=None), survival)


@pytest.mark.parametrize("which, a", [("model_nojump", 0.01), ("model_jumps", A_STAR_JUMPS)])
def test_direct_weights_are_bounded_likelihood_ratios(which, a, request, contract):
    # A return at time T weighs e^{-theta l + psi(theta) T} with psi(theta) < 0,
    # so at most e^{-theta l} for the rise l = h - X_tau; a path that never
    # stopped has nothing to return from and weighs 0.  At a = 0.01 the
    # diffusion leaves some paths at the horizon.
    m = request.getfixturevalue(which)
    theta = mc._tilt(m)[0]
    paths = simulate_paths(m, contract, a, _cfg(n_paths=300, seed=23, mode=McMode.DIRECT_LAST_PASSAGE))
    stopped = paths.crossing != "none"
    rise = math.log(contract.barrier / contract.spot) - np.log(paths.s_tau[stopped] / contract.spot)
    weight = paths.returned[stopped]
    assert np.all((weight >= 0.0) & (weight <= np.exp(-theta * rise) * (1.0 + 1e-12)))
    assert np.all(weight > 0.0)  # every stopped path came back before the cut-off
    assert np.all(paths.returned[~stopped] == 0.0)
    assert stopped.any() and (m.lam > 0.0 or not stopped.all())


@pytest.mark.parametrize("which", ["model_nojump", "model_jumps"])
def test_single_path_replays_both_phases(which, request, contract):
    # The return runs on its own counter purposes, in the stop's pass without
    # jumps and in a second pass over the stopped paths with them; either
    # way each path's return replays alone, under the tilted law.
    m = request.getfixturevalue(which)
    a = A_STAR_JUMPS if m.lam > 0.0 else A_STAR_NOJUMP
    cfg = _cfg(n_paths=100, seed=4, mode=McMode.DIRECT_LAST_PASSAGE)
    batch = simulate_paths(m, contract, a, cfg)
    theta, psi, tilted = mc._tilt(m)
    cut_off = math.log(mc._RETURN_BIAS) / psi
    for i in range(cfg.n_paths):
        tau, x, crossing = _replay(m, contract, a, cfg, i)
        assert np.array_equal(tau, batch.tau[i : i + 1], equal_nan=True)
        if crossing[0] == "none":
            assert batch.returned[i] == 0.0
            continue
        rise = math.log(contract.barrier / contract.spot) - x
        back, _x, _kind = mc._simulate(
            tilted, rise, cut_off, cfg.seed, np.array([i], dtype=np.uint64), mc._RETURN
        )
        weight = np.exp(-theta * rise + psi * np.nan_to_num(back, nan=math.inf))
        assert weight[0] == batch.returned[i] > 0.0


MODELS_FOR_THE_TILT = [
    make_model(r=0.05, sigma2=0.2, lam=0.0, rho=1.0),
    make_model(r=0.05, sigma2=0.2, lam=5.0, rho=2.0),
    make_model(r=0.01, sigma2=0.04, lam=0.0, rho=1.0),
    make_model(r=0.2, sigma2=1.5, lam=0.3, rho=0.5),
    make_model(r=0.03, sigma2=0.05, lam=20.0, rho=10.0),
    make_model(r=0.05, sigma2=0.2, lam=1e-6, rho=2.0),
]


@pytest.mark.parametrize("m", MODELS_FOR_THE_TILT)
def test_tilt_makes_the_return_sure_and_the_weight_small(m):
    # psi(theta) < 0 makes every weight less than e^{-theta l}; psi'(theta) > 0
    # makes the tilted process drift up, so every path returns.  theta is not
    # the root -alpha, at which each weight would be the survival factor.
    theta, psi, tilted = mc._tilt(m)
    assert psi == laplace_exponent(m, theta)
    assert psi < 0.0 < _psi_prime(m, theta)
    assert theta != -m.alpha and 0.0 < theta < -m.alpha
    # The tilted law's slope at 0 is psi'(theta): it drifts up.
    assert _psi_prime(tilted, 0.0) == pytest.approx(_psi_prime(m, theta), rel=1e-12)


def test_tilt_is_seven_eighths_of_the_root_across_the_box():
    # Every model the domain box's first 2,000 draws build: theta = 7q/8,
    # q = -alpha, lies in (q/2, q), where psi(t)/t is concave and rising, so
    # psi(theta) < 0 < psi'(theta) with no search.
    built = 0
    for params, _barrier_ratio, _spot_ratio in draws():
        try:
            m = make_model(*params)
        except CancelPutError:
            continue
        built += 1
        q = -m.alpha
        theta, psi, _tilted = mc._tilt(m)
        assert q / 2.0 < theta < q and theta == 0.875 * q, params
        assert psi < 0.0 < _psi_prime(m, theta), params
    assert built == 1186
    # Without jumps q/2 is psi's minimum itself; on the paper set q = 1/2.
    assert mc._tilt(make_model(r=0.05, sigma2=0.2, lam=0.0, rho=1.0))[0] == 0.4375


def test_direct_mode_draws_bounded_events(model_jumps, contract, monkeypatch):
    # Work, counted rather than timed: path-events drawn per path.  Direct
    # mode drew 645 per path when it followed every stopped path to the
    # horizon, and about 27 now that the tilted return ends at the barrier;
    # survival mode's count is pinned exactly.
    drawn = []
    uniforms = mc._uniforms

    def counting(seed, purposes, event, n_events, ids):
        drawn.append(ids.size * n_events)
        return uniforms(seed, purposes, event, n_events, ids)

    monkeypatch.setattr(mc, "_uniforms", counting)

    def drawn_per_path(mode):
        drawn.clear()
        simulate_paths(model_jumps, contract, A_STAR_JUMPS, _cfg(n_paths=100, seed=19, mode=mode))
        return sum(drawn) / 100

    assert drawn_per_path(McMode.DIRECT_LAST_PASSAGE) <= 50.0
    assert drawn_per_path(McMode.SURVIVAL_WEIGHTED) == 12.64


@pytest.mark.parametrize(
    "counter, key, expect",
    [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ],
)
def test_philox_known_answers(counter, key, expect):
    # Known-answer vectors of Philox4x32-10 from the Random123 distribution.
    assert tuple(int(w) for w in mc._philox4x32(counter, key)) == expect


def test_uniforms_strictly_inside_unit_interval():
    words = np.array([0, 1, 0xFFFFFFFE, 0xFFFFFFFF], dtype=np.uint64)
    u = mc._unit(words[:, None], words[None, :])
    assert u.min() > 0.0 and u.max() < 1.0


def test_seed_matters(model_jumps, contract):
    a = estimate_value(model_jumps, contract, A_STAR_JUMPS, _cfg(n_paths=200, seed=1))
    b = estimate_value(model_jumps, contract, A_STAR_JUMPS, _cfg(n_paths=200, seed=2))
    assert a.mean != b.mean


# ---------------------------------------------------------------- threshold


def test_grid_search_validation(model_jumps, contract):
    for cfg in (None, _cfg()):
        with pytest.raises(ConfigError):
            grid_search_threshold(model_jumps, contract, [], cfg)
        with pytest.raises(ConfigError):
            grid_search_threshold(model_jumps, contract, [50.0, 40.0], cfg)  # not increasing
        with pytest.raises(ConfigError):
            grid_search_threshold(model_jumps, contract, [50.0, 120.0], cfg)  # above strike
        with pytest.raises(ConfigError, match="inside"):
            grid_search_threshold(model_jumps, contract, [50.0, math.nan, 60.0], cfg)
        with pytest.raises(ConfigError, match="inside"):  # the range error outranks the order error
            grid_search_threshold(model_jumps, contract, [50.0, 40.0, 120.0], cfg)


def test_simulated_grid_must_lie_below_the_spot(model_jumps, monkeypatch):
    # Refused before the first grid point is simulated, not after.
    calls = []
    monkeypatch.setattr(mc, "_run_paths", lambda *args: calls.append(args))
    below_strike = Contract(strike=100.0, barrier=120.0, spot=90.0)
    with pytest.raises(ConfigError, match="below the spot"):
        grid_search_threshold(model_jumps, below_strike, [50.0, 70.0, 90.0], _cfg())
    assert calls == []


def test_grid_search_closed_form(model_jumps, contract):
    grid = [float(x) for x in np.arange(10.0, 100.0, 10.0)]
    a_hat, vals = grid_search_threshold(model_jumps, contract, grid)
    assert a_hat == 60.0  # closest grid point to the true 63.18
    assert len(vals) == len(grid)
    assert vals[grid.index(a_hat)] == max(vals)


def test_grid_search_single_point(model_jumps, contract):
    a_hat, vals = grid_search_threshold(model_jumps, contract, [42.0])
    assert a_hat == 42.0 and len(vals) == 1


def test_grid_search_monte_carlo(model_jumps, contract):
    cfg = _cfg(n_paths=400, seed=9)
    grid = [40.0, A_STAR_JUMPS, 85.0]
    a_hat, vals = grid_search_threshold(model_jumps, contract, grid, cfg)
    assert a_hat == A_STAR_JUMPS  # the true optimum wins even at 400 paths
    assert len(vals) == 3
