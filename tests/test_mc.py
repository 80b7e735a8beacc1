"""Monte Carlo engine: path generation, estimators, and reproducibility.

Every test here runs with a fixed seed, so the assertions are deterministic
replays, not flaky statistical coin flips.  Tolerances are 3-sigma bands
around values frozen from the closed form, with the small relative floors
the acceptance gate also uses.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from cancelput import mc
from cancelput.errors import ConfigError
from cancelput.mc import (
    McConfig,
    McMode,
    collect_traces,
    estimate_discounted_terminal,
    estimate_passage_factors,
    estimate_value,
    grid_search_threshold,
    simulate_to_threshold,
)
from cancelput.model import ModelParams, make_model
from cancelput.pricer import Contract

A_STAR_JUMPS = 63.18132384302513
VALUE_JUMPS = 18.989794468567634
CREEP_JUMPS = 0.09927709796458127
UNDER_JUMPS = 0.8493179387324855


def _cfg(**kw):
    base = dict(n_paths=400, horizon=200.0, seed=11)
    base.update(kw)
    return McConfig(**base)


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
    ],
)
def test_config_validation(kw):
    with pytest.raises(ConfigError):
        _cfg(**kw)


def test_estimator_preconditions(model_jumps, contract):
    cfg = _cfg()
    with pytest.raises(ConfigError):
        estimate_value(model_jumps, contract, 150.0, cfg)  # above strike and spot
    with pytest.raises(ConfigError):
        estimate_value(model_jumps, contract, -5.0, cfg)
    # horizon must cover ~10 discount half-lives: 10/r = 200 here
    with pytest.raises(ConfigError):
        estimate_value(model_jumps, contract, A_STAR_JUMPS, _cfg(horizon=100.0))


# ------------------------------------------------------------- single paths


def test_immediate_stop_when_threshold_above_spot(model_jumps, contract):
    tau, s_tau = simulate_to_threshold(model_jumps, contract, 115.0, _cfg(), 0)
    assert tau == 0.0 and s_tau == contract.spot


def test_single_path_is_reproducible(model_jumps, contract):
    cfg = _cfg()
    first = simulate_to_threshold(model_jumps, contract, A_STAR_JUMPS, cfg, 7)
    second = simulate_to_threshold(model_jumps, contract, A_STAR_JUMPS, cfg, 7)
    assert first == second
    other = simulate_to_threshold(model_jumps, contract, A_STAR_JUMPS, _cfg(seed=12), 7)
    assert first != other


def test_single_path_replays_its_trace(model_jumps, contract):
    # Counter-based streams: a path simulated alone is the same path as in a batch.
    cfg = _cfg(n_paths=200, seed=4)
    for t in collect_traces(model_jumps, contract, A_STAR_JUMPS, cfg):
        assert simulate_to_threshold(model_jumps, contract, A_STAR_JUMPS, cfg, t.path_index) == (
            t.tau, t.s_tau
        )


def test_deterministic_drift_crossing():
    # Shrink the volatility to almost nothing: the log-price is a straight
    # line with slope mu and the first passage time is log(s0/a)/|mu|.  The
    # exact crossing-time draw spreads it by about sigma sqrt(tau)/|mu|,
    # 1e-10 here, so it must land within 1e-9 relative.
    m = ModelParams(r=0.05, sigma2=1e-24, lam=0.0, rho=1.0, mu=-0.05, alpha=-0.5)
    c = Contract(strike=100.0, barrier=120.0, spot=110.0)
    expect = math.log(110.0 / 50.0) / 0.05
    for path in range(5):
        tau, s_tau = simulate_to_threshold(m, c, 50.0, _cfg(n_paths=100, seed=3), path)
        assert tau is not None and abs(tau - expect) <= 1e-9 * expect
        assert s_tau == 50.0  # diffusive touch is recorded exactly at the level


def test_trace_structure(model_jumps, contract):
    cfg = _cfg(seed=5)
    traces = collect_traces(model_jumps, contract, A_STAR_JUMPS, cfg)
    assert [t.path_index for t in traces] == list(range(cfg.n_paths))
    for t in traces:
        if t.crossing == "creep":
            assert t.s_tau == A_STAR_JUMPS  # continuous touch lands on the level
        elif t.crossing == "jump":
            assert t.s_tau is not None and t.s_tau < A_STAR_JUMPS
            assert t.tau is not None and t.tau > 0.0
        else:
            assert t.crossing == "none" and t.tau is None and t.s_tau is None
    # with lam=5 and a 200-year horizon effectively every path stops
    stopped = sum(1 for t in traces if t.tau is not None)
    assert stopped == cfg.n_paths


def test_undershoot_is_exponential(model_jumps, contract):
    # Memorylessness: the overshoot below the threshold at a jump crossing
    # is Exp(rho), so its mean is 1/rho = 0.5.
    cfg = _cfg(seed=5)
    traces = collect_traces(model_jumps, contract, A_STAR_JUMPS, cfg)
    unders = [
        math.log(A_STAR_JUMPS) - math.log(t.s_tau)
        for t in traces
        if t.crossing == "jump"
    ]
    assert len(unders) > 200
    se = float(np.std(unders, ddof=1)) / math.sqrt(len(unders))
    assert abs(float(np.mean(unders)) - 0.5) <= 3.0 * se


def test_undershoot_law_ks(model_jumps, contract):
    # The whole undershoot law, not only its mean: Kolmogorov-Smirnov
    # against Exp(rho) at the 0.1% level.
    traces = collect_traces(model_jumps, contract, A_STAR_JUMPS, _cfg(n_paths=20_000, seed=6))
    unders = [math.log(A_STAR_JUMPS / t.s_tau) for t in traces if t.crossing == "jump"]
    assert len(unders) > 15_000
    assert stats.kstest(unders, "expon", args=(0.0, 0.5)).pvalue > 1e-3


def test_first_passage_law_without_jumps(model_nojump, contract):
    # Without jumps every crossing time comes from the bridge's inverse
    # Gaussian draw; its law must match the Brownian first-passage CDF
    # P(tau <= t) = Phi((b - mu t)/(sigma sqrt t)) + e^{2 mu b / sigma^2} Phi((b + mu t)/(sigma sqrt t)).
    m, n = model_nojump, 20_000
    traces = collect_traces(m, contract, 50.0, _cfg(n_paths=n, seed=8))
    taus = np.array([t.tau if t.tau is not None else math.inf for t in traces])
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
    assert "no time grid" in est.discretization_note


def test_passage_factor_estimates(model_jumps, contract):
    cfg = McConfig(n_paths=2000, horizon=200.0, seed=11)
    creep, under = estimate_passage_factors(model_jumps, contract, A_STAR_JUMPS, cfg)
    assert abs(creep.mean - CREEP_JUMPS) <= 3.0 * creep.stderr + 0.01
    assert abs(under.mean - UNDER_JUMPS) <= 3.0 * under.stderr + 0.01


def test_no_jumps_means_no_undershoot(model_nojump, contract):
    cfg = _cfg(n_paths=200, seed=2)
    creep, under = estimate_passage_factors(model_nojump, contract, 50.0, cfg)
    assert under.mean == 0.0 and under.stderr == 0.0
    assert creep.mean > 0.0


def test_direct_mode_runs(model_jumps, contract):
    cfg = McConfig(n_paths=150, horizon=200.0, seed=4, mode=McMode.DIRECT_LAST_PASSAGE)
    est = estimate_value(model_jumps, contract, A_STAR_JUMPS, cfg)
    # crude band: direct mode at 150 paths is noisy but must be in the
    # right neighbourhood of the closed form
    assert abs(est.mean - VALUE_JUMPS) <= 4.0 * est.stderr + est.truncation_bound


def test_discounted_terminal_martingale(model_jumps, contract):
    # e^{-rt} E[S_t] = S_0 under the pricing measure.
    cfg = McConfig(n_paths=2000, horizon=200.0, seed=11)
    est = estimate_discounted_terminal(model_jumps, contract, 1.0, cfg)
    assert abs(est.mean - contract.spot) <= 3.0 * est.stderr
    assert est.truncation_bound == 0.0
    assert "exact" in est.discretization_note


# ----------------------------------------------------------- reproducibility


def test_estimates_bit_identical_across_workers(model_jumps, contract):
    cfg = _cfg(n_paths=200, seed=17)
    one = estimate_value(model_jumps, contract, A_STAR_JUMPS, cfg, workers=1)
    two = estimate_value(model_jumps, contract, A_STAR_JUMPS, cfg, workers=2)
    assert one.mean == two.mean
    assert one.stderr == two.stderr


def test_traces_bit_identical_across_workers(model_jumps, contract):
    cfg = _cfg(n_paths=200, seed=17)
    t1 = collect_traces(model_jumps, contract, A_STAR_JUMPS, cfg, workers=1)
    for workers in (2, 3):
        assert collect_traces(model_jumps, contract, A_STAR_JUMPS, cfg, workers=workers) == t1


@pytest.mark.parametrize("cap, first_events", [(64, 1), (7, 3), (1, 1)])
def test_traces_identical_across_event_blocks(model_jumps, contract, monkeypatch, cap, first_events):
    # A kernel step draws a block of events per path, sized by the number of
    # paths still active; the per-path results must not depend on it.
    cfg = _cfg(n_paths=300, seed=17)
    ref = collect_traces(model_jumps, contract, A_STAR_JUMPS, cfg)
    monkeypatch.setattr(mc, "_CAP", cap)
    monkeypatch.setattr(mc, "_FIRST_EVENTS", first_events)
    assert collect_traces(model_jumps, contract, A_STAR_JUMPS, cfg) == ref


def test_direct_mode_identical_across_event_blocks(model_jumps, contract, monkeypatch):
    cfg = _cfg(n_paths=100, seed=19, mode=McMode.DIRECT_LAST_PASSAGE)
    ref = estimate_value(model_jumps, contract, A_STAR_JUMPS, cfg)
    monkeypatch.setattr(mc, "_CAP", 64)
    monkeypatch.setattr(mc, "_FIRST_EVENTS", 1)
    assert estimate_value(model_jumps, contract, A_STAR_JUMPS, cfg) == ref


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
    cfg = _cfg()
    with pytest.raises(ConfigError):
        grid_search_threshold(model_jumps, contract, cfg, [])
    with pytest.raises(ConfigError):
        grid_search_threshold(model_jumps, contract, cfg, [50.0, 40.0])  # not increasing
    with pytest.raises(ConfigError):
        grid_search_threshold(model_jumps, contract, cfg, [50.0, 120.0])  # above strike


def test_grid_search_closed_form(model_jumps, contract):
    cfg = _cfg()
    grid = [float(x) for x in np.arange(10.0, 100.0, 10.0)]
    a_hat, vals = grid_search_threshold(model_jumps, contract, cfg, grid)
    assert a_hat == 60.0  # closest grid point to the true 63.18
    assert len(vals) == len(grid)
    assert vals[grid.index(a_hat)] == max(vals)


def test_grid_search_single_point(model_jumps, contract):
    a_hat, vals = grid_search_threshold(model_jumps, contract, _cfg(), [42.0])
    assert a_hat == 42.0 and len(vals) == 1


def test_grid_search_monte_carlo(model_jumps, contract):
    cfg = _cfg(n_paths=400, seed=9)
    grid = [40.0, A_STAR_JUMPS, 85.0]
    a_hat, vals = grid_search_threshold(model_jumps, contract, cfg, grid, use_mc=True)
    assert a_hat == A_STAR_JUMPS  # the true optimum wins even at 400 paths
    assert len(vals) == 3
