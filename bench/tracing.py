"""Traced run: spans around calls into the program, and per-layer metrics.

Spans are recorded from the benchmark's own files, around each public
function it calls (name, start, end, parent); nothing inside the program
is instrumented.  After the workload's rounds, ``probe_layers`` calls each
layer's public functions on the workload's own inputs and reports the
median cost per call.  A layer whose function no longer exists is
reported as absent (value -1) and the run goes on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
import subprocess
import sys
import time

import workload as wl_mod

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("import.cancelput_s", "s"),
    ("import.scipy_s", "s"),
    ("cli.parser_build_us", "us"),
    ("cli.price_cmd_us", "us"),
    ("model.make_model_us", "us"),
    ("scale.basis_for_us", "us"),
    ("pricer.optimal_threshold_us", "us"),
    ("pricer.price_us", "us"),
    ("pricer.value_at_threshold_us", "us"),
    ("pricer.generator_apply_us", "us"),
    ("pricer.h_function_us", "us"),
    ("diagnostics.analytic_suite_ms", "ms"),
    ("mc.survival_path_us", "us"),
    ("mc.trace_overhead_us", "us"),
    ("mc.direct_path_ms", "ms"),
    ("mc.terminal_path_us", "us"),
    ("diagnostics.mc_suite_s", "s"),
    ("mc.paths", "count"),
    ("mc.creep_paths", "count"),
    ("mc.jump_paths", "count"),
    ("mc.truncated_paths", "count"),
    ("mc.stopped_ratio", "ratio"),
    ("pricer.numerics_warnings", "count"),
)
ABSENT = -1.0

IMPORT_REPEATS = 3
CALL_REPEATS = 20
PROBE_PATHS = 100
PROBE_REPEATS = 4
DIRECT_PATHS = 100
TERMINAL_PATHS = 1000
_UNIT_SECONDS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def write(self, path: str, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "spans": self.spans}, fh)


def import_layers(src: str, root: str) -> dict[str, float]:
    """import.cancelput_s and import.scipy_s from ``-X importtime`` in fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {src!r}); import cancelput"
    whole, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=root, capture_output=True, text=True, timeout=120)
        proc.check_returncode()
        total_us = 0
        scipy_nodes = []  # (depth, cumulative us) of each scipy module imported
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth, name = len(name) - len(name.lstrip()), name.strip()
            if name == "cancelput":
                total_us = int(parts[1])
            if name == "scipy" or name.startswith("scipy."):
                scipy_nodes.append((depth, int(parts[1])))
        # scipy's cost as cancelput pays it: the outermost scipy imports.
        top = min((d for d, _ in scipy_nodes), default=0)
        whole.append(total_us / 1e6)
        scipy.append(sum(us for d, us in scipy_nodes if d == top) / 1e6)
    return {"import.cancelput_s": statistics.median(whole),
            "import.scipy_s": statistics.median(scipy)}


class _Probe:
    """Times layer functions under spans; collects per-call costs by metric."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.costs: dict[str, list[float]] = {}
        self.absent: list[str] = []

    def call(self, metric: str, fn, *args, per: int = 1):
        """Call ``fn(*args)`` under a span; record seconds per ``per`` items."""
        with self.tr.span(metric) as rec:
            out = fn(*args)
        self.costs.setdefault(metric, []).append((rec["end_ns"] - rec["start_ns"]) / 1e9 / per)
        return out

    def missing(self, metric: str, *objs) -> bool:
        if any(o is None for o in objs):
            self.absent.append(metric)
            return True
        return False


def _mc_config(mc, n_paths: int, seed: int, direct: bool = False):
    """An McConfig with the CLI's defaults, passing only fields it still has."""
    names = {f.name for f in dataclasses.fields(mc.McConfig)}
    kw = {"n_paths": n_paths, "seed": seed}
    for key, val in (("dt", 1e-3), ("horizon", 200.0)):
        if key in names:
            kw[key] = val
    if direct:
        kw["mode"] = mc.McMode.DIRECT_LAST_PASSAGE
    return mc.McConfig(**kw)


def probe_layers(w: "wl_mod.Workload", tracer: Tracer, seed: int) -> tuple[dict, list[str]]:
    """Per-layer costs on the workload's inputs; returns (metrics, absent layers)."""
    import cancelput
    from cancelput import cli, diagnostics, mc, pricer

    pr = _Probe(tracer)
    with tracer.span("probe"):
        build_parser = getattr(cli, "_build_parser", None)
        if not pr.missing("cli.parser_build_us", build_parser):
            for _ in range(CALL_REPEATS):
                pr.call("cli.parser_build_us", build_parser)
        for p in w.heavy:
            argv = ["price", *p.flags(), "--spot", repr(p.spots[1])]
            for _ in range(CALL_REPEATS // 4):
                pr.call("cli.price_cmd_us", wl_mod._cli_main, cli, argv)
        _probe_closed_form(pr, w, cancelput, pricer)
        suite = getattr(diagnostics, "analytic_suite", None)
        if not pr.missing("diagnostics.analytic_suite_ms", suite):
            for p in w.heavy:
                m = cancelput.make_model(p.r, p.sigma2, p.lam, p.rho)
                pr.call("diagnostics.analytic_suite_ms", suite, m,
                        cancelput.Contract(p.strike, p.barrier, p.spots[1]))
        counts = _probe_mc(pr, w, cancelput, mc, diagnostics, seed % 2**32)

    metrics = {}
    for name, unit in PER_LAYER:
        if name in pr.costs:
            metrics[name] = statistics.median(pr.costs[name]) / _UNIT_SECONDS[unit]
        elif name in counts:
            metrics[name] = counts[name]
    walk, traced = pr.costs.get("mc.survival_path_us"), pr.costs.get("mc.collect_traces")
    if walk and traced:
        metrics["mc.trace_overhead_us"] = statistics.median(
            t - w for t, w in zip(traced, walk)) / _UNIT_SECONDS["us"]
    return metrics, sorted(set(pr.absent))


def _probe_closed_form(pr: _Probe, w, cancelput, pricer) -> None:
    """model, scale and pricer layers over the first sets of the pool."""
    fns = {n: getattr(pricer, n, None) for n in (
        "optimal_threshold", "price", "value_at_threshold", "generator_apply", "h_function",
        "g_payoff")}
    for p in w.pool[:2 * wl_mod.HEAVY_SETS]:
        for _ in range(CALL_REPEATS // 4):
            m = pr.call("model.make_model_us", cancelput.make_model, p.r, p.sigma2, p.lam, p.rho)
            b = pr.call("scale.basis_for_us", cancelput.basis_for, m)
        cons = [cancelput.Contract(p.strike, p.barrier, s) for s in p.spots]
        a = p.ref.a_star
        if not pr.missing("pricer.optimal_threshold_us", fns["optimal_threshold"]):
            a = pr.call("pricer.optimal_threshold_us", fns["optimal_threshold"], b, m, cons[1])
        if not pr.missing("pricer.price_us", fns["price"]):
            for c in cons:
                pr.call("pricer.price_us", fns["price"], b, m, c)
        if not pr.missing("pricer.value_at_threshold_us", fns["value_at_threshold"]):
            for c in cons[1:]:
                pr.call("pricer.value_at_threshold_us", fns["value_at_threshold"],
                        b, m, c, c.spot, a)
        if not pr.missing("pricer.h_function_us", fns["h_function"]):
            pr.call("pricer.h_function_us", fns["h_function"], m, cons[0], p.spots[0])
        g_payoff = fns["g_payoff"]
        if not pr.missing("pricer.generator_apply_us", fns["generator_apply"], g_payoff):
            pr.call("pricer.generator_apply_us", fns["generator_apply"], m,
                    lambda u, m=m, c=cons[0]: g_payoff(m, c, u), p.spots[0])


def _probe_mc(pr: _Probe, w, cancelput, mc, diagnostics, seed: int) -> dict[str, float]:
    """MC layers on the workload's reference set; returns the path counts."""
    p = w.paper
    m = cancelput.make_model(p["r"], p["sigma2"], p["lam"], p["rho"])
    c = cancelput.Contract(p["strike"], p["barrier"], wl_mod.reference.PAPER_SPOT)
    a = w.paper_ref.a_star
    config = getattr(mc, "McConfig", None)
    counts: dict[str, float] = {}

    # The walk and collect_traces run in turn on the same paths, so that the
    # median of their paired differences is what collect_traces adds per path.
    walk = getattr(mc, "simulate_to_threshold", None)
    collect = getattr(mc, "collect_traces", None)
    walk_missing = pr.missing("mc.survival_path_us", config, walk)
    collect_missing = pr.missing("mc.trace_overhead_us", config, collect)
    traces = []
    for k in range(PROBE_REPEATS):
        cfg = None if config is None else _mc_config(mc, PROBE_PATHS, seed + k)
        for first in ((k % 2 == 0), (k % 2 == 1)):  # alternate which one goes first
            if first and not walk_missing:
                pr.call("mc.survival_path_us",
                        lambda: [walk(m, c, a, cfg, i) for i in range(PROBE_PATHS)],
                        per=PROBE_PATHS)
            if not first and not collect_missing:
                traces += pr.call("mc.collect_traces", collect, m, c, a, cfg, per=PROBE_PATHS)
    if collect_missing:
        pr.absent.extend(n for n, unit in PER_LAYER if unit in ("count", "ratio")
                         and n.startswith("mc."))
    else:
        stopped = sum(1 for t in traces if t.tau is not None)
        counts = {
            "mc.paths": float(len(traces)),
            "mc.creep_paths": float(sum(1 for t in traces if t.crossing == "creep")),
            "mc.jump_paths": float(sum(1 for t in traces if t.crossing == "jump")),
            "mc.truncated_paths": float(len(traces) - stopped),
            "mc.stopped_ratio": stopped / len(traces),
        }

    estimate = getattr(mc, "estimate_value", None)
    if not pr.missing("mc.direct_path_ms", config, estimate, getattr(mc, "McMode", None)):
        cfg = _mc_config(mc, DIRECT_PATHS, seed, direct=True)
        pr.call("mc.direct_path_ms", estimate, m, c, a, cfg, per=DIRECT_PATHS)
    terminal = getattr(mc, "estimate_discounted_terminal", None)
    if not pr.missing("mc.terminal_path_us", config, terminal):
        cfg = _mc_config(mc, TERMINAL_PATHS, seed)
        pr.call("mc.terminal_path_us", terminal, m, c, 1.0, cfg, per=TERMINAL_PATHS)
    suite = getattr(diagnostics, "mc_suite", None)
    if not pr.missing("diagnostics.mc_suite_s", config, suite):
        cfg = _mc_config(mc, wl_mod.VALIDATE_PATHS, seed)
        pr.call("diagnostics.mc_suite_s", suite, m, c, cfg)
    return counts
