"""The benchmark's two workloads and the operations they issue.

A workload is one model case of the paper's numerical section:
``diffusion`` (Black-Scholes, lambda = 0) or ``jumps`` (exponential
downward shocks, lambda > 0).  Each runs every operation family a user
has, so every end-to-end metric is measured on both:

* library quotes (make_model + basis_for + price) over a seeded pool;
* ``threshold --grid-step`` grids, ``curve`` sweeps and
  ``validate --suite analytic`` through ``cancelput.cli.main``;
* ``simulate`` and ``validate --suite mc`` through ``cancelput.cli.main``
  on the paper's reference set for the case, each with a fresh seed;
* cold ``python -m cancelput price|threshold`` processes.

The loop is closed: one caller issues the next operation when the
previous one returns.  A run repeats whole rounds of the same operations
until ``seconds`` have passed, so every run attempts the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import inputs
import reference

#: Pool sizes: quotes run over every set, the heavier in-process operations
#: over the first HEAVY_SETS of them.  Quote costs differ between parameter
#: sets, so the quote pool is large enough that its mix varies little
#: from seed to seed.
POOL_SETS = 128
HEAVY_SETS = SLOTS = 8
QUOTE_PASSES = 2

#: Grids are searched from the spot above the barrier, so that every grid
#: point is priced in full; curves span [a*/2, 4 a*], so that the same
#: share of points (1/7) falls in the exercise region for every set.
GRID_MIN, GRID_MAX, GRID_STEP = 1.0, 99.0, 0.1
GRID_POINTS = 981
CURVE_POINTS = 400

#: Paths per ``simulate`` call and per ``validate --suite mc`` call.
SIM_PATHS = {"diffusion": 1500, "jumps": 4000}
VALIDATE_PATHS = 400
#: Paths of the ``simulate --workers 1`` / ``--workers 2`` identity check.
IDENTITY_PATHS = 300

WORKLOADS = ("diffusion", "jumps")


@dataclass
class Tally:
    """Timings and outcomes collected over one run."""

    setup_s: list[float] = field(default_factory=list)
    quote_ns: dict[int, list[int]] = field(default_factory=dict)  # by pool input
    grid_s: list[float] = field(default_factory=list)
    curve_s: list[float] = field(default_factory=list)
    analytic_s: list[float] = field(default_factory=list)
    sim_paths: int = 0
    sim_s: float = 0.0
    validate_s: list[float] = field(default_factory=list)
    cold_s: list[float] = field(default_factory=list)
    mc_verdicts_failed: int = 0
    mc_verdicts_total: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        every_quote = [t for times in self.quote_ns.values() for t in times]
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "quote_mean_us": (statistics.fmean(
                statistics.median(times) for times in self.quote_ns.values()) / 1e3, "us"),
            "quote_p90_us": (statistics.quantiles(every_quote, n=10)[-1] / 1e3, "us"),
            "grid_points_per_s": (GRID_POINTS / statistics.median(self.grid_s), "points/s"),
            "curve_points_per_s": (CURVE_POINTS / statistics.median(self.curve_s), "points/s"),
            "analytic_p50_ms": (statistics.median(self.analytic_s) * 1e3, "ms"),
            "mc_paths_per_s": (self.sim_paths / self.sim_s, "paths/s"),
            "mc_validate_p50_s": (statistics.median(self.validate_s), "s"),
            "cli_call_p50_s": (statistics.median(self.cold_s), "s"),
        }


class _NoSpan:
    def span(self, name):
        return contextlib.nullcontext()


def _cli_main(cancelput_cli, argv: list[str]) -> tuple[int, str, float]:
    """Run ``cli.main`` in-process; returns (exit code, stdout, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = cancelput_cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - t0
    return code, buf.getvalue(), elapsed


class Workload:
    """One model case: its inputs, references, and round of operations."""

    def __init__(self, name: str, seed: int, root: str, out_dir: str, tracer=None):
        import cancelput
        from cancelput import cli

        self.name = name
        self.jumps = name == "jumps"
        self.root = root
        self.out_dir = out_dir
        self.cp = cancelput
        self.cli = cli
        self.tr = tracer or _NoSpan()
        self.traced = tracer is not None
        self.pool = inputs.make_pool(seed, self.jumps, POOL_SETS)
        self.heavy = self.pool[:HEAVY_SETS]
        self.paper = reference.PAPER_JUMPS if self.jumps else reference.PAPER_DIFFUSION
        self.paper_ref = reference.Reference(**self.paper)
        self.mc_seeds = random.Random(f"mc:{seed}")
        self.tally = Tally()
        self.pooled = checks.PooledPaths(self.paper_ref, reference.PAPER_SPOT)
        self._cold_cursor = 0
        tag = f"{name}-{os.getpid()}"
        self.curve_path = os.path.join(out_dir, f"{tag}-curve.csv")
        self.sim_path = os.path.join(out_dir, f"{tag}-simulate.csv")

        # References for every output the run checks, computed before timing.
        self.inputs = [(p, s, p.ref.quote(s)) for p in self.pool for s in p.spots]
        self.curve_refs = []
        for p in self.heavy:
            smin, smax = p.ref.a_star / 2.0, 4.0 * p.ref.a_star
            grid = [smin + (smax - smin) * i / (CURVE_POINTS - 1) for i in range(CURVE_POINTS)]
            self.curve_refs.append(
                (grid, [p.ref.payoff(s) for s in grid], [p.ref.value(s) for s in grid])
            )

    # -- bookkeeping ---------------------------------------------------

    def _outcome(self, ok: bool, errors: list[str]) -> None:
        self.tally.attempted += 1
        if not ok:
            self.tally.failed += 1
        self.tally.errors.extend(errors)

    def _paper_flags(self) -> list[str]:
        p = self.paper
        return [
            "--r", repr(p["r"]), "--sigma2", repr(p["sigma2"]),
            "--lambda", repr(p["lam"]), "--rho", repr(p["rho"]),
            "--strike", repr(p["strike"]), "--barrier", repr(p["barrier"]),
            "--spot", repr(reference.PAPER_SPOT),
        ]

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    # -- operations ----------------------------------------------------

    def fresh_import(self) -> None:
        """The program's set-up: ``import cancelput`` timed in a fresh interpreter."""
        code = "import time; t0 = time.perf_counter(); import cancelput; print(time.perf_counter() - t0)"
        with self.tr.span("op.fresh_import"):
            proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self._env(),
                                  capture_output=True, text=True, timeout=120)
        ok = proc.returncode == 0
        if ok:
            self.tally.setup_s.append(float(proc.stdout.split()[-1]))
        self._outcome(ok, [] if ok else [f"fresh import: exit {proc.returncode}"])

    def quotes(self, slot: int) -> None:
        """Quote this slot's share of the pool's (set, spot) inputs: one pass
        to warm caches the long operations evicted, then QUOTE_PASSES timed."""
        cp = self.cp
        share = len(self.inputs) // SLOTS
        for key in range(slot * share, (slot + 1) * share):
            p, s, _want = self.inputs[key]
            m = cp.make_model(p.r, p.sigma2, p.lam, p.rho)
            cp.price(cp.basis_for(m), m, cp.Contract(p.strike, p.barrier, s))
        for _ in range(QUOTE_PASSES):
            for key in range(slot * share, (slot + 1) * share):
                p, s, want = self.inputs[key]
                if self.traced:
                    with self.tr.span("op.quote"):
                        t0 = time.perf_counter_ns()
                        with self.tr.span("model.make_model"):
                            m = cp.make_model(p.r, p.sigma2, p.lam, p.rho)
                        with self.tr.span("scale.basis_for"):
                            b = cp.basis_for(m)
                        with self.tr.span("pricer.price"):
                            rep = cp.price(b, m, cp.Contract(p.strike, p.barrier, s))
                        elapsed = time.perf_counter_ns() - t0
                else:
                    t0 = time.perf_counter_ns()
                    m = cp.make_model(p.r, p.sigma2, p.lam, p.rho)
                    rep = cp.price(cp.basis_for(m), m, cp.Contract(p.strike, p.barrier, s))
                    elapsed = time.perf_counter_ns() - t0
                self.tally.quote_ns.setdefault(key, []).append(elapsed)
                got = {
                    "a_star": rep.a_star, "value": rep.value,
                    "creeping_factor": rep.creeping_factor,
                    "undershoot_factor": rep.undershoot_factor,
                    "region": rep.region.value,
                }
                self._outcome(True, checks.quote(f"quote s={s!r}", got, want))

    def _in_process(self, kind: str, argv: list[str]) -> tuple[int, str, float]:
        with self.tr.span(f"op.{kind}"):
            with self.tr.span("cli.main"):
                return _cli_main(self.cli, argv)

    def grid(self, slot: int) -> None:
        p = self.heavy[slot]
        argv = ["threshold", *p.flags(), "--spot", repr(p.spots[2]),
                "--grid-min", repr(GRID_MIN), "--grid-max", repr(GRID_MAX),
                "--grid-step", repr(GRID_STEP)]
        code, out, dt = self._in_process("grid", argv)
        self.tally.grid_s.append(dt)
        ok = code == 0
        errors = (checks.grid_json("threshold grid", out, p.ref.a_star, GRID_STEP, GRID_POINTS)
                  if ok else [f"threshold grid: exit {code}"])
        self._outcome(ok, errors)

    def curve(self, slot: int) -> None:
        p, (grid, pays, vals) = self.heavy[slot], self.curve_refs[slot]
        argv = ["curve", *p.flags(), "--spot", repr(p.spots[1]),
                "--smin", repr(grid[0]), "--smax", repr(grid[-1]),
                "--points", str(CURVE_POINTS), "--out", self.curve_path]
        code, _out, dt = self._in_process("curve", argv)
        self.tally.curve_s.append(dt)
        ok = code == 0
        if ok:
            with open(self.curve_path, encoding="utf-8") as fh:
                errors = checks.curve_csv("curve", fh.read(), grid, pays, vals, p.ref.a_star)
        else:
            errors = [f"curve: exit {code}"]
        self._outcome(ok, errors)

    def analytic(self, slot: int) -> None:
        p = self.heavy[slot]
        argv = ["validate", *p.flags(), "--spot", repr(p.spots[1]), "--suite", "analytic"]
        code, out, dt = self._in_process("analytic", argv)
        self.tally.analytic_s.append(dt)
        self._outcome(code in (0, 1), checks.analytic_report("validate analytic", code, out))

    def simulate(self) -> None:
        n = SIM_PATHS[self.name]
        argv = ["simulate", *self._paper_flags(), "--paths", str(n),
                "--seed", str(self.mc_seeds.getrandbits(32)), "--workers", "1",
                "--out", self.sim_path]
        code, _out, dt = self._in_process("simulate", argv)
        self.tally.sim_paths += n
        self.tally.sim_s += dt
        ok = code == 0
        if ok:
            with open(self.sim_path, encoding="utf-8") as fh:
                errors = self.pooled.add_csv("simulate", fh.read(), n)
        else:
            errors = [f"simulate: exit {code}"]
        self._outcome(ok, errors)

    def validate_mc(self) -> None:
        argv = ["validate", *self._paper_flags(), "--suite", "mc",
                "--paths", str(VALIDATE_PATHS),
                "--seed", str(self.mc_seeds.getrandbits(32)), "--workers", "1"]
        code, out, dt = self._in_process("validate_mc", argv)
        self.tally.validate_s.append(dt)
        verdicts, errors = checks.mc_report("validate mc", code, out)
        self.tally.mc_verdicts_failed += len(verdicts.failed)
        self.tally.mc_verdicts_total += len(verdicts.passed) + len(verdicts.failed)
        self._outcome(code in (0, 1), errors)

    def _cold(self, argv: list[str]) -> tuple[int, str]:
        env = self._env()
        with self.tr.span("op.cold_call"):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "cancelput", *argv],
                cwd=self.root, env=env, capture_output=True, text=True, timeout=120,
            )
            self.tally.cold_s.append(time.perf_counter() - t0)
        return proc.returncode, proc.stdout

    def cold_price(self) -> None:
        p, spot, want = self.inputs[self._cold_cursor % len(self.inputs)]
        code, out = self._cold(["price", *p.flags(), "--spot", repr(spot)])
        self._outcome(code == 0, checks.quote("cold price", json.loads(out), want)
                      if code == 0 else [f"cold price: exit {code}"])

    def cold_threshold(self) -> None:
        p, spot, _want = self.inputs[self._cold_cursor % len(self.inputs)]
        self._cold_cursor += 1
        code, out = self._cold(["threshold", *p.flags(), "--spot", repr(spot)])
        self._outcome(code == 0, checks.threshold_json("cold threshold", out, p.ref.a_star)
                      if code == 0 else [f"cold threshold: exit {code}"])

    # -- the run -------------------------------------------------------

    def one_round(self) -> None:
        """One pass of every operation.  The short in-process ones run in
        SLOTS groups spread between the long ones, so that each kind samples
        the whole run rather than one burst of it."""
        long_ops = [self.fresh_import, self.cold_price, self.simulate,
                    self.validate_mc, self.cold_threshold]
        with self.tr.span("round"):
            for slot in range(SLOTS):
                self.quotes(slot)
                self.grid(slot)
                self.curve(slot)
                self.analytic(slot)
                for op in long_ops[slot * len(long_ops) // SLOTS:
                                   (slot + 1) * len(long_ops) // SLOTS]:
                    op()

    def run(self, seconds: float) -> int:
        start = time.perf_counter()
        rounds = 0
        while True:
            self.one_round()
            rounds += 1
            if time.perf_counter() - start >= seconds:
                return rounds

    def finish_checks(self) -> list[str]:
        """Checks made once per run, after timing: pooled MC agreement and
        bit-identical ``simulate`` output for one and two workers."""
        errors = self.pooled.errors()
        seed = str(self.mc_seeds.getrandbits(32))
        dumps = []
        for workers in ("1", "2"):
            path = os.path.join(self.out_dir, f"{self.name}-{os.getpid()}-workers{workers}.csv")
            argv = ["simulate", *self._paper_flags(), "--paths", str(IDENTITY_PATHS),
                    "--seed", seed, "--workers", workers, "--out", path]
            code, _out, _dt = _cli_main(self.cli, argv)
            if code != 0:
                return errors + [f"simulate --workers {workers}: exit {code}"]
            with open(path, "rb") as fh:
                dumps.append(fh.read())
            os.remove(path)
        if dumps[0] != dumps[1]:
            errors.append("simulate CSV differs between --workers 1 and --workers 2")
        return errors
