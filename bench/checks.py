"""Checks of the program's outputs against the reference and the method's
own properties.  Each function returns a list of error messages; an empty
list means the output passed.  Nothing here imports ``cancelput``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

#: Relative tolerance for closed-form figures against the 50-digit reference.
REL_TOL = 1e-9

#: Checks in ``validate --suite mc`` whose verdict does not depend on the
#: sample: under common random numbers the bridge can only detect earlier.
DETERMINISTIC_MC_CHECKS = ("bridge detects crossings earlier",)

_VERDICT = re.compile(r"^(PASS|FAIL)  (.+?)\s+observed=(\S+)\s+bound=(\S+)")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    """``got`` within ``rel`` of ``want``; a zero reference must be met exactly."""
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= rel * abs(want)


def quote(label: str, got: dict, want) -> list[str]:
    """A price report (library or ``price`` JSON) against a reference quote."""
    errors = []
    for key in ("a_star", "value", "creeping_factor", "undershoot_factor"):
        if not close(float(got[key]), getattr(want, key)):
            errors.append(f"{label}: {key} {got[key]!r}, reference {getattr(want, key)!r}")
    if got["region"] != want.region:
        errors.append(f"{label}: region {got['region']!r}, reference {want.region!r}")
    return errors


def threshold_json(label: str, stdout: str, a_star: float) -> list[str]:
    got = json.loads(stdout)
    errors = []
    if got.get("method") != "closed-form":
        errors.append(f"{label}: method {got.get('method')!r}, want 'closed-form'")
    if not close(float(got["a_star"]), a_star):
        errors.append(f"{label}: a_star {got['a_star']!r}, reference {a_star!r}")
    return errors


def grid_json(label: str, stdout: str, a_star: float, step: float, points: int) -> list[str]:
    """Grid argmax within one step of the reference threshold."""
    got = json.loads(stdout)
    errors = []
    if got["grid"]["points"] != points:
        errors.append(f"{label}: {got['grid']['points']} grid points, want {points}")
    if abs(float(got["a_star"]) - a_star) > step * (1.0 + 1e-9):
        errors.append(f"{label}: grid argmax {got['a_star']!r} more than {step} from {a_star!r}")
    return errors


def curve_csv(label: str, text: str, s_grid: list[float], payoffs: list[float],
              values: list[float], a_star: float) -> list[str]:
    """Curve rows against the reference; value = payoff at or below a*, never below it."""
    lines = text.splitlines()
    if lines[:1] != ["s,payoff,value"] or len(lines) != len(s_grid) + 1:
        return [f"{label}: expected a header and {len(s_grid)} rows, got {len(lines)} lines"]
    errors = []
    for line, s_ref, pay_ref, val_ref in zip(lines[1:], s_grid, payoffs, values):
        s_txt, pay_txt, val_txt = line.split(",")
        s, pay, val = float(s_txt), float(pay_txt), float(val_txt)
        if not close(s, s_ref, 1e-11):
            errors.append(f"{label}: spot {s_txt}, want {s_ref!r}")
        elif not close(pay, pay_ref):
            errors.append(f"{label}: payoff {pay_txt} at s={s_txt}, reference {pay_ref!r}")
        elif not close(val, val_ref):
            errors.append(f"{label}: value {val_txt} at s={s_txt}, reference {val_ref!r}")
        elif s <= a_star and val_txt != pay_txt:
            errors.append(f"{label}: value {val_txt} != payoff {pay_txt} at s={s_txt} <= a*")
        elif val < pay:
            errors.append(f"{label}: value {val_txt} below payoff {pay_txt} at s={s_txt}")
        if len(errors) >= 3:
            break
    return errors


def analytic_report(label: str, exit_code: int, stdout: str) -> list[str]:
    if exit_code == 0:
        return []
    failed = [ln for ln in stdout.splitlines() if ln.startswith("FAIL")]
    return [f"{label}: validate --suite analytic exit {exit_code}: {failed[:3]}"]


@dataclass
class McVerdicts:
    """Verdict lines of one ``validate --suite mc`` table."""

    passed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)


def mc_report(label: str, exit_code: int, stdout: str) -> tuple[McVerdicts, list[str]]:
    """Parse a ``validate --suite mc`` table and check that it is whole.

    The table must list each check once, end with a consistent summary, and
    exit 0 exactly when every check passed.  Checks that cannot fail by
    chance must pass.  The 3-sigma verdicts are returned for counting; on
    one small sample each fails by chance, so the workload's statistical
    verdict comes from the pooled paths instead (see ``PooledPaths``).
    """
    verdicts = McVerdicts()
    errors = []
    summary = None
    for line in stdout.splitlines():
        m = _VERDICT.match(line)
        if m:
            (verdicts.passed if m.group(1) == "PASS" else verdicts.failed).append(m.group(2))
            continue
        m = _SUMMARY.match(line)
        if m:
            summary = (int(m.group(1)), int(m.group(2)))
    total = len(verdicts.passed) + len(verdicts.failed)
    if summary != (len(verdicts.passed), total) or total == 0:
        errors.append(f"{label}: summary {summary} does not match {total} verdict lines")
    if exit_code != (0 if not verdicts.failed else 1):
        errors.append(f"{label}: exit {exit_code} with {len(verdicts.failed)} failed checks")
    for name in DETERMINISTIC_MC_CHECKS:
        if name in verdicts.failed:
            errors.append(f"{label}: deterministic check failed: {name}")
    return verdicts, errors


@dataclass
class _Moments:
    n: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        self.total_sq += x * x

    def mean(self) -> float:
        return self.total / self.n

    def stderr(self) -> float:
        var = (self.total_sq - self.total * self.total / self.n) / (self.n - 1)
        return math.sqrt(max(var, 0.0) / self.n)


class PooledPaths:
    """Per-path records of every ``simulate`` call in a run, pooled.

    Rows are checked as they arrive (creep rows land exactly on a*, jump
    rows strictly below it); ``verdicts`` then compares the pooled means
    with the reference using the acceptance gate's bands.
    """

    def __init__(self, ref, spot: float):
        self.ref = ref
        self.spot = spot
        self.payoff = _Moments()
        self.creep = _Moments()
        self.jump = _Moments()
        self.undershoot = _Moments()
        self.creep_levels: set[str] = set()

    def add_csv(self, label: str, text: str, n_paths: int) -> list[str]:
        ref = self.ref
        lines = text.splitlines()
        if lines[:1] != ["path_index,tau,s_tau,crossing_type"] or len(lines) != n_paths + 1:
            return [f"{label}: expected a header and {n_paths} rows, got {len(lines)} lines"]
        errors = []
        for i, line in enumerate(lines[1:]):
            idx, tau_txt, s_txt, kind = line.split(",")
            if int(idx) != i:
                errors.append(f"{label}: row {i} has path_index {idx}")
                break
            pay = creep = jump = 0.0
            if kind == "none":
                if tau_txt or s_txt:
                    errors.append(f"{label}: path {idx} not stopped but has tau={tau_txt!r}")
            else:
                tau, s = float(tau_txt), float(s_txt)
                disc = math.exp(-ref.r * tau)
                pay = disc * max(ref.strike - s, 0.0) * min((ref.barrier / s) ** ref.alpha, 1.0)
                if kind == "creep":
                    creep = disc
                    self.creep_levels.add(s_txt)
                    if not close(s, ref.a_star):
                        errors.append(f"{label}: creep row {idx} at {s_txt}, a* is {ref.a_star!r}")
                elif kind == "jump":
                    jump = disc
                    if not s < ref.a_star * (1.0 - REL_TOL):
                        errors.append(f"{label}: jump row {idx} at {s_txt}, not below a*")
                    self.undershoot.add(math.log(ref.a_star / s))
                else:
                    errors.append(f"{label}: path {idx} has crossing type {kind!r}")
            self.payoff.add(pay)
            self.creep.add(creep)
            self.jump.add(jump)
            if len(errors) >= 3:
                break
        if len(self.creep_levels) > 1:
            errors.append(f"{label}: creep rows at several levels {sorted(self.creep_levels)[:3]}")
        return errors

    def verdicts(self) -> list[tuple[str, float, float]]:
        """(name, |difference|, band) for each pooled comparison."""
        ref = self.ref
        if self.payoff.n < 2:
            return [("simulated paths to pool", 2.0 - self.payoff.n, 0.0)]
        q = ref.quote(self.spot)
        floor = 0.01 if ref.lam == 0.0 else 0.015
        out = [
            ("payoff", abs(self.payoff.mean() - q.value),
             max(3.0 * self.payoff.stderr(), floor * abs(q.value))),
        ]
        for name, mom, want in (("creep", self.creep, q.creeping_factor),
                                ("undershoot", self.jump, q.undershoot_factor)):
            out.append((name, abs(mom.mean() - want),
                        3.0 * mom.stderr() + 0.01 * max(want, 0.01)))
        if ref.lam == 0.0:
            out.append(("no jump crossings", float(self.undershoot.n), 0.0))
        elif self.undershoot.n < 30:
            out.append(("undershoot law needs 30 jump crossings", 30.0 - self.undershoot.n, 0.0))
        else:
            out.append(("undershoot law (mean vs 1/rho)",
                        abs(self.undershoot.mean() - 1.0 / ref.rho),
                        3.0 * self.undershoot.stderr()))
        return out

    def errors(self) -> list[str]:
        return [f"pooled MC {name}: |difference| {diff:.4g} exceeds band {band:.4g}"
                for name, diff, band in self.verdicts() if not diff <= band]
