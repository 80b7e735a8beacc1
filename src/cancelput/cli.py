"""Command-line front end: price, threshold, curve, validate, simulate.

The closed-form commands and the analytic suite run on the standard library
alone; the Monte Carlo layer (and with it numpy) and the diagnostics are
imported inside the commands that use them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import TYPE_CHECKING

from .errors import CancelPutError, ConfigError, InvalidParams
from .model import make_model
from .pricer import (
    Contract,
    g_payoff,
    grid_search_threshold,
    optimal_threshold,
    policy_values,
    price,
)
from .scale import basis_for

if TYPE_CHECKING:
    from .mc import McConfig

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_BAD_INPUT = 2
_EXIT_IO = 3
_EXIT_CRASH = 4


def _mode(raw: str) -> str:
    if raw not in ("survival", "direct"):
        raise ConfigError(f"mode must be 'survival' or 'direct', got {raw!r}")
    return raw


#: Config-file keys: the flag destination each one fills and its cast.
_CONFIG_KEYS = {
    "r": ("r", float), "sigma2": ("sigma2", float), "sigma": ("sigma", float),
    "lambda": ("lam", float), "rho": ("rho", float),
    "strike": ("strike", float), "barrier": ("barrier", float), "spot": ("spot", float),
    "paths": ("paths", int), "horizon": ("horizon", float), "seed": ("seed", int),
    "mode": ("mode", _mode), "workers": ("workers", int),
}

#: Most points a threshold grid search or a curve may have.
_GRID_MAX_POINTS = 100_000

#: Most CSV rows one ``%`` formats, so the text held at once stays bounded.
_CSV_BLOCK_ROWS = 4096


def _read_config_file(path: str) -> dict[str, str]:
    """The file's key = value settings; a key may appear only once."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = val
    return values


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill every setting no flag gave from the ``--config`` file.

    A file may hold only settings the command has a flag for, so none of
    its keys can be silently ignored; flags override it.  sigma and sigma2
    are one setting: a flag for either overrides the file's.
    """
    if not args.config:
        return
    flagged = {dest for dest, val in vars(args).items() if val is not None}
    if flagged & {"sigma", "sigma2"}:
        flagged |= {"sigma", "sigma2"}
    for key, raw in _read_config_file(args.config).items():
        dest, cast = _CONFIG_KEYS[key]
        if dest not in vars(args):
            raise ConfigError(f"config key {key!r} is not a setting of {args.command}")
        if dest not in flagged:
            try:
                setattr(args, dest, cast(raw))
            except ValueError as exc:
                raise ConfigError(f"config key {key}={raw!r}: {exc}") from None


def _build_model_contract(args: argparse.Namespace):
    sigma2 = args.sigma2
    if sigma2 is not None and args.sigma is not None:
        raise ConfigError("sigma and sigma2 are one setting; give only one of them")
    if args.sigma is not None:
        if not (args.sigma > 0.0):
            raise InvalidParams(f"volatility must be positive, got sigma={args.sigma}")
        sigma2 = args.sigma * args.sigma

    missing = [
        name
        for name, val in (
            ("r", args.r), ("sigma2", sigma2), ("strike", args.strike),
            ("barrier", args.barrier), ("spot", args.spot),
        )
        if val is None
    ]
    if missing:
        raise ConfigError(f"missing required parameters: {', '.join(missing)}")
    lam = 0.0 if args.lam is None else args.lam
    rho = args.rho
    if rho is None:
        if lam > 0.0:
            raise ConfigError("rho is required when lambda > 0")
        rho = 1.0  # unused placeholder in the jump-free branch

    model = make_model(args.r, sigma2, lam, rho)
    return model, Contract(strike=args.strike, barrier=args.barrier, spot=args.spot)


def _build_mc_config(args: argparse.Namespace, r: float, simulates: bool) -> McConfig | None:
    """The run's McConfig; None for a command that will not simulate, which
    refuses every MC setting, by flag or config file: nothing would read it."""
    if not simulates:
        mc_keys = ("paths", "horizon", "seed", "workers", "mode")
        given = [key for key in mc_keys if getattr(args, key, None) is not None]
        if given:
            raise ConfigError(f"{args.command} runs no simulation here; it takes no {', '.join(given)}")
        return None

    from .mc import McConfig, McMode

    if args.seed is None:
        raise ConfigError("randomized commands require an explicit --seed")
    return McConfig(
        n_paths=args.paths if args.paths is not None else 10_000,
        # The estimators need horizon >= 10/r; 200 already covers r >= 0.05.
        horizon=args.horizon if args.horizon is not None else max(200.0, 10.0 / r),
        seed=args.seed,
        # Only threshold has --mode; simulate and validate choose their modes.
        mode=McMode(getattr(args, "mode", None) or "survival"),
        workers=args.workers if args.workers is not None else 1,
    )


def _sig12(obj):
    """Round every float to 12 significant digits for stable serialization."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _sig12(v) for k, v in obj.items()}
    return obj


def _emit(payload: dict) -> None:
    print(json.dumps(_sig12(payload), indent=2))


def _params_echo(model, contract) -> dict:
    return {
        "r": model.r,
        "sigma2": model.sigma2,
        "lambda": model.lam,
        "rho": model.rho,
        "mu": model.mu,
        "alpha": model.alpha,
        "strike": contract.strike,
        "barrier": contract.barrier,
        "spot": contract.spot,
    }


def _write_csv(path: str, header: str, n: int, block) -> int:
    """Write ``header``, then rows 0 to n-1 a block at a time, ``block(i, j)`` giving rows i
    to j-1 as a template and its cells; exit 3 with a message if ``path`` cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for start in range(0, n, _CSV_BLOCK_ROWS):
                template, cells = block(start, min(start + _CSV_BLOCK_ROWS, n))
                fh.write(template % cells)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return _EXIT_IO
    return _EXIT_OK


def cmd_price(args: argparse.Namespace) -> int:
    model, contract = _build_model_contract(args)
    basis = basis_for(model)
    report = price(basis, model, contract)
    _emit(
        {
            "a_star": report.a_star,
            "value": report.value,
            "creeping_factor": report.creeping_factor,
            "undershoot_factor": report.undershoot_factor,
            "region": report.region.value,
            "params_echo": _params_echo(model, contract),
        }
    )
    return _EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    model, contract = _build_model_contract(args)
    cfg = _build_mc_config(args, model.r, simulates=args.mc)
    if args.grid_step is None and cfg is None:
        _emit(
            {
                "a_star": optimal_threshold(basis_for(model), model, contract),
                "method": "closed-form",
                "params_echo": _params_echo(model, contract),
            }
        )
        return _EXIT_OK

    k = contract.strike
    step = args.grid_step if args.grid_step is not None else 0.01 * k
    lo = args.grid_min if args.grid_min is not None else step
    hi = args.grid_max if args.grid_max is not None else k - step
    if not (step > 0.0):
        raise ConfigError(f"grid step must be positive, got {step}")
    if not (lo <= hi):
        raise ConfigError(f"need grid min <= grid max, got {lo} and {hi}")
    span = (hi - lo) / step + 1e-9
    if not (span < _GRID_MAX_POINTS):
        raise ConfigError(
            f"grid from {lo} to {hi} by {step} exceeds {_GRID_MAX_POINTS} points"
        )
    count = int(span) + 1
    grid = [lo + i * step for i in range(count)]
    a_hat, _values = grid_search_threshold(model, contract, grid, cfg)
    _emit(
        {
            "a_star": a_hat,
            "method": "grid-closed-form" if cfg is None else "grid-mc",
            "grid": {"min": grid[0], "max": grid[-1], "step": step, "points": len(grid)},
            "params_echo": _params_echo(model, contract),
        }
    )
    return _EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    model, contract = _build_model_contract(args)
    if not (0.0 < args.smin < args.smax < math.inf):
        raise ConfigError(f"need 0 < smin < smax < inf, got {args.smin}, {args.smax}")
    if not (2 <= args.points <= _GRID_MAX_POINTS):
        raise ConfigError(f"need 2 to {_GRID_MAX_POINTS} points, got {args.points}")
    basis = basis_for(model)
    a_star = optimal_threshold(basis, model, contract)
    n, lo, span = args.points, args.smin, args.smax - args.smin
    # span * (i / (n - 1)) <= span, so no spot overflows; the last is smax.
    spots = [lo + span * (i / (n - 1)) for i in range(n - 1)] + [args.smax]
    cells = [0.0] * (3 * n)
    cells[0::3] = spots
    cells[1::3] = [g_payoff(model, contract, s) for s in spots]
    cells[2::3] = policy_values(basis, model, contract, zip(spots, [a_star] * n))
    return _write_csv(args.out, "s,payoff,value", n,
                      lambda i, j: ("%.12g,%.12g,%.12g\n" * (j - i), tuple(cells[3 * i : 3 * j])))


def cmd_validate(args: argparse.Namespace) -> int:
    from .diagnostics import analytic_suite, mc_suite

    model, contract = _build_model_contract(args)
    cfg = _build_mc_config(args, model.r, simulates=args.suite != "analytic")
    # The MC suite runs first, so inputs it refuses cost no analytic work;
    # the analytic rows still print first.
    mc_results = [] if cfg is None else mc_suite(model, contract, cfg)
    results = [] if args.suite == "mc" else analytic_suite(model, contract)
    results += mc_results

    width = max(len(res.name) for res in results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status}  {res.name:<{width}}  observed={res.observed:.3e}  bound={res.bound:.3e}"
        if res.note:
            line += f"  ({res.note})"
        print(line)
    failed = sum(1 for res in results if not res.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return _EXIT_OK if failed == 0 else _EXIT_CHECK_FAILED


def cmd_simulate(args: argparse.Namespace) -> int:
    from .mc import simulate_paths

    model, contract = _build_model_contract(args)
    cfg = _build_mc_config(args, model.r, simulates=True)
    if args.threshold is not None:
        a = args.threshold
    else:
        a = optimal_threshold(basis_for(model), model, contract)
    paths = simulate_paths(model, contract, a, cfg)
    # A row's kind picks its template and cells: none (the horizon came first)
    # takes the index, creep the index and tau (its s_tau is a), jump all three.
    stopped = paths.crossing != "none"
    kind = stopped + (paths.crossing == "jump").astype(int)
    templates = ["%d,,,none\n", "%%d,%%.12g,%.12g,creep\n" % a, "%d,%.12g,%.12g,jump\n"]

    def block(i: int, j: int) -> tuple[str, tuple]:
        rows, cells = kind[i:j], paths.tau[i:j].astype(object).repeat(3).reshape(-1, 3)
        cells[:, 0], cells[:, 2] = range(i, j), paths.s_tau[i:j]  # (index, tau, s_tau) rows
        return "".join(map(templates.__getitem__, rows.tolist())), tuple(cells[rows[:, None] >= (0, 1, 2)])

    if _write_csv(args.out, "path_index,tau,s_tau,crossing_type", kind.size, block) != _EXIT_OK:
        return _EXIT_IO
    print(f"wrote {kind.size} paths to {args.out} ({stopped.sum()} stopped before horizon)")
    return _EXIT_OK


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, help="risk-free rate")
    p.add_argument("--sigma2", type=float, help="diffusion variance")
    p.add_argument("--sigma", type=float, help="volatility; squared into sigma2")
    p.add_argument("--lambda", dest="lam", type=float, help="jump intensity")
    p.add_argument("--rho", type=float, help="jump-size rate")
    p.add_argument("--strike", type=float, help="strike K")
    p.add_argument("--barrier", type=float, help="cancellation barrier h (> K)")
    p.add_argument("--spot", type=float, help="current asset price")
    p.add_argument("--config", help="key = value file; flags override it")


def _add_mc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paths", type=int, help="number of simulated paths")
    p.add_argument("--horizon", type=float, help="truncation time (default: max(200, 10/r))")
    p.add_argument("--seed", type=int, help="stream seed (required)")
    p.add_argument("--workers", type=int, default=None, help="parallel worker processes")


class _Parser(argparse.ArgumentParser):
    """A usage error is a ``ConfigError``, which ``main`` prints as JSON."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-1e-05" is a negative number and so a value, not a flag, as "-1" is.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cancelput",
        description="Perpetual put that dies at the asset's last visit above a barrier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="closed-form price report as JSON")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("threshold", help="optimal exercise threshold")
    _add_shared_flags(p)
    _add_mc_flags(p)
    p.add_argument("--grid-min", type=float, help="grid search: lowest threshold")
    p.add_argument("--grid-max", type=float, help="grid search: highest threshold")
    p.add_argument("--grid-step", type=float, help="grid search: step (enables grid mode)")
    p.add_argument("--mc", action="store_true", help="score grid points by simulation")
    p.add_argument("--mode", choices=("survival", "direct"),
                   help="--mc estimator: survival-weighted payoff or direct last-passage")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("curve", help="payoff/value CSV over a spot grid")
    _add_shared_flags(p)
    p.add_argument("--smin", type=float, required=True)
    p.add_argument("--smax", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("validate", help="run self-check suites")
    _add_shared_flags(p)
    _add_mc_flags(p)
    p.add_argument("--suite", choices=("analytic", "mc", "all"), default="analytic")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="per-path stopping times and levels as CSV")
    _add_shared_flags(p)
    _add_mc_flags(p)
    p.add_argument("--threshold", type=float, help="stop level (default: optimal)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves no state on it."""
    return _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        _apply_config_file(args)
        return args.func(args)
    except CancelPutError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return _EXIT_BAD_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except Exception:  # a fault of the program, not of its input: keep it apart from a FAILed check
        import traceback

        traceback.print_exc()
        return _EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
