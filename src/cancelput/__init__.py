"""Pricing a perpetual American put that is cancelled at the asset's last
visit to a barrier above the strike, under a jump-diffusion with downward
exponential jumps.  Closed forms throughout, with a Monte Carlo oracle."""

import importlib

from .errors import (
    CancelPutError,
    ConfigError,
    DegenerateCancellation,
    DegenerateRoots,
    DomainError,
    InconsistentBasis,
    InvalidParams,
    NumericsWarning,
    PoleError,
    ThresholdOutOfRange,
)
from .model import ModelParams, laplace_exponent, make_model
from .scale import ScaleBasis, basis_for
from .pricer import (
    Contract,
    PriceReport,
    Region,
    g_integral,
    g_payoff,
    grid_search_threshold,
    h_function,
    optimal_threshold,
    passage_factors,
    policy_values,
    price,
    value_at_threshold,
)

# These resolve on first access (PEP 562): the Monte Carlo layer needs NumPy,
# and the diagnostics, which do not, would cost import time to load.  Importing
# the package and quoting stay on the standard library and cheap.
_LAZY = {
    "McConfig": "mc",
    "McEstimate": "mc",
    "McMode": "mc",
    "PolicyPaths": "mc",
    "estimate_discounted_terminal": "mc",
    "estimate_value": "mc",
    "simulate_paths": "mc",
    "CheckResult": "diagnostics",
    "analytic_suite": "diagnostics",
    "mc_suite": "diagnostics",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "CancelPutError",
    "CheckResult",
    "ConfigError",
    "Contract",
    "DegenerateCancellation",
    "DegenerateRoots",
    "DomainError",
    "InconsistentBasis",
    "InvalidParams",
    "McConfig",
    "McEstimate",
    "McMode",
    "ModelParams",
    "NumericsWarning",
    "PoleError",
    "PolicyPaths",
    "PriceReport",
    "Region",
    "ScaleBasis",
    "ThresholdOutOfRange",
    "analytic_suite",
    "basis_for",
    "estimate_discounted_terminal",
    "estimate_value",
    "g_integral",
    "g_payoff",
    "grid_search_threshold",
    "h_function",
    "laplace_exponent",
    "make_model",
    "mc_suite",
    "optimal_threshold",
    "passage_factors",
    "policy_values",
    "price",
    "simulate_paths",
    "value_at_threshold",
]
