"""Power-transform rebalancing for capitalization-weighted index weights.

Rebalances index weights by raising them to an exponent p in [0, 1] and
renormalizing, which provably preserves weight ordering and never
increases the maximum weight. Also provides a linearized variant that
leaves small weights' ratios intact, the cap-and-redistribute baseline
(which carries neither guarantee), a calibration solver that picks the
largest p meeting a concentration bound, and diagnostics that detect and
quantify rebalance pathologies.

``import powerindex`` loads the rules, the solver and numpy. The
diagnostics and the file readers and writers (``powerindex.diagnostics``
and ``powerindex.io``) load on first use of one of their names.
"""

from __future__ import annotations

from .calibration import (
    CalibrationResult,
    CalibrationTarget,
    concentration_statistic,
    solve_exponent,
    top_k_sum,
)
from .errors import InfeasibleError, RebalanceError
from .transforms import (
    CapRule,
    LinearizedPowerRule,
    PowerRule,
    RebalanceRule,
    apply_rule,
    cap_rebalance,
    linearized_power_rebalance,
    power_rebalance,
)
from .weights import Constituent, Universe, WeightVector, weights_from_market_caps

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "CalibrationTarget",
    "CapRule",
    "ConcentrationMetrics",
    "Constituent",
    "DiagnosticsReport",
    "InfeasibleError",
    "LinearizedPowerRule",
    "OrderViolation",
    "PowerRule",
    "RebalanceError",
    "RebalanceRule",
    "Universe",
    "WeightVector",
    "apply_rule",
    "cap_rebalance",
    "compare_methods",
    "concentration_metrics",
    "concentration_statistic",
    "diagnostics_report",
    "find_order_violations",
    "linearized_power_rebalance",
    "parse_universe",
    "power_rebalance",
    "read_weight_file",
    "report_payload",
    "solve_exponent",
    "top_k_sum",
    "turnover",
    "weights_from_market_caps",
    "write_report",
]

# The public names of the modules that ``import powerindex`` leaves
# unloaded, with the module that defines each. The first access to one
# imports its module and binds all of that module's names here.
_DEFERRED = {
    "ConcentrationMetrics": "diagnostics",
    "DiagnosticsReport": "diagnostics",
    "OrderViolation": "diagnostics",
    "compare_methods": "diagnostics",
    "concentration_metrics": "diagnostics",
    "diagnostics_report": "diagnostics",
    "find_order_violations": "diagnostics",
    "turnover": "diagnostics",
    "parse_universe": "io",
    "read_weight_file": "io",
    "report_payload": "io",
    "write_report": "io",
}


def __getattr__(name: str) -> object:
    home = _DEFERRED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    bound = {key: getattr(module, key) for key, mod in _DEFERRED.items() if mod == home}
    globals().update(bound)
    return bound[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
