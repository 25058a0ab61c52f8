"""Power-transform rebalancing for capitalization-weighted index weights.

Rebalances index weights by raising them to an exponent p in [0, 1] and
renormalizing, which provably preserves weight ordering and never
increases the maximum weight. Also provides a linearized variant that
leaves small weights' ratios intact, the cap-and-redistribute baseline
(which carries neither guarantee), a calibration solver that picks the
largest p meeting a concentration bound, and diagnostics that detect and
quantify rebalance pathologies.

``import powerindex`` loads none of the package's modules and not numpy.
The first use of a public name imports the module that defines it (and
what that module imports) and binds all of that module's public names
in the package. A submodule such as ``powerindex.weights`` is an
attribute once it has been imported, by ``from powerindex import
weights`` or by the first use of one of its names.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Each public name, and the module that defines it.
_HOMES = {
    "CalibrationResult": "calibration",
    "CalibrationTarget": "calibration",
    "concentration_statistic": "calibration",
    "solve_exponent": "calibration",
    "top_k_sum": "calibration",
    "ConcentrationMetrics": "diagnostics",
    "DiagnosticsReport": "diagnostics",
    "OrderViolation": "diagnostics",
    "compare_methods": "diagnostics",
    "concentration_metrics": "diagnostics",
    "diagnostics_report": "diagnostics",
    "find_order_violations": "diagnostics",
    "turnover": "diagnostics",
    "InfeasibleError": "errors",
    "RebalanceError": "errors",
    "parse_universe": "io",
    "read_weight_file": "io",
    "report_payload": "io",
    "write_report": "io",
    "CapRule": "transforms",
    "LinearizedPowerRule": "transforms",
    "PowerRule": "transforms",
    "RebalanceRule": "transforms",
    "apply_rule": "transforms",
    "cap_rebalance": "transforms",
    "linearized_power_rebalance": "transforms",
    "power_rebalance": "transforms",
    "Constituent": "weights",
    "Universe": "weights",
    "WeightVector": "weights",
    "weights_from_market_caps": "weights",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    bound = {key: getattr(module, key) for key, mod in _HOMES.items() if mod == home}
    globals().update(bound)
    return bound[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
