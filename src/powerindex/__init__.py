"""Power-transform rebalancing for capitalization-weighted index weights.

Rebalances index weights by raising them to an exponent p in [0, 1] and
renormalizing, which provably preserves weight ordering and never
increases the maximum weight. Also provides a linearized variant that
leaves small weights' ratios intact, the cap-and-redistribute baseline
(which carries neither guarantee), a calibration solver that picks the
largest p meeting a concentration bound, and diagnostics that detect and
quantify rebalance pathologies.
"""

from __future__ import annotations

from .calibration import (
    CalibrationResult,
    CalibrationTarget,
    concentration_statistic,
    solve_exponent,
    top_k_sum,
)
from .diagnostics import (
    ConcentrationMetrics,
    DiagnosticsReport,
    OrderViolation,
    compare_methods,
    concentration_metrics,
    diagnostics_report,
    find_order_violations,
    turnover,
)
from .errors import InfeasibleError, RebalanceError
from .io import parse_universe, read_weight_file, report_payload, write_report
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
from .weights import (
    Constituent,
    Universe,
    WeightVector,
    normalize,
    weights_from_market_caps,
)

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
    "normalize",
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
