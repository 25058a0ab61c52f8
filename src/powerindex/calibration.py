"""Exponent calibration against concentration targets.

Concentration statistics (max weight, top-k aggregate) are nondecreasing
in the power exponent p, so a bound on either statistic pins down the
largest admissible p by bisection. The solver returns that largest p,
i.e. the smallest deviation from cap weighting that still meets the cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, KExceedsNError, NonConvergenceError
from .transforms import power_rebalance
from .weights import WeightVector

MAX_ITERATIONS = 200
DEFAULT_TOL = 1e-10
_RESIDUAL_TOL = 1e-10

TARGET_KINDS = ("max_weight", "top_k_sum")


@dataclass(frozen=True)
class CalibrationTarget:
    """A cap on a concentration statistic.

    ``kind`` is "max_weight" (largest single weight) or "top_k_sum"
    (aggregate of the k largest weights; requires ``k``). ``bound`` is the
    value the statistic must not exceed.
    """

    kind: str
    bound: float
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise ValueError(
                f"kind must be one of {TARGET_KINDS}, got {self.kind!r}"
            )
        if not 0.0 < self.bound < 1.0:
            raise ValueError(f"bound must be in (0, 1), got {self.bound!r}")
        if self.kind == "top_k_sum":
            if self.k is None or int(self.k) < 1:
                raise ValueError("top_k_sum targets need k >= 1")
            object.__setattr__(self, "k", int(self.k))
        elif self.k is not None:
            raise ValueError("k only applies to top_k_sum targets")


@dataclass(frozen=True)
class CalibrationResult:
    p_star: float
    achieved: float
    iterations: int
    converged: bool


def top_k_sum(weights: np.ndarray, k: int) -> float:
    """Sum of the k largest values; ties are resolved by value only."""
    k = int(k)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k!r}")
    if k >= weights.size:
        return float(weights.sum())
    return float(np.partition(weights, -k)[-k:].sum())


def concentration_statistic(mu: WeightVector, target: CalibrationTarget) -> float:
    """Evaluate the target's statistic on a weight vector."""
    if target.kind == "max_weight":
        return float(mu.weights.max())
    if target.k > mu.n:
        raise KExceedsNError(
            f"k={target.k} exceeds the {mu.n} available constituents"
        )
    return top_k_sum(mu.weights, target.k)


def solve_exponent(
    mu: WeightVector,
    target: CalibrationTarget,
    tol: float = DEFAULT_TOL,
) -> CalibrationResult:
    """Largest exponent p whose power-rebalanced statistic meets the bound.

    Checks feasibility at p=0 first (the equal-weight floor) and raises
    ``InfeasibleError`` below it. Returns p=1 immediately when the input
    already satisfies the bound. Otherwise bisects the monotone residual
    statistic(p) - bound over [0, 1] until the bracket is narrower than
    ``tol`` or a feasible midpoint has a residual within ``_RESIDUAL_TOL``
    of zero, then returns the feasible endpoint, so ``achieved <= bound``
    holds exactly. Deterministic for fixed inputs.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    def statistic(p: float) -> float:
        return concentration_statistic(power_rebalance(mu, p), target)

    floor = statistic(0.0)
    if floor > target.bound:
        raise InfeasibleError(
            f"bound {target.bound!r} lies below the fully diversified "
            f"floor {floor!r}"
        )
    at_one = statistic(1.0)
    if at_one <= target.bound:
        return CalibrationResult(1.0, at_one, 0, True)

    # Invariant: residual(lo) <= 0 < residual(hi).
    lo, hi = 0.0, 1.0
    achieved = floor
    iterations = 0
    while hi - lo >= tol:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise NonConvergenceError(
                f"bisection exceeded {MAX_ITERATIONS} iterations "
                f"(bracket [{lo!r}, {hi!r}])"
            )
        mid = 0.5 * (lo + hi)
        value = statistic(mid)
        if value > target.bound:
            hi = mid
            continue
        lo, achieved = mid, value
        if value - target.bound > -_RESIDUAL_TOL:
            break
    return CalibrationResult(lo, achieved, iterations, True)
