"""Exponent calibration against concentration targets.

Concentration statistics (max weight, top-k aggregate) are nondecreasing
in the power exponent p, so a bound on either statistic pins down the
largest admissible p. The solver finds it by safeguarded Newton steps
on the log of the statistic, kept inside a shrinking bisection bracket
(Brent 1973; ``rtsafe`` in *Numerical Recipes*), and returns that
largest p: the smallest deviation from cap weighting that still meets
the cap.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, RebalanceError
from .transforms import power_curve
from .weights import WeightVector, scale_to_one

MAX_ITERATIONS = 200
DEFAULT_TOL = 1e-10

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
    """The solved exponent and how the solver got there.

    ``achieved`` is the statistic of ``power_rebalance(mu, p_star)``, bit
    for bit. ``bracket`` is the final (lo, hi) with p_star = lo feasible
    and hi infeasible; it is (1.0, 1.0) when p=1 already meets the bound.
    """

    p_star: float
    achieved: float
    iterations: int
    converged: bool
    bracket: tuple[float, float]


def top_k_sum(weights: np.ndarray, k: int) -> float:
    """Sum of the k largest values in ascending order, the bits of
    ``float(np.sort(weights)[-k:].sum())`` whatever order the CPU's
    partition leaves; for k >= size, of all values in input order."""
    ks = _positive_ks((k,))
    return _top_k_sums(weights, ks)[ks[0]]


def _positive_ks(ks: Sequence[int]) -> tuple[int, ...]:
    """``ks`` as ints; a ``ValueError`` names the first that is not positive."""
    ks = tuple(int(k) for k in ks)
    for k in ks:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k!r}")
    return ks


def _top_k_sums(weights: np.ndarray, ks: Sequence[int]) -> dict[int, float]:
    """``top_k_sum`` for each of ``ks``, positive ints, from one partition
    and one sorted tail."""
    n = weights.size
    kmax = max([k for k in ks if k < n], default=0)
    tail = weights
    if kmax:
        tail = np.partition(weights, -kmax)[-kmax:]  # a fresh array
        tail.sort()
    return {k: float(np.add.reduce(tail[-k:] if k < n else weights)) for k in ks}


def _check_k(target: CalibrationTarget, n: int) -> None:
    if target.kind == "top_k_sum" and target.k > n:
        raise RebalanceError(
            f"k={target.k} exceeds the {n} available constituents"
        )


def _statistic(weights: np.ndarray, target: CalibrationTarget) -> float:
    if target.kind == "max_weight":
        return float(np.maximum.reduce(weights))
    return _top_k_sums(weights, (target.k,))[target.k]


def concentration_statistic(mu: WeightVector, target: CalibrationTarget) -> float:
    """Evaluate the target's statistic on a weight vector."""
    _check_k(target, mu.n)
    return _statistic(mu.weights, target)


def solve_exponent(
    mu: WeightVector,
    target: CalibrationTarget,
    tol: float = DEFAULT_TOL,
) -> CalibrationResult:
    """Largest exponent p whose power-rebalanced statistic meets the bound.

    Checks feasibility at p=0 first (the equal-weight floor) and raises
    ``InfeasibleError`` below it. Returns p=1 immediately when the input
    already satisfies the bound. Otherwise keeps a bracket [lo, hi] of
    [0, 1] with statistic(lo) <= bound < statistic(hi), and steps by
    Newton on log statistic(p) - log bound from the last point tried; a
    step that leaves the bracket, or a slope that is not positive, gives
    way to the bracket's midpoint. It stops when the bracket is narrower
    than ``tol``, or holds no float between its ends, and returns the
    feasible endpoint, so ``achieved <= bound`` holds exactly and p_star +
    tol breaches the bound.
    Deterministic for fixed inputs.

    Each step works on arrays: the logs of the positive weights and the
    top-k index set are taken once, and the statistic is evaluated with
    the same arithmetic as ``power_rebalance`` and
    ``concentration_statistic``, without building a ``WeightVector``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _check_k(target, mu.n)
    w = mu.weights
    positive = w > 0.0
    log_positive = np.log(w[positive])
    # The transform preserves order, so the entries that hold the
    # statistic are the same for every p. Ties at the k-th place do not
    # matter: tied weights stay equal for every p.
    if target.kind == "max_weight":
        top = np.array([w.argmax()])
    else:
        top = np.argpartition(w, -target.k)[-target.k :]
    # Zero weights in the top set, when k exceeds the number of positive
    # ones, add nothing to the slope but stay in the sorted sum, which is
    # top_k_sum's for k < n (at k = n it adds in input order).
    top_positive = top[w[top] > 0.0]
    log_top = np.log(w[top_positive])
    log_bound = math.log(target.bound)
    sum_top = target.kind == "top_k_sum" and target.k < mu.n
    all_positive = log_positive.size == w.size

    def evaluate(p: float) -> tuple[float, float]:
        """The statistic at p, and the slope of its log: the w**p-tilted
        mean of log w over the top entries minus that over all positive
        ones."""
        v = scale_to_one(power_curve(w, positive, log_positive, p))
        on_top, on_all = v[top_positive], (v if all_positive else v[positive])
        slope = float(
            log_top @ on_top / np.add.reduce(on_top)
            - log_positive @ on_all / np.add.reduce(on_all)
        )
        if not sum_top:
            return _statistic(v, target), slope
        held = v[top]  # a fresh array
        held.sort()
        return float(np.add.reduce(held)), slope

    floor, _ = evaluate(0.0)
    if floor > target.bound:
        raise InfeasibleError(
            f"bound {target.bound!r} lies below the fully diversified "
            f"floor {floor!r}"
        )
    value, slope = evaluate(1.0)
    if value <= target.bound:
        return CalibrationResult(1.0, value, 0, True, (1.0, 1.0))

    # Invariant: residual(lo) <= 0 < residual(hi).
    lo, hi = 0.0, 1.0
    p, achieved = 1.0, floor
    iterations = 0
    while hi - lo >= tol and math.nextafter(lo, hi) < hi:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise RebalanceError(
                f"solver exceeded {MAX_ITERATIONS} iterations "
                f"(bracket [{lo!r}, {hi!r}])"
            )
        # A slope that is not positive gives NaN, which takes the midpoint.
        step = p - (math.log(value) - log_bound) / slope if slope > 0.0 else math.nan
        # Keep half a tolerance from either end, so that a step that would
        # land within tol of the root from one side lands on the other and
        # closes the bracket.
        p = min(max(step, lo + 0.5 * tol), hi - 0.5 * tol)
        if not (lo <= step <= hi and lo < p < hi):
            # Out of the bracket, or left on an end by a tol too small to
            # move off it, where the bracket would not shrink.
            p = 0.5 * (lo + hi)
        value, slope = evaluate(p)
        if value > target.bound:
            hi = p
        else:
            lo, achieved = p, value
    return CalibrationResult(float(lo), achieved, iterations, True, (lo, hi))
