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

import numpy as np

from .errors import InfeasibleError, RebalanceError
from .transforms import power_weights
from .weights import WeightVector, _Record, _setattr

MAX_ITERATIONS = 200
TOL = 1e-10

TARGET_KINDS = ("max_weight", "top_k_sum")


class CalibrationTarget(_Record):
    """A cap on a concentration statistic.

    ``kind`` is "max_weight" (largest single weight) or "top_k_sum"
    (aggregate of the k largest weights; requires ``k``). ``bound`` is the
    value the statistic must not exceed.
    """

    kind: str
    bound: float
    k: int | None

    def __init__(self, kind: str, bound: float, k: int | None = None) -> None:
        if kind not in TARGET_KINDS:
            raise ValueError(f"kind must be one of {TARGET_KINDS}, got {kind!r}")
        if not 0.0 < bound < 1.0:
            raise ValueError(f"bound must be in (0, 1), got {bound!r}")
        if kind == "top_k_sum":
            if k is None:
                raise ValueError("top_k_sum targets need k >= 1")
            k = _positive_k(k)
        elif k is not None:
            raise ValueError("k only applies to top_k_sum targets")
        _setattr(self, "kind", kind)
        _setattr(self, "bound", bound)
        _setattr(self, "k", k)


class CalibrationResult(_Record):
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
    k = _positive_k(k)
    return _top_k_sums(weights, (k,))[k]


def _positive_k(k: object) -> int:
    """``k`` as an int, for a positive integral number that is not a bool,
    such as 6, 6.0 or ``np.int64(6)``; a ``ValueError`` names any other."""
    try:
        if not isinstance(k, (bool, np.bool_)) and k == int(k) > 0:
            return int(k)
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf, "x"
        pass
    raise ValueError(f"k must be a positive integer, got {k!r}")


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


def _check_k(target: CalibrationTarget, n: int) -> int:
    k = 1 if target.kind == "max_weight" else target.k  # the top-1 sum
    if k > n:
        raise RebalanceError(f"k={k} exceeds the {n} available constituents")
    return k


def concentration_statistic(mu: WeightVector, target: CalibrationTarget) -> float:
    """Evaluate the target's statistic on a weight vector."""
    k = _check_k(target, mu.n)
    return _top_k_sums(mu.weights, (k,))[k]


def solve_exponent(mu: WeightVector, target: CalibrationTarget) -> CalibrationResult:
    """Largest exponent p whose power-rebalanced statistic meets the bound.

    Raises ``InfeasibleError`` when the top k hold every positive weight,
    where the statistic is 1 for every p, and when the bound lies below
    the equal-weight floor, the statistic at p=0: k copies of 1/m summed,
    over m positive weights, unless 1/m is above the max. Returns p=1
    immediately when the input already satisfies the bound. Otherwise
    keeps a bracket [lo, hi] of [0, 1] with statistic(lo) <= bound <
    statistic(hi), and steps by Newton on log statistic(p) - log bound
    from the last point tried; a step that leaves the bracket, a slope
    that is not positive, or two steps in a row that stalled on one side
    of the root give way to the bracket's midpoint (``rtsafe``'s fallback).
    It stops when the bracket is narrower than ``TOL`` and returns its
    feasible end, so ``achieved <= bound`` holds exactly, and the other
    end, less than ``TOL`` above p_star, breaches the bound. Where the
    statistic is flat to rounding it is not monotone in its last bits, so
    an exponent past that end, such as p_star + ``TOL``, may meet the
    bound again. Deterministic for fixed inputs.

    Each step works on arrays: the logs of the positive weights and the
    top-k index set are taken once, the weights at p come from
    ``power_weights`` as ``power_rebalance``'s do, and the statistic is
    summed as ``concentration_statistic`` sums it, without building a
    ``WeightVector``.
    """
    k = _check_k(target, mu.n)
    w = mu.weights
    positive = w > 0.0
    log_positive = np.log(w[positive])
    m = log_positive.size
    if k >= m:
        raise InfeasibleError(
            f"the top {k} weights hold all {m} positive ones, so the "
            f"statistic is 1 for every p, above the bound {target.bound!r}"
        )
    # The transform preserves order, so the entries that hold the
    # statistic are the same for every p, and all positive. Ties at the
    # k-th place do not matter: tied weights stay equal for every p.
    top = np.argpartition(w, -k)[-k:]
    log_top = np.log(w[top])
    log_bound = math.log(target.bound)
    all_positive = m == w.size

    def evaluate(p: float) -> tuple[float, float]:
        """The statistic at p, and the slope of its log: the w**p-tilted
        mean of log w over the top entries minus that over all positive
        ones."""
        v = power_weights(w, p, logs=log_positive)  # a fresh array
        held, on_all = v[top], (v if all_positive else v[positive])
        slope = float(
            np.add.reduce(log_top * held) / np.add.reduce(held)
            - np.add.reduce(log_positive * on_all) / np.add.reduce(on_all)
        )
        held.sort()
        return float(np.add.reduce(held)), slope

    # At p = 0 each positive weight is exactly 1/m, the bits of evaluate(0.0),
    # unless 1/m is above the max, which power_weights does not let grow.
    at_zero = np.full(k, 1.0 / m)
    floor = evaluate(0.0)[0] if 1.0 / m > w.max() else float(np.add.reduce(at_zero))
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
    p, achieved, stalls = 1.0, floor, 0
    iterations = 0
    while hi - lo >= TOL:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise RebalanceError(
                f"solver exceeded {MAX_ITERATIONS} iterations "
                f"(bracket [{lo!r}, {hi!r}])"
            )
        # A slope that is not positive gives NaN, which takes the midpoint;
        # so do two stalled steps in a row, where the statistic is flat to
        # rounding and Newton creeps.
        newton = slope > 0.0 and stalls < 2
        step = p - (math.log(value) - log_bound) / slope if newton else math.nan
        # Keep TOL / 2 from either end, so that a step within TOL of the
        # root lands past it and closes the bracket.
        p = min(max(step, lo + 0.5 * TOL), hi - 0.5 * TOL)
        if not lo <= step <= hi:
            p = step = 0.5 * (lo + hi)
        value, slope = evaluate(p)
        if value > target.bound:
            hi = p
        else:
            lo, achieved = p, value
        # Kept TOL / 2 off an end, yet still on its side: a stall (a midpoint
        # is not).
        stalls = stalls + 1 if step < p == lo or step > p == hi else 0
    return CalibrationResult(float(lo), achieved, iterations, True, (lo, hi))
