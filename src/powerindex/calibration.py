"""Exponent calibration against concentration targets.

Concentration statistics (max weight, top-k aggregate) are nondecreasing
in the power exponent p, so a bound on either statistic pins down the
largest admissible p. The solver finds it by safeguarded Newton steps
on the logit of the statistic, kept inside a shrinking bisection bracket
(Brent 1973; ``rtsafe`` in *Numerical Recipes*), and returns that
largest p: the smallest deviation from cap weighting that still meets
the cap.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import InfeasibleError, RebalanceError
from .transforms import _divisor
from .weights import WeightVector, _Record

MAX_ITERATIONS = 200
TOL = 1e-10

TARGET_KINDS = ("max_weight", "top_k_sum")


class CalibrationTarget(_Record):
    """A cap on a concentration statistic.

    ``kind`` is "max_weight" (largest single weight) or "top_k_sum"
    (aggregate of the k largest weights; requires ``k``). ``bound`` is the
    value the statistic must not exceed, read as ``float(bound)``.
    """

    kind: str
    bound: float
    k: int | None

    def __init__(self, kind: str, bound: float, k: int | None = None) -> None:
        if kind not in TARGET_KINDS:
            raise ValueError(f"kind must be one of {TARGET_KINDS}, got {kind!r}")
        # A builtin float, so that the solver compares in double precision
        # whatever the caller's type: a float32 bound would compare in float32.
        bound = float(bound)
        if not 0.0 < bound < 1.0:
            raise ValueError(f"bound must be in (0, 1), got {bound!r}")
        if kind == "top_k_sum":
            if k is None:
                raise ValueError("top_k_sum targets need k >= 1")
            k = _positive_k(k)
        elif k is not None:
            raise ValueError("k only applies to top_k_sum targets")
        _Record.__init__(self, kind, bound, k)


class CalibrationResult(_Record):
    """The solved exponent and how the solver got there.

    ``achieved`` is the statistic of ``power_rebalance(mu, p_star)``, bit
    for bit. ``bracket`` is the final (lo, hi) with p_star = lo feasible
    and hi infeasible; it is (1.0, 1.0) when p=1 already meets the bound.
    ``converged`` is a class attribute, always ``True``.
    """

    p_star: float
    achieved: float
    iterations: int
    bracket: tuple[float, float]

    # Not a field: the solver raises rather than return an unconverged result.
    converged = True


def top_k_sum(weights: np.ndarray, k: int) -> float:
    """Sum of the k largest values, added one at a time from the largest
    down, starting at 0.0: the bits of that plain loop over
    ``sorted(weights, reverse=True)[:k]`` whatever order the CPU's
    partition leaves, so a max of ``-0.0`` gives ``0.0``; for k >= size,
    ``float(np.add.reduce(weights))``, all values in input order."""
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


def _top_k_sums(
    weights: np.ndarray, ks: Sequence[int], order: np.ndarray | None = None
) -> dict[int, float]:
    """``top_k_sum`` for each of ``ks``, positive ints, from one cumulative
    sum over the descending tail: the end of ``order``, an ascending order
    of the weights, reversed, or else one partition, sorted and reversed.
    A running sum from 0.0 differs from the cumulative sum only where that
    is -0.0, which adding 0.0 turns into 0.0."""
    n = weights.size
    kmax = max(ks)
    if kmax >= n:
        kmax = max([k for k in ks if k < n], default=0)
    running = []
    if kmax and order is not None:
        running = np.add.accumulate(weights[order[: -kmax - 1 : -1]]).tolist()
    elif kmax:
        tail = np.partition(weights, -kmax)[-kmax:]  # a fresh array
        tail.sort()
        running = np.add.accumulate(tail[::-1]).tolist()
    return {
        k: running[k - 1] + 0.0 if k < n else float(np.add.reduce(weights))
        for k in ks
    }


def _k_of(target: CalibrationTarget) -> int:
    return 1 if target.kind == "max_weight" else target.k  # the top-1 sum


def concentration_statistic(mu: WeightVector, target: CalibrationTarget) -> float:
    """Evaluate the target's statistic on a weight vector: its
    ``top_k_sum``, so a k at or above the size sums every weight."""
    return top_k_sum(mu.weights, _k_of(target))


def solve_exponent(mu: WeightVector, target: CalibrationTarget) -> CalibrationResult:
    """Largest exponent p whose power-rebalanced statistic meets the bound.

    Raises ``InfeasibleError`` when k is at or above the number m of
    positive weights, a k above the size included: the top k then hold
    every positive weight, and the statistic is 1 for every p. Raises it
    too when the bound lies below the equal-weight floor, the statistic
    at p=0: k copies of 1/m added one at a time from 0.0, as
    ``top_k_sum`` adds them, unless 1/m is above the max. The
    bound is a builtin float, so every comparison is in double precision.
    Returns p=1 immediately when the input already satisfies the bound.
    Otherwise keeps a bracket [lo, hi] of [0, 1] with statistic(lo) <= bound <
    statistic(hi), and steps by Newton on the logit of the statistic,
    log(S / (1 - S)) - log(bound / (1 - bound)), from the last point tried;
    a step that leaves the bracket, a slope that is not positive, a
    statistic that rounds to 1, or two steps in a row that stalled on one side
    of the root give way to the bracket's midpoint (``rtsafe``'s fallback),
    as does a step after one stall whose residual rounds to 0, which
    could only stall again.
    It stops when the bracket is narrower than ``TOL`` and returns its
    feasible end, so ``achieved <= bound`` holds exactly, and the other
    end, less than ``TOL`` above p_star, breaches the bound. Where the
    statistic is flat to rounding it is not monotone in its last bits, so
    an exponent past that end, such as p_star + ``TOL``, may meet the
    bound again. A solve that has not closed its bracket after
    ``MAX_ITERATIONS`` steps raises ``RebalanceError``, so every result
    returned is converged. Deterministic for fixed inputs.

    Each step works on arrays, with the transform's rules but only its k
    top entries: the logs of the positive weights and the top k of them,
    sorted by weight, largest first, are taken once, since the transform
    preserves order. At p the weights' curve, its sum and its divisor are
    ``power_weights``'s, and the k top quotients, already descending, are
    added one at a time as ``top_k_sum`` adds them: ``achieved`` has the
    bits of the statistic of ``power_rebalance(mu, p_star)``.
    """
    k = _k_of(target)
    w = mu.weights
    positive = w > 0.0
    w_pos = w[positive]
    log_pos = np.log(w_pos)
    m = log_pos.size
    if k >= m:
        raise InfeasibleError(
            f"the top {k} weights hold all {m} positive ones, so the "
            f"statistic is 1 for every p, above the bound {target.bound!r}"
        )
    # The k top positions, descending by weight. Ties at the k-th place do
    # not matter: tied weights stay equal for every p.
    top = w_pos.argpartition(-k)[-k:]
    top = top[w_pos[top].argsort(kind="stable")[::-1]]
    w_peak = float(w_pos[top[0]])
    # With zeros the transform sums the full-length weights, whose bits
    # the sum of the positive ones alone need not have.
    spread = None if m == w.size else np.zeros_like(w)

    def evaluate(p: float) -> tuple[float, float]:
        """The statistic at p, and the slope of its log: the w**p-tilted
        mean of log w over the top entries minus that over all positive
        ones."""
        curve = w_pos if p == 1.0 else np.exp(p * log_pos)
        if spread is not None:
            spread[positive] = curve
        total = float(np.add.reduce(curve if spread is None else spread))
        tilted = log_pos * curve
        held = curve[top]  # a fresh array; its first entry is the peak's
        divisor = 1.0  # at p = 1 the transform returns the weights themselves
        if p != 1.0:
            divisor = _divisor(float(held[0]), w_peak, total)
            held /= divisor
        value = float(np.add.accumulate(held, out=held)[-1])
        held_tilt = float(np.add.reduce(tilted[top])) / divisor
        return value, held_tilt / value - float(np.add.reduce(tilted)) / total

    # At p = 0 each positive weight is exactly 1/m, the bits of evaluate(0.0),
    # unless 1/m is above the max, which power_weights does not let grow.
    share = 1.0 / m
    if share > w_peak:
        floor = evaluate(0.0)[0]
    else:
        floor = 0.0
        for _ in range(k):
            floor += share
    if floor > target.bound:
        raise InfeasibleError(
            f"bound {target.bound!r} lies below the fully diversified "
            f"floor {floor!r}"
        )
    value, slope = evaluate(1.0)
    if value <= target.bound:
        return CalibrationResult(1.0, value, 0, (1.0, 1.0))

    # Newton runs on the logit of the statistic, whose slope is that of
    # its log over 1 - statistic. Invariant: residual(lo) <= 0 < residual(hi).
    logit_bound = math.log(target.bound / (1.0 - target.bound))
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
        # A slope that is not positive, or a statistic that rounds to 1,
        # takes the midpoint. So does a stalled step followed by another
        # stall, or by a residual that rounds to 0, which cannot move: the
        # statistic is flat to rounding there, and Newton would creep.
        step = math.nan
        if slope > 0.0 and value < 1.0 and stalls < 2:
            residual = math.log(value / (1.0 - value)) - logit_bound
            if residual or not stalls:
                step = p - residual * (1.0 - value) / slope
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
    return CalibrationResult(float(lo), achieved, iterations, (lo, hi))
