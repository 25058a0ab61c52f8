"""The three reweighting rules.

``power_rebalance`` raises every weight to an exponent p in [0, 1] and
renormalizes. It interpolates between the unchanged cap-weighted index
(p=1) and the equal-weighted index over positive entries (p=0).

``linearized_power_rebalance`` applies the same curve above a knot and its
chord f(knot) * (w / knot) below it, so small weights keep their ratios
instead of being inflated. Both rules reweight with ``power_weights``, and
both keep the weight order, and the maximum from growing, exactly.

``cap_rebalance`` is the cap-and-redistribute procedure used as the
baseline for comparison: weights above a threshold are scaled to a fixed
aggregate and the remainder is spread proportionally over the rest. It
carries no ordering or max-weight guarantee, which the diagnostics module
exists to demonstrate.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import RebalanceError
from .weights import WeightVector, _Record, _setattr


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p!r}")


class PowerRule(_Record):
    """Raise each weight to ``p`` and renormalize."""

    p: float

    def __init__(self, p: float) -> None:
        # Builtin floats, so that a numpy scalar is checked and reported alike.
        p = float(p)
        _check_p(p)
        _setattr(self, "p", p)


class LinearizedPowerRule(_Record):
    """Power curve above ``knot``, linear through the origin below it.

    The linear piece is the chord of x**p from the origin to the knot,
    f(knot) * (x / knot), which keeps f(0) = 0 and f strictly increasing.
    """

    p: float
    knot: float

    def __init__(self, p: float, knot: float = 0.01) -> None:
        p, knot = float(p), float(knot)
        _check_p(p)
        if not 0.0 < knot < 1.0:
            raise ValueError(f"knot must be in (0, 1), got {knot!r}")
        _setattr(self, "p", p)
        _setattr(self, "knot", knot)


class CapRule(_Record):
    """Scale weights above ``threshold`` to ``target_aggregate`` in total,
    redistributing the remainder proportionally over the others."""

    threshold: float
    target_aggregate: float

    def __init__(
        self, threshold: float = 0.045, target_aggregate: float = 0.40
    ) -> None:
        threshold, target_aggregate = float(threshold), float(target_aggregate)
        if not 0.0 < threshold < target_aggregate < 1.0:
            raise ValueError(
                "need 0 < threshold < target_aggregate < 1, got "
                f"threshold={threshold!r}, target_aggregate={target_aggregate!r}"
            )
        _setattr(self, "threshold", threshold)
        _setattr(self, "target_aggregate", target_aggregate)


RebalanceRule = Union[PowerRule, LinearizedPowerRule, CapRule]

# The rules by the name the CLI and reports use. A rule's ``_fields`` are
# its parameters, and the defaults of its constructor are their defaults.
RULES: dict[str, type[RebalanceRule]] = {
    "power": PowerRule,
    "linpower": LinearizedPowerRule,
    "cap": CapRule,
}


def power_weights(
    w: np.ndarray, p: float, knot: float = 0.0, logs: np.ndarray | None = None
) -> np.ndarray:
    """f(w) / sum f(w), a fresh array, where f(x) = x**p at and above
    ``knot`` and the chord f(knot) * (x / knot) below it (with knot = 0,
    the plain power): both power rules and the solver reweight here.

    x**p is exp(p * log(x)) on the positive entries, whose logs the solver
    passes as ``logs``; zeros stay zero, with no pow edge case at 0. Both
    guarantees hold in floating point. The order: f(knot) comes from the
    exp call of the entries above it, and exp, log and rounding are
    monotone, so below the knot x / knot rounds to at most 1 and f(x) to
    at most f(knot). The max: where it would grow, as at p = 1 on weights
    summing a few ulps below one, the divisor is f(top) / top, raised float
    by float until it does not, and the weights sum to about the input's.
    """
    if logs is None:
        logs = np.log(w[w > 0.0])
    chord = knot > 0.0 and np.minimum.reduce(w) < knot
    curve = np.exp(p * (np.concatenate((logs, [np.log(knot)])) if chord else logs))
    if logs.size == w.size:
        out = curve[: w.size]  # f(knot) is not a weight
    else:
        out = np.zeros_like(w)
        out[w > 0.0] = curve[: logs.size]
    if chord:
        below = w < knot
        out[below] = curve[-1] * (w[below] / knot)
    top = w.argmax()
    total = float(np.add.reduce(out))
    if out[top] / total > w[top]:
        total = out[top] / w[top]
        while out[top] / total > w[top]:
            total = np.nextafter(total, np.inf)
    out /= total
    return out


def power_rebalance(mu: WeightVector, rule: PowerRule | float) -> WeightVector:
    """Reweight to mu_i**p / sum_j mu_j**p.

    Zero weights stay zero for every p, including p=0 where the positive
    entries become equal-weighted. Accepts a bare float as shorthand for
    ``PowerRule(p)``.
    """
    if not isinstance(rule, PowerRule):
        rule = PowerRule(rule)
    return WeightVector._wrap(mu.identifiers, power_weights(mu.weights, rule.p))


def linearized_power_rebalance(
    mu: WeightVector, rule: LinearizedPowerRule
) -> WeightVector:
    """Apply the knotted transform entrywise, then renormalize.

    Above the knot this matches ``power_rebalance`` exactly; below it,
    each weight's share of the knot scales f(knot), so any two weights
    under the knot keep their ratio to rounding.
    """
    out = power_weights(mu.weights, rule.p, rule.knot)
    return WeightVector._wrap(mu.identifiers, out)


def cap_rebalance(mu: WeightVector, rule: CapRule | None = None) -> WeightVector:
    """Cap-and-redistribute: the group above ``threshold`` is rescaled to
    sum to ``target_aggregate``; everything else absorbs the remainder.

    Applies unconditionally whenever any weight exceeds the threshold,
    scaling the capped group up as well as down. Weights exactly at the
    threshold are not capped. Returns the input weights (renormalized)
    when nothing exceeds the threshold.
    """
    if rule is None:
        rule = CapRule()
    w = mu.weights
    capped = w > rule.threshold
    if not np.logical_or.reduce(capped):
        return WeightVector._scaled(mu.identifiers, w)
    s = float(np.add.reduce(w[capped]))
    if not np.logical_or.reduce(w[~capped] > 0.0) or (1.0 - s) <= 0.0:
        raise RebalanceError(
            f"weights above threshold sum to {s!r}; no positive complement "
            "is left to absorb the redistributed mass"
        )
    t = rule.target_aggregate
    scale = np.where(capped, t / s, (1.0 - t) / (1.0 - s))
    return WeightVector._scaled(mu.identifiers, w * scale)


def apply_rule(mu: WeightVector, rule: RebalanceRule) -> WeightVector:
    """Dispatch a tagged rule to its transform."""
    if isinstance(rule, PowerRule):
        return power_rebalance(mu, rule)
    if isinstance(rule, LinearizedPowerRule):
        return linearized_power_rebalance(mu, rule)
    if isinstance(rule, CapRule):
        return cap_rebalance(mu, rule)
    raise TypeError(f"unknown rebalance rule: {rule!r}")
