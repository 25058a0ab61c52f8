"""The three reweighting rules.

``power_rebalance`` raises every weight to an exponent p in [0, 1] and
renormalizes. It interpolates between the unchanged cap-weighted index
(p=1) and the equal-weighted index over positive entries (p=0), preserves
strict weight ordering, and never increases the maximum weight.

``linearized_power_rebalance`` applies the same power curve above a knot
and the chord of that curve through the origin below it, so genuinely
small weights keep their pairwise ratios instead of being inflated.

``cap_rebalance`` is the cap-and-redistribute procedure used as the
baseline for comparison: weights above a threshold are scaled to a fixed
aggregate and the remainder is spread proportionally over the rest. It
carries no ordering or max-weight guarantee, which the diagnostics module
exists to demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import RebalanceError
from .weights import WeightVector


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p!r}")


@dataclass(frozen=True)
class PowerRule:
    """Raise each weight to ``p`` and renormalize."""

    p: float

    def __post_init__(self) -> None:
        # Builtin floats, so that a numpy scalar is checked and reported alike.
        object.__setattr__(self, "p", float(self.p))
        _check_p(self.p)


@dataclass(frozen=True)
class LinearizedPowerRule:
    """Power curve above ``knot``, linear through the origin below it.

    The linear piece is the chord of x**p from the origin to the knot
    (slope knot**(p-1)), which keeps f(0) = 0 and f strictly increasing.
    """

    p: float
    knot: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "knot", float(self.knot))
        _check_p(self.p)
        if not 0.0 < self.knot < 1.0:
            raise ValueError(f"knot must be in (0, 1), got {self.knot!r}")


@dataclass(frozen=True)
class CapRule:
    """Scale weights above ``threshold`` to ``target_aggregate`` in total,
    redistributing the remainder proportionally over the others."""

    threshold: float = 0.045
    target_aggregate: float = 0.40

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "target_aggregate", float(self.target_aggregate))
        if not 0.0 < self.threshold < self.target_aggregate < 1.0:
            raise ValueError(
                "need 0 < threshold < target_aggregate < 1, got "
                f"threshold={self.threshold!r}, "
                f"target_aggregate={self.target_aggregate!r}"
            )


RebalanceRule = Union[PowerRule, LinearizedPowerRule, CapRule]

# The rules by the name the CLI and reports use. Each dataclass's fields
# are the rule's parameters, and the field defaults are its defaults.
RULES: dict[str, type] = {
    "power": PowerRule,
    "linpower": LinearizedPowerRule,
    "cap": CapRule,
}


def power_curve(
    w: np.ndarray, positive: np.ndarray, log_positive: np.ndarray, p: float
) -> np.ndarray:
    """w**p before renormalizing: exp(p * log(w)) on the ``positive``
    entries, whose logs are ``log_positive``; zeros stay zero for every p,
    so no platform pow edge case at 0 is involved. The solver passes the
    logs it took once; the transforms take them per call.
    """
    if log_positive.size == w.size:
        return np.exp(p * log_positive)
    out = np.zeros_like(w)
    out[positive] = np.exp(p * log_positive)
    return out


def _power_curve(mu: WeightVector, p: float, knot: float) -> WeightVector:
    """Reweight to f(mu_i) / sum_j f(mu_j), where f(x) = x**p at and above
    ``knot`` and the chord knot**(p-1) * x below it.

    With knot = 0 no weight is below the knot and f is the plain power.
    """
    w = mu.weights
    positive = w > 0.0
    out = power_curve(w, positive, np.log(w[positive]), p)
    below = w < knot
    if below.any():
        slope = float(np.exp((p - 1.0) * np.log(knot)))
        out[below] = slope * w[below]
    return WeightVector._scaled(mu.identifiers, out)


def power_rebalance(mu: WeightVector, rule: PowerRule | float) -> WeightVector:
    """Reweight to mu_i**p / sum_j mu_j**p.

    Zero weights stay zero for every p, including p=0 where the positive
    entries become equal-weighted. Accepts a bare float as shorthand for
    ``PowerRule(p)``.
    """
    if not isinstance(rule, PowerRule):
        rule = PowerRule(rule)
    return _power_curve(mu, rule.p, 0.0)


def linearized_power_rebalance(
    mu: WeightVector, rule: LinearizedPowerRule
) -> WeightVector:
    """Apply the knotted transform entrywise, then renormalize.

    Above the knot this matches ``power_rebalance`` exactly; below it,
    weights are scaled by the constant chord slope, so any two weights
    under the knot keep their ratio.
    """
    return _power_curve(mu, rule.p, rule.knot)


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
    if not capped.any():
        return WeightVector._scaled(mu.identifiers, w)
    s = float(w[capped].sum())
    if not (w[~capped] > 0.0).any() or (1.0 - s) <= 0.0:
        raise RebalanceError(
            f"weights above threshold sum to {s!r}; no positive complement "
            "is left to absorb the redistributed mass"
        )
    out = np.empty_like(w)
    out[capped] = w[capped] * (rule.target_aggregate / s)
    out[~capped] = w[~capped] * ((1.0 - rule.target_aggregate) / (1.0 - s))
    return WeightVector._scaled(mu.identifiers, out)


def apply_rule(mu: WeightVector, rule: RebalanceRule) -> WeightVector:
    """Dispatch a tagged rule to its transform."""
    if isinstance(rule, PowerRule):
        return power_rebalance(mu, rule)
    if isinstance(rule, LinearizedPowerRule):
        return linearized_power_rebalance(mu, rule)
    if isinstance(rule, CapRule):
        return cap_rebalance(mu, rule)
    raise TypeError(f"unknown rebalance rule: {rule!r}")
