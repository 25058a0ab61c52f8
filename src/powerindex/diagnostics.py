"""Pathology detection and rebalance metrics.

A rebalance is pathological when a lighter constituent overtakes a
heavier one (an order violation) or when the largest weight grows. Both
are reported pairwise and exactly, alongside turnover and concentration
metrics for the before/after pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .calibration import top_k_sum
from .errors import IdentifierMismatchError, RebalanceError
from .transforms import RebalanceRule, apply_rule
from .weights import WeightVector

MAX_INCREASE_TOL = 1e-12
DEFAULT_TOP_KS = (1, 5, 6, 10)
DEFAULT_REPORTING_P = 0.5


@dataclass(frozen=True)
class OrderViolation:
    """A pair whose ordering flipped: strictly lighter before, strictly
    heavier after."""

    identifier_low: str
    identifier_high: str
    mu_low: float
    mu_high: float
    eta_low: float
    eta_high: float

    def __post_init__(self) -> None:
        if not (self.mu_low < self.mu_high and self.eta_low > self.eta_high):
            raise ValueError(
                "violation requires mu_low < mu_high and eta_low > eta_high"
            )


class ConcentrationMetrics(NamedTuple):
    hhi: float
    top_k_sums: dict[int, float]
    diversity: float


@dataclass(frozen=True)
class DiagnosticsReport:
    """Pathology findings plus turnover and concentration metrics for a
    (before, after) weight pair."""

    order_violations: list[OrderViolation]
    max_before: float
    max_after: float
    max_increased: bool
    turnover: float
    hhi_before: float
    hhi_after: float
    top_k_sums: dict[int, tuple[float, float]]
    diversity_before: float
    diversity_after: float

    @property
    def has_pathology(self) -> bool:
        return bool(self.order_violations) or self.max_increased


def _aligned_after(mu: WeightVector, eta: WeightVector) -> np.ndarray:
    """eta's weights in mu's identifier order; requires equal sets."""
    if mu.identifiers == eta.identifiers:
        return eta.weights
    if set(mu.identifiers) != set(eta.identifiers):
        missing = sorted(set(mu.identifiers) ^ set(eta.identifiers))
        raise IdentifierMismatchError(
            f"weight vectors cover different identifiers: {missing}"
        )
    lookup = dict(zip(eta.identifiers, eta.weights.tolist()))
    return np.array([lookup[i] for i in mu.identifiers], dtype=float)


def _has_inversion(mu_w: np.ndarray, eta_w: np.ndarray) -> bool:
    """True when some strictly-lighter entry ends up strictly heavier.

    In mu-sorted order an inversion exists exactly when some tied-mu
    group contains an after weight below the running maximum over the
    strictly smaller groups before it.
    """
    order = np.argsort(mu_w, kind="stable")
    mu_s = mu_w[order]
    eta_s = eta_w[order]
    starts = np.empty(mu_s.size, dtype=bool)
    starts[0] = True
    np.not_equal(mu_s[1:], mu_s[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    if idx.size == 1:
        return False
    group_max = np.maximum.reduceat(eta_s, idx)
    group_min = np.minimum.reduceat(eta_s, idx)
    prev_max = np.maximum.accumulate(group_max)[:-1]
    return bool(np.any(group_min[1:] < prev_max))


def _enumerate_violations(
    ids: Sequence[str], mu_w: np.ndarray, eta_w: np.ndarray
) -> list[OrderViolation]:
    out: list[OrderViolation] = []
    n = len(ids)
    for a in range(n):
        for b in range(a + 1, n):
            if mu_w[a] == mu_w[b]:
                continue
            lo, hi = (a, b) if mu_w[a] < mu_w[b] else (b, a)
            if eta_w[lo] > eta_w[hi]:
                out.append(
                    OrderViolation(
                        identifier_low=ids[lo],
                        identifier_high=ids[hi],
                        mu_low=float(mu_w[lo]),
                        mu_high=float(mu_w[hi]),
                        eta_low=float(eta_w[lo]),
                        eta_high=float(eta_w[hi]),
                    )
                )
    return out


def find_order_violations(
    mu: WeightVector, eta: WeightVector
) -> list[OrderViolation]:
    """Every unordered pair with mu_low < mu_high but eta_low > eta_high.

    Both comparisons are strict, so ties in mu are never violations.
    Detection is an O(n log n) sorted scan; the full pairwise enumeration
    runs only when at least one inversion exists.
    """
    eta_w = _aligned_after(mu, eta)
    if not _has_inversion(mu.weights, eta_w):
        return []
    return _enumerate_violations(mu.identifiers, mu.weights, eta_w)


def turnover(mu: WeightVector, eta: WeightVector) -> float:
    """One-way turnover: half the L1 distance between the two vectors.

    Computed over the identifier-aligned union, so a name present in only
    one vector contributes its full weight. Symmetric, in [0, 1], zero
    exactly when the vectors agree.
    """
    before = mu.as_dict()
    after = eta.as_dict()
    names = list(before)
    names += [i for i in after if i not in before]
    total = sum(abs(after.get(i, 0.0) - before.get(i, 0.0)) for i in names)
    return 0.5 * total


def concentration_metrics(
    w: WeightVector,
    reporting_p: float = DEFAULT_REPORTING_P,
    top_ks: Sequence[int] = DEFAULT_TOP_KS,
) -> ConcentrationMetrics:
    """HHI, top-k aggregates, and the diversity measure of one vector.

    The diversity measure is (sum w_i**p)**(1/p) for the reporting
    exponent p in (0, 1); it is at least 1, with equality exactly when a
    single weight carries everything. Requested k values larger than the
    universe clamp to the full sum.
    """
    if not 0.0 < reporting_p < 1.0:
        raise ValueError(
            f"reporting_p must be in (0, 1), got {reporting_p!r}"
        )
    arr = w.weights
    hhi = float(np.sum(arr * arr))
    tops = {int(k): top_k_sum(arr, min(int(k), arr.size)) for k in top_ks}
    diversity = float(np.sum(arr**reporting_p) ** (1.0 / reporting_p))
    return ConcentrationMetrics(hhi, tops, diversity)


def diagnostics_report(
    mu: WeightVector,
    eta: WeightVector,
    reporting_p: float = DEFAULT_REPORTING_P,
    top_ks: Sequence[int] = DEFAULT_TOP_KS,
) -> DiagnosticsReport:
    """Full before/after report for one rebalance.

    Order violations are evaluated over identifiers common to both
    vectors; turnover uses the union; the per-vector metrics (max, HHI,
    top-k, diversity) always describe each full vector.
    """
    after_ids = set(eta.identifiers)
    common = [i for i in mu.identifiers if i in after_ids]
    if len(common) == mu.n and len(common) == eta.n:
        violations = find_order_violations(mu, eta)
    else:
        before_map = mu.as_dict()
        after_map = eta.as_dict()
        mu_w = np.array([before_map[i] for i in common], dtype=float)
        eta_w = np.array([after_map[i] for i in common], dtype=float)
        if common and _has_inversion(mu_w, eta_w):
            violations = _enumerate_violations(common, mu_w, eta_w)
        else:
            violations = []

    before = concentration_metrics(mu, reporting_p, top_ks)
    after = concentration_metrics(eta, reporting_p, top_ks)
    max_before = float(mu.weights.max())
    max_after = float(eta.weights.max())
    return DiagnosticsReport(
        order_violations=violations,
        max_before=max_before,
        max_after=max_after,
        max_increased=max_after > max_before + MAX_INCREASE_TOL,
        turnover=turnover(mu, eta),
        hhi_before=before.hhi,
        hhi_after=after.hhi,
        top_k_sums={
            k: (before.top_k_sums[k], after.top_k_sums[k])
            for k in before.top_k_sums
        },
        diversity_before=before.diversity,
        diversity_after=after.diversity,
    )


def compare_methods(
    mu: WeightVector, rules: Sequence[RebalanceRule]
) -> list[tuple[RebalanceRule, DiagnosticsReport]]:
    """Apply each rule to the same starting weights and report on each.

    Output order matches the input rule order. A failing rule's error is
    re-raised with its position in the list prepended.
    """
    out: list[tuple[RebalanceRule, DiagnosticsReport]] = []
    for pos, rule in enumerate(rules):
        try:
            eta = apply_rule(mu, rule)
        except RebalanceError as exc:
            raise type(exc)(
                f"rule {pos} ({type(rule).__name__}): {exc}"
            ) from exc
        out.append((rule, diagnostics_report(mu, eta)))
    return out
