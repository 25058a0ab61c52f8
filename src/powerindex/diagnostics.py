"""Pathology detection and rebalance metrics.

A rebalance is pathological when a lighter constituent overtakes a
heavier one (an order violation) or when the largest weight grows. Order
violations are counted exactly in O(n log n) and listed lazily, pair by
pair, only as far as a caller reads them; they are reported alongside
turnover and concentration metrics for the before/after pair.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, islice, starmap
from typing import NamedTuple, overload

import numpy as np

from .calibration import top_k_sum
from .errors import RebalanceError
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

    order_violations: Sequence[OrderViolation]
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


def _count_inversions(values: np.ndarray) -> int:
    """Pairs i < j with values[i] > values[j]; equal values never count.

    A bottom-up merge sort, vectorised level by level. At each level one
    stable sort merges every pair of adjacent sorted runs at once: the
    values are dense integer ranks, offset by the index of their pair of
    runs. An element of a right run moves left by exactly the number of
    greater elements in its left run, and past no equal one, so the
    level's inversions are the sum of the leftward moves. Timsort merges
    keys that already sit in sorted runs in linear time, so the count
    takes O(n log n) over its log2(n) levels.
    """
    n = values.size
    ranks = np.unique(values, return_inverse=True)[1].astype(np.int64)
    pos = np.arange(n)
    total, width = 0, 1
    while width < n:
        merged = np.argsort(pos // (2 * width) * n + ranks, kind="stable")
        total += int(np.maximum(merged - pos, 0).sum())
        ranks = ranks[merged]
        width *= 2
    return total


def _rows_with_partner(
    mu_s: np.ndarray, eta_s: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """Input positions, ascending, of the entries in at least one flipped
    pair; ``mu_s`` and ``eta_s`` are the weights in ``order``, which sorts
    by mu and then eta.

    An entry is the heavier side of a flip exactly when some strictly
    lighter tie group of mu holds a larger after weight, and the lighter
    side when some strictly heavier group holds a smaller one.
    """
    new_group = np.empty(mu_s.size, dtype=bool)
    new_group[:1] = True
    np.not_equal(mu_s[1:], mu_s[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    group = np.cumsum(new_group) - 1
    below_max = np.maximum.accumulate(np.maximum.reduceat(eta_s, starts))
    above_min = np.minimum.accumulate(np.minimum.reduceat(eta_s, starts)[::-1])
    below_max = np.concatenate(([-np.inf], below_max[:-1]))
    above_min = np.concatenate((above_min[::-1][1:], [np.inf]))
    partnered = (eta_s < below_max[group]) | (eta_s > above_min[group])
    return np.sort(order[partnered])


class OrderViolations(Sequence[OrderViolation]):
    """The flipped pairs of a rebalance as a read-only sequence.

    ``len()`` is the exact count, taken in O(n log n) without listing a
    pair. ``OrderViolation`` objects are built only as they are read, in
    the order of a double loop over the entries: pairs (a, b) with a < b
    in input order, by a and then by b. Reading the first k pairs scans
    about 2k entries at most, with one O(n) comparison each, so a short
    prefix stays cheap when the count is in the hundreds of millions.
    Compares equal to any sequence holding the same violations.
    """

    def __init__(
        self, ids: Sequence[str], mu_w: np.ndarray, eta_w: np.ndarray
    ) -> None:
        self._ids = ids
        self._mu = mu_w
        self._eta = eta_w
        # Sorted by (mu, eta), a flipped pair is exactly a strict
        # inversion of eta: ties in mu are sorted ascending in eta.
        order = np.lexsort((eta_w, mu_w))
        eta_s = eta_w[order]
        if (eta_s[1:] >= eta_s[:-1]).all():
            self._count, self._rows = 0, order[:0]
        else:
            self._count = _count_inversions(eta_s)
            self._rows = _rows_with_partner(mu_w[order], eta_s, order)

    def _pairs(self) -> Iterator[tuple[int, int]]:
        """(lo, hi) positions of each flipped pair, in sequence order."""
        mu, eta = self._mu, self._eta
        for a in self._rows.tolist():
            later_mu, later_eta = mu[a + 1 :], eta[a + 1 :]
            flipped = ((later_mu > mu[a]) & (later_eta < eta[a])) | (
                (later_mu < mu[a]) & (later_eta > eta[a])
            )
            for b in (np.flatnonzero(flipped) + (a + 1)).tolist():
                yield (a, b) if mu[a] < mu[b] else (b, a)

    def _violation(self, lo: int, hi: int) -> OrderViolation:
        return OrderViolation(
            identifier_low=self._ids[lo],
            identifier_high=self._ids[hi],
            mu_low=float(self._mu[lo]),
            mu_high=float(self._mu[hi]),
            eta_low=float(self._eta[lo]),
            eta_high=float(self._eta[hi]),
        )

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[OrderViolation]:
        return starmap(self._violation, self._pairs())

    @overload
    def __getitem__(self, key: int) -> OrderViolation: ...

    @overload
    def __getitem__(self, key: slice) -> list[OrderViolation]: ...

    def __getitem__(self, key: int | slice) -> OrderViolation | list[OrderViolation]:
        if isinstance(key, slice):
            wanted = range(*key.indices(self._count))
            stop = max(wanted, default=-1) + 1
            chosen = [
                self._violation(*pair)
                for i, pair in enumerate(islice(self._pairs(), stop))
                if i in wanted
            ]
            return chosen if wanted.step > 0 else chosen[::-1]
        i = operator.index(key)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("order violation index out of range")
        return self._violation(*next(islice(self._pairs(), i, None)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"OrderViolations(count={self._count}, first={self[:3]!r})"


def _align(mu: WeightVector, eta: WeightVector) -> tuple[np.ndarray, np.ndarray]:
    """The position in ``eta`` of each of mu's identifiers (-1 where it is
    absent), and the positions of eta's identifiers absent from ``mu``."""
    if mu.identifiers == eta.identifiers:
        return np.arange(mu.n), np.empty(0, dtype=np.intp)
    where_in_eta = {ident: pos for pos, ident in enumerate(eta.identifiers)}
    where = np.array(
        [where_in_eta.get(i, -1) for i in mu.identifiers], dtype=np.intp
    )
    only_eta = np.ones(eta.n, dtype=bool)
    only_eta[where[where >= 0]] = False
    return where, np.flatnonzero(only_eta)


def _turnover(
    mu: WeightVector, eta: WeightVector, where: np.ndarray, only_eta: np.ndarray
) -> float:
    after = np.where(where >= 0, eta.weights[where], 0.0)
    moves = np.abs(np.concatenate((after - mu.weights, eta.weights[only_eta])))
    # Builtin sum, in mu's order and then eta's: the same bits as a loop
    # over the identifiers, which np.sum's pairwise order would not give.
    return 0.5 * sum(moves.tolist())


def find_order_violations(mu: WeightVector, eta: WeightVector) -> OrderViolations:
    """The pairs with mu_low < mu_high but eta_low > eta_high.

    Both comparisons are strict, so ties in mu or in eta are never
    violations. The two vectors must cover the same identifiers; ``eta``
    is matched to ``mu`` by identifier. The result counts the pairs
    exactly in O(n log n) and builds each one only when it is read (see
    ``OrderViolations``).
    """
    where, only_eta = _align(mu, eta)
    only_mu = np.flatnonzero(where < 0)
    if only_mu.size or only_eta.size:
        missing = [mu.identifiers[i] for i in only_mu.tolist()]
        missing += [eta.identifiers[i] for i in only_eta.tolist()]
        raise RebalanceError(
            f"weight vectors cover different identifiers: {sorted(missing)}"
        )
    return OrderViolations(mu.identifiers, mu.weights, eta.weights[where])


def turnover(mu: WeightVector, eta: WeightVector) -> float:
    """One-way turnover: half the L1 distance between the two vectors.

    Computed over the identifier-aligned union, so a name present in only
    one vector contributes its full weight. Symmetric, in [0, 1], zero
    exactly when the vectors agree.
    """
    return _turnover(mu, eta, *_align(mu, eta))


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
    where, only_eta = _align(mu, eta)
    common = where >= 0
    violations = OrderViolations(
        tuple(compress(mu.identifiers, common.tolist())),
        mu.weights[common],
        eta.weights[where[common]],
    )
    before = concentration_metrics(mu, reporting_p, top_ks)
    after = concentration_metrics(eta, reporting_p, top_ks)
    max_before = float(mu.weights.max())
    max_after = float(eta.weights.max())
    return DiagnosticsReport(
        order_violations=violations,
        max_before=max_before,
        max_after=max_after,
        max_increased=max_after > max_before + MAX_INCREASE_TOL,
        turnover=_turnover(mu, eta, where, only_eta),
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
