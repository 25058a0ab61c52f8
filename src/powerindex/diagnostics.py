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
from itertools import compress, islice, starmap
from typing import Any, NamedTuple, overload

import numpy as np

from .calibration import _top_k_sums
from .errors import RebalanceError
from .transforms import RebalanceRule, apply_rule
from .weights import WeightVector, _Record

# Power rules keep the max exactly; this slack is for diagnose on any files.
MAX_INCREASE_TOL = 1e-12
DEFAULT_TOP_KS = (1, 5, 6, 10)  # holds 1: a report's max is its top-1 sum
DEFAULT_REPORTING_P = 0.5


class OrderViolation(_Record):
    """A pair whose ordering flipped: strictly lighter before, strictly
    heavier after."""

    identifier_low: str
    identifier_high: str
    mu_low: float
    mu_high: float
    eta_low: float
    eta_high: float

    def __init__(self, *values: Any, **named: Any) -> None:
        super().__init__(*values, **named)
        if not (self.mu_low < self.mu_high and self.eta_low > self.eta_high):
            raise ValueError(
                "violation requires mu_low < mu_high and eta_low > eta_high"
            )


class ConcentrationMetrics(_Record):
    """One vector's HHI, its top-k sums by k, and its diversity."""

    hhi: float
    top_k_sums: dict[int, float]
    diversity: float


class DiagnosticsReport(_Record):
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
        total += int(np.add.reduce(np.maximum(merged - pos, 0)))
        ranks = ranks[merged]
        width *= 2
    return total


def _nondecreasing(values: np.ndarray) -> bool:
    return not np.count_nonzero(values[1:] < values[:-1])


def _increasing(values: np.ndarray) -> bool:
    return not np.count_nonzero(values[1:] <= values[:-1])


def _rows_with_partner(eta_s: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Input positions, ascending, of the entries in at least one flipped
    pair; ``order`` sorts by mu and then eta, and ``eta_s`` is eta in it.

    An entry is the heavier side of a flip exactly when an earlier entry
    holds a larger eta, and the lighter side when a later one holds a
    smaller eta: ties in mu are sorted ascending in eta.
    """
    later_min = np.minimum.accumulate(eta_s[::-1])[::-1]
    partnered = (eta_s < np.maximum.accumulate(eta_s)) | (eta_s > later_min)
    rows = order[partnered]  # a fresh array
    rows.sort()
    return rows


class OrderViolations(Sequence[OrderViolation]):
    """The flipped pairs of a rebalance as a read-only sequence.

    ``len()`` is the exact count, taken in O(n log n) without listing a
    pair. ``OrderViolation`` objects are built only as they are read, by
    iteration or by int, negative or slice indexing, in the order of a
    double loop over the entries: pairs (a, b) with a < b in input order,
    by a and then by b. Reading the first k pairs scans about 2k entries
    at most, with one O(n) comparison each, so a short prefix stays cheap
    when the count is in the hundreds of millions. Compares equal to any
    sequence holding the same pairs.

    ``order`` is an ascending order of ``mu_w``, such as a vector's
    ``_order()``. Where nothing flipped, eta is nondecreasing along the
    order used, which is kept as ``_eta_order``; it is ``None`` otherwise.
    """

    def __init__(
        self, ids: Sequence[str], mu_w: np.ndarray, eta_w: np.ndarray,
        order: np.ndarray,
    ) -> None:
        self._ids = ids
        self._mu = mu_w
        self._eta = eta_w
        # Sorted by (mu, eta), a flipped pair is exactly a strict
        # inversion of eta. Without ties in mu, mu's order is that order;
        # with them, it is taken again, ties sorted ascending in eta, once
        # eta is found to drop somewhere along mu's order.
        eta_s = eta_w[order]
        flat = _nondecreasing(eta_s)
        if not flat and not _increasing(mu_w[order]):
            order = np.lexsort((eta_w, mu_w))
            eta_s = eta_w[order]
            flat = _nondecreasing(eta_s)
        if flat:
            self._count, self._rows, self._eta_order = 0, order[:0], order
        else:
            self._count = _count_inversions(eta_s)
            self._rows = _rows_with_partner(eta_s, order)
            self._eta_order = None

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
        mu, eta = self._mu, self._eta
        return OrderViolation._of(
            self._ids[lo], self._ids[hi],
            float(mu[lo]), float(mu[hi]), float(eta[lo]), float(eta[hi]),
        )

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[OrderViolation]:
        return starmap(self._violation, self._pairs())

    @overload
    def __getitem__(self, key: int) -> OrderViolation: ...

    @overload
    def __getitem__(self, key: slice) -> list[OrderViolation]: ...

    def __getitem__(
        self, key: int | slice
    ) -> OrderViolation | list[OrderViolation]:
        picked = range(self._count)[key]
        if not isinstance(picked, range):
            return self._violation(*next(islice(self._pairs(), picked, None)))
        if not picked:
            return []
        ahead = picked if picked.step > 0 else picked[::-1]
        pairs = islice(self._pairs(), ahead.start, ahead.stop, ahead.step)
        chosen = list(starmap(self._violation, pairs))
        return chosen if picked.step > 0 else chosen[::-1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self)}, first={self[:3]!r})"


class _Pairing(NamedTuple):
    """Two weight vectors, mu and eta, matched by identifier."""

    ids: tuple[str, ...]  # the common identifiers, in mu's order
    mu_w: np.ndarray  # mu's weights on ``ids``
    eta_w: np.ndarray  # eta's weights on ``ids``
    after: np.ndarray  # eta's weights on all of mu's ids, 0.0 where eta lacks one
    only_eta: np.ndarray  # the weights of the ids only eta holds, in eta's order
    unmatched: list[str]  # the ids only one vector holds, sorted

    def require_same_ids(self) -> _Pairing:
        """This pairing; a ``RebalanceError`` if the vectors' ids differ."""
        if self.unmatched:
            raise RebalanceError(
                f"weight vectors cover different identifiers: {self.unmatched}"
            )
        return self


def _pair(mu: WeightVector, eta: WeightVector) -> _Pairing:
    """Match ``eta`` to ``mu`` by identifier. When both list the same
    identifiers, as a transform's output does, the pairing holds the
    vectors' own arrays and nothing is gathered."""
    if mu.identifiers is eta.identifiers or mu.identifiers == eta.identifiers:
        empty = eta.weights[:0]
        return _Pairing(mu.identifiers, mu.weights, eta.weights, eta.weights, empty, [])
    position = {ident: pos for pos, ident in enumerate(eta.identifiers)}
    where = np.array([position.pop(i, -1) for i in mu.identifiers], dtype=np.intp)
    # What is left in ``position`` are the ids only eta holds.
    common = where >= 0
    return _Pairing(
        tuple(compress(mu.identifiers, common.tolist())),
        mu.weights[common],
        eta.weights[where[common]],
        np.where(common, eta.weights[where], 0.0),
        eta.weights[np.fromiter(position.values(), np.intp, len(position))],
        sorted([*compress(mu.identifiers, (~common).tolist()), *position]),
    )


def _turnover(mu_w: np.ndarray, after: np.ndarray, only_eta: np.ndarray) -> float:
    """Half the L1 distance, from mu's weights and a pairing's ``after`` and
    ``only_eta``, added in that order by a cumulative sum: the bits of a plain
    loop, which neither np.sum nor builtin sum (from Python 3.12) gives."""
    moves = after - mu_w
    if only_eta.size:
        moves = np.concatenate((moves, only_eta))
    np.abs(moves, out=moves)
    return 0.5 * float(np.add.accumulate(moves, out=moves)[-1])


def find_order_violations(mu: WeightVector, eta: WeightVector) -> OrderViolations:
    """The pairs with mu_low < mu_high but eta_low > eta_high.

    Both comparisons are strict, so ties in mu or in eta are never
    violations. ``eta`` is matched to ``mu`` by identifier; a
    ``RebalanceError`` names the identifiers only one of them holds. The
    result counts the pairs exactly in O(n log n) and builds each one
    only when it is read (see ``OrderViolations``).
    """
    return _violations(mu, eta, _pair(mu, eta).require_same_ids())


def _violations(mu: WeightVector, eta: WeightVector, pairing: _Pairing) -> OrderViolations:
    """The order violations of ``pairing``. Where it holds the vectors' own
    arrays, as when both list the same ids, the sort is mu's memoized
    order, and an order along which eta is ascending is memoized on eta."""
    if pairing.mu_w is not mu.weights:
        return OrderViolations(*pairing[:3], np.argsort(pairing.mu_w, kind="stable"))
    violations = OrderViolations(pairing.ids, mu.weights, eta.weights, mu._order())
    if violations._eta_order is not None:
        vars(eta).setdefault("_ascending", violations._eta_order)
    return violations


def turnover(mu: WeightVector, eta: WeightVector) -> float:
    """One-way turnover: half the L1 distance between the two vectors.

    Computed over the identifier-matched union, so a name present in only
    one vector contributes its full weight; ``diagnostics_report`` gives
    the same bits. Symmetric, in [0, 1], zero exactly when they agree.
    """
    pairing = _pair(mu, eta)
    return _turnover(mu.weights, pairing.after, pairing.only_eta)


def concentration_metrics(w: WeightVector) -> ConcentrationMetrics:
    """HHI, top-k aggregates, and the diversity measure of one vector.

    The diversity measure is (sum w_i**p)**(1/p) for the reporting
    exponent p = ``DEFAULT_REPORTING_P``; it is at least 1, with equality
    exactly when a single weight carries everything. The top-k sums, for
    each k of ``DEFAULT_TOP_KS``, are ``top_k_sum``'s, the k largest
    weights added from the largest down, all read off one cumulative sum
    over the descending tail, which comes from the vector's memoized
    ascending order where a report has taken it; a k at or above the size
    is the sum of every weight. The result is memoized on the vector,
    outside its fields, and is shared by later calls: treat it as
    read-only.
    """
    memo = vars(w)
    metrics = memo.get("_metrics")
    if metrics is None:
        arr, p = w.weights, DEFAULT_REPORTING_P
        metrics = memo["_metrics"] = ConcentrationMetrics(
            float(np.add.reduce(arr * arr)),
            _top_k_sums(arr, DEFAULT_TOP_KS, memo.get("_ascending")),
            float(np.add.reduce(arr**p)) ** (1.0 / p),
        )
    return metrics


def diagnostics_report(mu: WeightVector, eta: WeightVector) -> DiagnosticsReport:
    """Full before/after report for one rebalance.

    Order violations are evaluated over identifiers common to both
    vectors; turnover uses the union, as ``turnover`` computes it; the
    per-vector metrics (HHI, top-k, diversity, and the max as the top-1
    sum) are each full vector's ``concentration_metrics``.
    """
    pairing = _pair(mu, eta)
    violations = _violations(mu, eta, pairing)  # first: it memoizes the orders
    before = concentration_metrics(mu)
    after = concentration_metrics(eta)
    max_before, max_after = before.top_k_sums[1], after.top_k_sums[1]
    return DiagnosticsReport(
        violations,
        max_before,
        max_after,
        max_after > max_before + MAX_INCREASE_TOL,
        _turnover(mu.weights, pairing.after, pairing.only_eta),
        before.hhi,
        after.hhi,
        {k: (before.top_k_sums[k], after.top_k_sums[k]) for k in before.top_k_sums},
        before.diversity,
        after.diversity,
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
