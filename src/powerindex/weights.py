"""Constituents and validated index weight vectors.

Weights live on the probability simplex: nonnegative, summing to one
within ``SUM_TOL``. Zero-weight constituents are kept in place rather
than dropped, so positions stay aligned across transforms and
before/after comparisons.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np

from .errors import RebalanceError

SUM_TOL = 1e-12


@dataclass(frozen=True)
class Constituent:
    """A named index member with its market-capitalization inputs.

    ``market_cap`` can be supplied directly or left as ``None``, in which
    case it is computed as ``price * shares_outstanding`` (both must then
    be present and positive).
    """

    identifier: str
    market_cap: float | None = None
    price: float | None = None
    shares_outstanding: float | None = None

    def __post_init__(self) -> None:
        if not self.identifier:
            raise ValueError("constituent identifier must be nonempty")
        if self.market_cap is None:
            if self.price is None or self.shares_outstanding is None:
                raise ValueError(
                    f"{self.identifier}: supply market_cap or both price "
                    "and shares_outstanding"
                )
        if self.price is not None and not self.price > 0:
            raise ValueError(f"{self.identifier}: price must be positive")
        if self.shares_outstanding is not None and not self.shares_outstanding > 0:
            raise ValueError(
                f"{self.identifier}: shares_outstanding must be positive"
            )
        cap = (
            float(self.market_cap)
            if self.market_cap is not None
            else float(self.price) * float(self.shares_outstanding)
        )
        if not np.isfinite(cap):
            raise ValueError(f"{self.identifier}: market_cap must be finite")
        if cap < 0:
            raise RebalanceError(
                f"{self.identifier}: market_cap {cap!r} is negative"
            )
        object.__setattr__(self, "market_cap", cap)


def _check_unique(identifiers: Sequence[str]) -> None:
    if len(set(identifiers)) == len(identifiers):
        return
    seen: set[str] = set()
    dupes: set[str] = set()
    for ident in identifiers:
        if ident in seen:
            dupes.add(ident)
        seen.add(ident)
    raise RebalanceError(f"duplicate identifiers: {sorted(dupes)}")


def _check_lengths(identifiers: tuple[str, ...], w: np.ndarray) -> None:
    if w.ndim != 1 or len(identifiers) != w.size:
        raise ValueError("identifiers and weights must match in length")
    if w.size == 0:
        raise RebalanceError("weight vector has no entries")


def _check_weights(w: np.ndarray) -> None:
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0.0).any() or (w > 1.0).any():
        raise ValueError("weights must lie in [0, 1]")
    total = float(w.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights summing to one, keyed by identifier.

    Entry order is stable (input order is preserved) and identifiers are
    unique. The weights array is read-only once constructed.
    """

    identifiers: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(str(i) for i in self.identifiers)
        w = np.array(self.weights, dtype=float)
        _check_lengths(ids, w)
        _check_unique(ids)
        _check_weights(w)
        w.setflags(write=False)
        object.__setattr__(self, "identifiers", ids)
        object.__setattr__(self, "weights", w)

    @classmethod
    def _of_unique(
        cls, identifiers: tuple[str, ...], weights: np.ndarray
    ) -> WeightVector:
        """A vector over identifiers already checked to be unique strings,
        as a parsed file's are: only the weights are checked. ``weights``
        must be a new float array; the vector keeps it, read-only."""
        w = np.asarray(weights, dtype=float)
        _check_lengths(identifiers, w)
        _check_weights(w)
        w.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "identifiers", identifiers)
        object.__setattr__(out, "weights", w)
        return out

    def reweighted(self, raw: np.ndarray) -> WeightVector:
        """A vector over the same identifiers whose weights are ``raw``
        scaled to sum to one.

        For the output of a transform: the identifiers were checked when
        this vector was built and are shared as they are, and the scaled
        weights are checked once, as the constructor checks them.
        """
        raw = np.asarray(raw, dtype=float)
        if raw.shape != self.weights.shape:
            raise ValueError("identifiers and weights must match in length")
        return self._of_unique(self.identifiers, scale_to_one(raw))

    @property
    def n(self) -> int:
        """Number of entries."""
        return len(self.identifiers)

    @property
    def entries(self) -> list[tuple[str, float]]:
        """(identifier, weight) pairs in stable order."""
        return list(zip(self.identifiers, self.weights.tolist()))

    def as_dict(self) -> dict[str, float]:
        return dict(self.entries)

    def __len__(self) -> int:
        return self.n


def normalize(raw: Iterable[float] | np.ndarray) -> np.ndarray:
    """Scale nonnegative values so they sum to one.

    Raises ``RebalanceError`` on any negative input and when the total
    is zero. Values whose sum overflows, such as two of 1e308, are scaled
    by their maximum first. Idempotent up to floating-point roundoff.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional array of values")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    if np.any(arr < 0.0):
        idx = int(np.argmin(arr))
        raise RebalanceError(f"entry {idx} is negative: {arr[idx]!r}")
    return scale_to_one(arr)


def scale_to_one(arr: np.ndarray) -> np.ndarray:
    """``arr`` divided by its sum, for values already known to be finite
    and nonnegative; ``normalize`` is the checked entry point."""
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if not np.isfinite(total):
        # The sum overflowed: scale by the largest entry first. Only then,
        # so that finite sums keep their exact quotients.
        arr = arr / arr.max()
        total = float(arr.sum())
    if total <= 0.0:
        raise RebalanceError("entries sum to zero; nothing to normalize")
    return arr / total


class Universe(Sequence[Constituent]):
    """Constituents held as columns, as ``parse_universe`` reads them.

    A read-only sequence over the identifiers and market caps, plus the
    prices and shares when the source gave those instead of caps. A
    ``Constituent`` is built only when an item is read, so a large
    universe costs a few arrays rather than one object per row, and
    ``weights_from_market_caps`` reads the cap column directly. Compares
    equal to any sequence holding the same constituents.
    """

    def __init__(
        self,
        identifiers: tuple[str, ...],
        market_caps: np.ndarray,
        prices: np.ndarray | None = None,
        shares: np.ndarray | None = None,
    ) -> None:
        self.identifiers = identifiers
        self.market_caps = market_caps
        self._prices = prices
        self._shares = shares
        self._checked_ids: tuple[str, ...] | None = None

    @classmethod
    def _checked(
        cls,
        identifiers: tuple[str, ...],
        market_caps: np.ndarray,
        prices: np.ndarray | None = None,
        shares: np.ndarray | None = None,
    ) -> Universe:
        """A universe whose identifiers are known to be unique, nonempty
        strings, as ``parse_universe`` checks them, so that
        ``weights_from_market_caps`` does not check them again."""
        out = cls(identifiers, market_caps, prices, shares)
        out._checked_ids = identifiers
        return out

    def _constituent(self, i: int) -> Constituent:
        if self._prices is None or self._shares is None:
            return Constituent(
                self.identifiers[i], market_cap=float(self.market_caps[i])
            )
        return Constituent(
            self.identifiers[i],
            price=float(self._prices[i]),
            shares_outstanding=float(self._shares[i]),
        )

    def __len__(self) -> int:
        return len(self.identifiers)

    @overload
    def __getitem__(self, key: int) -> Constituent: ...

    @overload
    def __getitem__(self, key: slice) -> list[Constituent]: ...

    def __getitem__(self, key: int | slice) -> Constituent | list[Constituent]:
        picked = range(len(self))[key]
        if isinstance(picked, range):
            return [self._constituent(i) for i in picked]
        return self._constituent(picked)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"Universe(n={len(self)}, first={self[:3]!r})"


def weights_from_market_caps(universe: Sequence[Constituent]) -> WeightVector:
    """Market-cap weights: each constituent's share of the aggregate cap.

    Zero-cap constituents are kept with weight zero so positions stay
    index-aligned. Order matches the input order. A ``Universe`` is read
    by its columns; any other sequence of constituents, item by item. The
    identifiers of a parsed ``Universe`` were checked by the parse and are
    not checked again; all others get the full ``WeightVector`` checks.
    """
    if not universe:
        raise RebalanceError("universe is empty")
    checked = False
    if isinstance(universe, Universe):
        ids, caps = universe.identifiers, universe.market_caps
        checked = universe._checked_ids is ids
    else:
        ids = tuple(c.identifier for c in universe)
        caps = np.array([c.market_cap for c in universe], dtype=float)
    if np.any(caps < 0.0):
        idx = int(np.argmin(caps))
        raise RebalanceError(
            f"{ids[idx]}: market_cap {caps[idx]!r} is negative"
        )
    if not np.any(caps > 0.0):
        raise RebalanceError("all market caps are zero")
    if checked:
        return WeightVector._of_unique(ids, normalize(caps))
    return WeightVector(ids, normalize(caps))
