"""Constituents and validated index weight vectors.

Weights live on the probability simplex: nonnegative, summing to one
within ``SUM_TOL``. Zero-weight constituents are kept in place rather
than dropped, so positions stay aligned across transforms and
before/after comparisons.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from typing import Any, TypeVar, overload

import numpy as np

from .errors import RebalanceError

SUM_TOL = 1e-12

_T = TypeVar("_T")


# Writes a record's field past its frozen ``__setattr__``. Unlike a write
# through ``__dict__``, it adds no dict object to the instance.
_setattr = object.__setattr__


class _Record:
    """Base of the package's frozen records.

    A record declares its fields as class annotations, in order. Its
    ``__init__`` takes them as parameters, with their defaults, checks
    them and writes each with ``_setattr``. The base gives the field
    names as ``_fields`` (and as ``__match_args__``, for positional
    ``match`` patterns), the values by name from ``_asdict()``, a
    ``repr`` of the fields, ``==`` between records of one class whose
    fields are equal, a hash of the field values, and fields that cannot
    be assigned or deleted.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = tuple(vars(cls).get("__annotations__", ()))
        cls._fields = cls.__match_args__ = cls._fields + own

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict[str, Any]:
        """The fields by name, in order."""
        return dict(zip(self._fields, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Constituent(_Record):
    """A named index member with its market-capitalization inputs.

    ``market_cap`` can be supplied directly or left as ``None``, in which
    case it is computed as ``price * shares_outstanding`` (both must then
    be present and positive).
    """

    identifier: str
    market_cap: float
    price: float | None
    shares_outstanding: float | None

    def __init__(
        self,
        identifier: str,
        market_cap: float | None = None,
        price: float | None = None,
        shares_outstanding: float | None = None,
    ) -> None:
        if not identifier:
            raise ValueError("constituent identifier must be nonempty")
        if market_cap is None:
            if price is None or shares_outstanding is None:
                raise ValueError(
                    f"{identifier}: supply market_cap or both price "
                    "and shares_outstanding"
                )
        if price is not None and not price > 0:
            raise ValueError(f"{identifier}: price must be positive")
        if shares_outstanding is not None and not shares_outstanding > 0:
            raise ValueError(f"{identifier}: shares_outstanding must be positive")
        cap = (
            float(market_cap)
            if market_cap is not None
            else float(price) * float(shares_outstanding)  # type: ignore[arg-type]
        )
        if not math.isfinite(cap):
            raise ValueError(f"{identifier}: market_cap must be finite")
        if cap < 0:
            raise RebalanceError(f"{identifier}: market_cap {cap!r} is negative")
        _setattr(self, "identifier", identifier)
        _setattr(self, "market_cap", cap)
        _setattr(self, "price", price)
        _setattr(self, "shares_outstanding", shares_outstanding)


def _check_ids(identifiers: Sequence[str]) -> None:
    if not all(identifiers):
        raise ValueError("constituent identifier must be nonempty")
    if len(set(identifiers)) == len(identifiers):
        return
    seen: set[str] = set()
    dupes: set[str] = set()
    for ident in identifiers:
        if ident in seen:
            dupes.add(ident)
        seen.add(ident)
    raise RebalanceError(f"duplicate identifiers: {sorted(dupes)}")


def _check_weights(w: np.ndarray) -> None:
    # NaN fails both comparisons; the checks below only pick the message.
    if not (0.0 <= np.minimum.reduce(w) and np.maximum.reduce(w) <= 1.0):
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0.0).any() or (w > 1.0).any():
            raise ValueError("weights must lie in [0, 1]")
    total = float(np.add.reduce(w))
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")


class WeightVector(_Record):
    """Nonnegative weights summing to one, keyed by identifier.

    Entry order is stable (input order is preserved) and identifiers are
    unique. The weights array is read-only once constructed.
    """

    identifiers: tuple[str, ...]
    weights: np.ndarray

    def __init__(self, identifiers: Iterable[str], weights: Iterable[float]) -> None:
        _setattr(self, "identifiers", identifiers)
        _setattr(self, "weights", weights)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The constructor's checks, a method of their own so that
        ``perfbench/tracing.py`` can time them."""
        ids = tuple(map(str, self.identifiers))
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or len(ids) != w.size:
            raise ValueError("identifiers and weights must match in length")
        if w.size == 0:
            raise RebalanceError("weight vector has no entries")
        _check_ids(ids)
        _check_weights(w)
        w.setflags(write=False)
        _setattr(self, "identifiers", ids)
        _setattr(self, "weights", w)

    @classmethod
    def _wrap(cls, identifiers: tuple[str, ...], w: np.ndarray) -> WeightVector:
        """``w`` itself as a vector, read-only and unchecked (see ``_scaled``)."""
        w.setflags(write=False)
        out = object.__new__(cls)
        _setattr(out, "identifiers", identifiers)
        _setattr(out, "weights", w)
        return out

    @classmethod
    def _scaled(cls, identifiers: tuple[str, ...], raw: np.ndarray) -> WeightVector:
        """``_wrap`` of ``raw`` over its sum. The caller has checked the ids
        as the constructor does and gives finite nonnegative ``raw``, such
        as caps, weight-file values or the cap rule's output, with a positive
        sum that cannot overflow. So the quotients lie in [0, 1] and sum to
        one within rounding; tests/test_weights.py checks each caller."""
        return cls._wrap(identifiers, raw / float(np.add.reduce(raw)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightVector):
            return NotImplemented
        return self.identifiers == other.identifiers and np.array_equal(
            self.weights, other.weights
        )

    def __getstate__(self) -> dict[str, object]:
        # The fields only: the memo of concentration_metrics is not pickled.
        return {"identifiers": self.identifiers, "weights": self.weights}

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
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    if (arr < 0.0).any():
        idx = int(np.argmin(arr))
        raise RebalanceError(f"entry {idx} is negative: {arr[idx]!r}")
    arr = _summable(arr)
    total = float(np.add.reduce(arr))
    if total <= 0.0:
        raise RebalanceError("entries sum to zero; nothing to normalize")
    return arr / total


def _summable(arr: np.ndarray) -> np.ndarray:
    """Finite nonnegative ``arr`` as it is when its sum is finite, and
    otherwise, as for two caps of 1e308, over its largest entry: only then,
    so that finite sums keep their exact quotients."""
    peak = float(np.maximum.reduce(arr, initial=0.0))
    if peak * arr.size < 1e300:  # no rounding carries such a sum past 1.8e308
        return arr
    with np.errstate(over="ignore"):
        total = float(np.add.reduce(arr))
    return arr if math.isfinite(total) else arr / peak


class _LazySequence(Sequence[_T]):
    """A read-only sequence whose items are built only as they are read.

    A subclass gives ``__len__`` and ``_items(positions)``, the items at
    ``positions``, a range of valid indices in either direction. Compares
    equal to any sequence holding the same items.
    """

    def _items(self, positions: range) -> list[_T]:
        raise NotImplementedError

    @overload
    def __getitem__(self, key: int) -> _T: ...

    @overload
    def __getitem__(self, key: slice) -> list[_T]: ...

    def __getitem__(self, key: int | slice) -> _T | list[_T]:
        picked = range(len(self))[key]
        if isinstance(picked, range):
            return self._items(picked)
        return self._items(range(picked, picked + 1))[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self)}, first={self[:3]!r})"


class Universe(_LazySequence[Constituent]):
    """Constituents held as columns: identifiers and market caps, plus the
    prices and shares when ``parse_universe`` read those instead.

    A read-only sequence that builds a ``Constituent`` only when an item
    is read, so a large universe costs a few arrays rather than one object
    per row, and ``weights_from_market_caps`` reads the cap column
    directly. The constructor checks as the parse does: identifiers become
    strings, nonempty and unique, and caps must be finite and nonnegative,
    the first bad one named as its ``Constituent`` names it.
    """

    _prices: np.ndarray | None = None
    _shares: np.ndarray | None = None

    def __init__(
        self, identifiers: Iterable[object], market_caps: Iterable[float]
    ) -> None:
        ids = tuple(map(str, identifiers))
        caps = np.array(market_caps, dtype=float)
        if caps.ndim != 1 or len(ids) != caps.size:
            raise ValueError("identifiers and market caps must match in length")
        _check_ids(ids)
        # NaN fails both comparisons; the first bad cap is sought only then.
        if caps.size and not (
            0.0 <= np.minimum.reduce(caps) and np.maximum.reduce(caps) < math.inf
        ):
            i = int((~(caps >= 0.0) | np.isinf(caps)).argmax())
            Constituent(ids[i], market_cap=float(caps[i]))  # raises its message
        self.identifiers = ids
        self.market_caps = caps

    @classmethod
    def _checked(
        cls,
        identifiers: tuple[str, ...],
        market_caps: np.ndarray,
        prices: np.ndarray | None = None,
        shares: np.ndarray | None = None,
    ) -> Universe:
        """A universe over columns that ``parse_universe`` has checked as
        the constructor checks them, with the prices and shares the file
        gave in place of caps."""
        out = object.__new__(cls)
        out.identifiers, out.market_caps = identifiers, market_caps
        out._prices, out._shares = prices, shares
        return out

    def __len__(self) -> int:
        return len(self.identifiers)

    def _items(self, positions: range) -> list[Constituent]:
        ids, prices, shares = self.identifiers, self._prices, self._shares
        if prices is None or shares is None:
            caps = self.market_caps
            return [Constituent(ids[i], market_cap=float(caps[i])) for i in positions]
        return [
            Constituent(
                ids[i], price=float(prices[i]), shares_outstanding=float(shares[i])
            )
            for i in positions
        ]


def weights_from_market_caps(universe: Sequence[Constituent]) -> WeightVector:
    """Market-cap weights: each constituent's share of the aggregate cap.

    Zero-cap constituents are kept with weight zero so positions stay
    index-aligned. Order matches the input order. Any sequence of
    constituents other than a ``Universe`` is first made into one, whose
    constructor checks it; a ``Universe`` was checked when it was built,
    so its caps are only scaled to one.
    """
    if not universe:
        raise RebalanceError("universe is empty")
    if not isinstance(universe, Universe):
        universe = Universe(
            [c.identifier for c in universe], [c.market_cap for c in universe]
        )
    caps = universe.market_caps
    if not np.maximum.reduce(caps) > 0.0:
        raise RebalanceError("all market caps are zero")
    return WeightVector._scaled(universe.identifiers, _summable(caps))
