"""Constituents and validated index weight vectors.

Weights live on the probability simplex: nonnegative, summing to one
within ``SUM_TOL``. Zero-weight constituents are kept in place rather
than dropped, so positions stay aligned across transforms and
before/after comparisons.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
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

    A record declares its fields as class annotations, in order. The
    base's ``__init__`` is the only code that stores a record's fields: it
    takes every field, by position or by keyword, stores it unchecked and
    makes an ndarray field read-only. A record with defaults or checks
    writes its own constructor, which takes the fields in order as its
    parameters, converts and checks them, and hands them to the base by
    position. ``_of`` stores values derived from checked ones without the
    checks. A pickle or a copy is rebuilt by the record's constructor, so
    it is checked as the record was. The base gives the field names as
    ``_fields`` (and as ``__match_args__``, for positional ``match``
    patterns), the values by name from ``_asdict()``, a ``repr`` of the
    fields, ``==`` between records of one class whose fields are equal, a
    hash of the field values, and fields that cannot be assigned or
    deleted.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = tuple(vars(cls).get("__annotations__", ()))
        cls._fields = cls.__match_args__ = cls._fields + own

    def __init__(self, *values: Any, **named: Any) -> None:
        """Each field by position, then the rest by keyword; a ``TypeError``
        names a field that is missing, given twice or unknown. An ndarray
        field is made read-only in place."""
        fields = self._fields
        if named or len(values) != len(fields):
            record, given = type(self).__name__, len(values)
            if given > len(fields):
                raise TypeError(f"{record} takes {len(fields)} fields, got {given}")
            for name in fields[given:]:
                if name not in named:
                    raise TypeError(f"{record} is missing field {name!r}")
                values += (named.pop(name),)
            for name in named:
                kind = "repeated" if name in fields else "unknown"
                raise TypeError(f"{record} got {kind} field {name!r}")
        for name, value in zip(fields, values):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            _setattr(self, name, value)

    @classmethod
    def _of(cls, *values: Any) -> Any:
        """A record of ``values``, one per field in order, stored without
        the constructor's checks: for values derived from checked ones."""
        out = object.__new__(cls)
        _Record.__init__(out, *values)
        return out

    def __reduce__(self) -> tuple[Any, ...]:
        # The fields only, rebuilt by the constructor: a memo is not pickled.
        return type(self), self._values()

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
    """A named index member and its market capitalization.

    The identifier is read as ``str(identifier)`` and must be nonempty, as
    ``Universe`` and ``WeightVector`` read identifiers; the cap must be
    finite and nonnegative.
    """

    identifier: str
    market_cap: float

    def __init__(self, identifier: object, market_cap: float) -> None:
        ident = str(identifier)
        _check_ids((ident,))
        cap = float(market_cap)
        if not math.isfinite(cap):
            raise ValueError(f"{ident}: market_cap must be finite")
        if cap < 0:
            raise RebalanceError(f"{ident}: market_cap {cap!r} is negative")
        _Record.__init__(self, ident, cap)


def _check_ids(identifiers: Sequence[str]) -> None:
    if not all(identifiers):
        raise ValueError("constituent identifier must be nonempty")
    if len(set(identifiers)) < len(identifiers):
        dupes = sorted(i for i, count in Counter(identifiers).items() if count > 1)
        raise RebalanceError(f"duplicate identifiers: {dupes}")


def _columns(
    identifiers: Iterable[object], values: Iterable[float], what: str
) -> tuple[tuple[str, ...], np.ndarray]:
    """An id column as it enters the library: ``identifiers`` as strings,
    checked by ``_check_ids``, and ``values``, called ``what`` in messages,
    as a 1-D float array of the same length."""
    ids = tuple(map(str, identifiers))
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or len(ids) != arr.size:
        raise ValueError(f"identifiers and {what} must match in length")
    _check_ids(ids)
    return ids, arr


def _check_weights(w: np.ndarray) -> None:
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
        self.__post_init__(identifiers, weights)

    def __post_init__(
        self, identifiers: Iterable[str], weights: Iterable[float]
    ) -> None:
        """The constructor's checks, a method of their own so that
        ``perfbench/tracing.py`` can time them."""
        ids, w = _columns(identifiers, weights, "weights")
        if w.size == 0:
            raise RebalanceError("weight vector has no entries")
        _check_weights(w)
        _Record.__init__(self, ids, w)

    @classmethod
    def _scaled(cls, identifiers: tuple[str, ...], raw: np.ndarray) -> WeightVector:
        """``raw`` over its sum, stored by ``_of`` without the checks. The
        caller has checked the ids as the constructor does and gives finite
        nonnegative ``raw``, such as caps, weight-file values or the cap
        rule's output, with a positive sum that cannot overflow. So the
        quotients lie in [0, 1] and sum to one within rounding;
        tests/test_weights.py checks each caller."""
        return cls._of(identifiers, raw / float(np.add.reduce(raw)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.identifiers == other.identifiers and np.array_equal(
            self.weights, other.weights
        )

    @property
    def n(self) -> int:
        """Number of entries."""
        return len(self.identifiers)

    def __len__(self) -> int:
        return self.n


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


class Universe(_LazySequence[Constituent], _Record):
    """Constituents held as columns: identifiers and market caps.

    A frozen record of two fields, whose cap column is read-only, and a
    read-only sequence that builds a ``Constituent`` only when an item is
    read: so a large universe costs a few arrays rather than one object
    per row, and ``weights_from_market_caps`` reads the cap column
    directly. Its ``==``, ``repr`` and lack of a hash are the sequence's.
    The constructor checks as the parse does: identifiers become strings,
    nonempty and unique, and caps must be finite and nonnegative, the
    first bad one named as its ``Constituent`` names it.
    """

    identifiers: tuple[str, ...]
    market_caps: np.ndarray

    def __init__(
        self, identifiers: Iterable[object], market_caps: Iterable[float]
    ) -> None:
        ids, caps = _columns(identifiers, market_caps, "market caps")
        # NaN fails both comparisons; the first bad cap is sought only then.
        if caps.size and not (
            0.0 <= np.minimum.reduce(caps) and np.maximum.reduce(caps) < math.inf
        ):
            i = int((~(caps >= 0.0) | np.isinf(caps)).argmax())
            Constituent(ids[i], caps[i])  # raises its message
        _Record.__init__(self, ids, caps)

    def __len__(self) -> int:
        return len(self.identifiers)

    def _items(self, positions: range) -> list[Constituent]:
        ids, caps = self.identifiers, self.market_caps
        return [Constituent(ids[i], caps[i]) for i in positions]


def weights_from_market_caps(universe: Sequence[Constituent]) -> WeightVector:
    """Market-cap weights: each constituent's share of the aggregate cap.

    Zero-cap constituents are kept with weight zero so positions stay
    index-aligned. Order matches the input order. Any sequence of
    constituents other than a ``Universe`` is first made into one, whose
    constructor checks it; a ``Universe`` was checked when it was built
    and is frozen, with read-only caps, so its caps are only scaled to one.
    """
    if not universe:
        raise RebalanceError("universe is empty")
    if not isinstance(universe, Universe):
        universe = Universe(
            [c.identifier for c in universe], [c.market_cap for c in universe]
        )
    caps = universe.market_caps
    peak = float(np.maximum.reduce(caps))
    if not peak > 0.0:
        raise RebalanceError("all market caps are zero")
    # Caps whose sum overflows, as two caps of 1e308 do, are scaled over
    # their peak first: only then, so that finite sums keep their exact
    # quotients. With peak * n below 1e300 no rounding carries the sum past
    # 1.8e308.
    if peak * caps.size >= 1e300:
        with np.errstate(over="ignore"):
            if not math.isfinite(np.add.reduce(caps)):
                caps = caps / peak
    return WeightVector._scaled(universe.identifiers, caps)
