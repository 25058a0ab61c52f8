"""Constituents and validated index weight vectors.

Weights live on the probability simplex: nonnegative, summing to one
within ``SUM_TOL``. Zero-weight constituents are kept in place rather
than dropped, so positions stay aligned across transforms and
before/after comparisons.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from .errors import RebalanceError

SUM_TOL = 1e-12

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
    fields, ``==`` between records of one class whose fields are equal (an
    ndarray field by its values), a hash of the field values, and fields
    that cannot be assigned or deleted.
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
            if type(value) is np.ndarray:
                value.setflags(write=False)
            _setattr(self, name, value)

    @classmethod
    def _of(cls, *values: Any) -> Any:
        """A record of ``values``, one per field in order, stored without
        the constructor's checks: for values derived from checked ones.
        Its callers are ``WeightVector._scaled``, the power transforms'
        outputs, ``parse_universe``'s columns and
        ``OrderViolations._violation``."""
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
        # A field is equal if it is the same object or an equal value; an
        # array by ``np.array_equal``, as ``==`` on arrays is elementwise.
        pairs = zip(self._values(), other._values())  # type: ignore[attr-defined]
        return all(
            a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)
            for a, b in pairs
        )

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Constituent(_Record):
    """A named index member and its market capitalization.

    The identifier is read as ``str(identifier)`` and the cap as
    ``float(market_cap)``, and the row is checked as a one-name
    ``Universe`` is: a nonempty identifier, and a finite, nonnegative cap.
    """

    identifier: str
    market_cap: float

    def __init__(self, identifier: object, market_cap: float) -> None:
        ident, cap = str(identifier), float(market_cap)
        Universe((ident,), (cap,))  # a universe's checks, on one row
        _Record.__init__(self, ident, cap)


def _check_ids(identifiers: Sequence[str]) -> None:
    if not all(identifiers):
        raise ValueError("constituent identifier must be nonempty")
    _check_unique(identifiers)


def _check_unique(identifiers: Sequence[str]) -> None:
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

    def _order(self) -> np.ndarray:
        """Positions in ascending order of weight, memoized on the vector
        outside its fields, as ``concentration_metrics`` memoizes its
        metrics: the stable order, unless a report found the weights
        nondecreasing along another vector's order and stored that one.
        Tied weights may come in any order, so a caller reads only what
        every ascending order gives alike."""
        order = vars(self).get("_ascending")
        if order is None:
            order = vars(self)["_ascending"] = self.weights.argsort(kind="stable")
        return order

    @property
    def n(self) -> int:
        """Number of entries."""
        return len(self.identifiers)

    def __len__(self) -> int:
        return self.n


class Universe(_Record):
    """A universe as two columns: identifiers and market caps.

    A frozen record, so a large universe costs a few arrays rather than
    one object per row; its cap column is read-only, and
    ``weights_from_market_caps`` reads it directly. ``len()`` is the
    number of names. The constructor checks as the parse does:
    identifiers become strings, nonempty and unique, and caps must be
    finite and nonnegative, the first bad one named with its identifier.
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
            ident, cap = ids[i], float(caps[i])
            if not math.isfinite(cap):
                raise ValueError(f"{ident}: market_cap must be finite")
            raise RebalanceError(f"{ident}: market_cap {cap!r} is negative")
        _Record.__init__(self, ids, caps)

    def __len__(self) -> int:
        return len(self.identifiers)


def weights_from_market_caps(
    universe: Universe | Sequence[Constituent],
) -> WeightVector:
    """Market-cap weights: each constituent's share of the aggregate cap.

    Zero-cap constituents are kept with weight zero so positions stay
    index-aligned. Order matches the input order. A ``Universe`` was
    checked when it was built and is frozen, with read-only caps, so its
    caps are only scaled to one. So was each ``Constituent``: a sequence of
    them is only checked for repeated ids. Any other sequence is made into
    a ``Universe``, whose constructor checks it.
    """
    if not universe:
        raise RebalanceError("universe is empty")
    if isinstance(universe, Universe):
        ids, caps = universe.identifiers, universe.market_caps
    elif set(map(type, universe)) == {Constituent}:
        ids = tuple([c.identifier for c in universe])
        _check_unique(ids)
        caps = np.array([c.market_cap for c in universe], dtype=float)
    else:
        checked = Universe(
            [c.identifier for c in universe], [c.market_cap for c in universe]
        )
        ids, caps = checked.identifiers, checked.market_caps
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
    return WeightVector._scaled(ids, caps)
