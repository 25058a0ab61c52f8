"""Shared builders for the test suite."""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from decimal import Decimal, localcontext

import numpy as np
from hypothesis import strategies as st

from powerindex import RebalanceError, WeightVector


def whole(message: str) -> str:
    """A ``pytest.raises`` pattern that matches ``message`` and nothing else."""
    return f"^{re.escape(message)}$"


def make_ids(n: int) -> tuple[str, ...]:
    return tuple(f"C{i:03d}" for i in range(n))


def wv(values, ids=None) -> WeightVector:
    """WeightVector over generated ticker-like identifiers."""
    arr = np.asarray(values, dtype=float)
    return WeightVector(make_ids(arr.size) if ids is None else tuple(ids), arr)


def scaled(values) -> np.ndarray:
    """``values`` over their plain sum."""
    arr = np.asarray(values, dtype=float)
    return arr / arr.sum()


def weights_by_id(vector: WeightVector) -> dict[str, float]:
    """Each weight of ``vector`` by its identifier."""
    return dict(zip(vector.identifiers, vector.weights.tolist()))


def reference_scale(arr: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """``arr`` over its sum. Given the input ``w`` of a power rule, whose
    max must not grow, over the divisor rule of ``power_weights``: when
    the largest quotient would exceed w's largest entry, the divisor is
    their ratio, raised to the next float until it no longer does."""
    total = float(arr.sum())
    if w is not None and arr.max() / total > w.max():
        total = float(arr.max() / w.max())
        while arr.max() / total > w.max():
            total = math.nextafter(total, math.inf)
    return arr / total


def reference_power(w: np.ndarray, p: float, knot: float = 0.0) -> np.ndarray:
    """A power rule by the plain formula: exp(p * log x) on the positive
    entries at or above ``knot``, f(knot) * (x / knot) below it, and zero
    at zero, over ``reference_scale``."""
    raw = np.zeros_like(w)
    raw[w > 0.0] = np.exp(p * np.log(w[w > 0.0]))
    below = w < knot
    if below.any():
        raw[below] = np.exp(p * np.log(knot)) * (w[below] / knot)
    return reference_scale(raw, w)


def exact_power(w: np.ndarray, p: float, knot: float = 0.0) -> list[Decimal]:
    """f(w) / sum f(w) to 60 digits, the float inputs read exactly: x**p as
    exp(p * ln x) on the positive entries at or above ``knot``, the chord
    f(knot) * (x / knot) below it, and zero at zero. As in the divisor rule
    of ``power_weights``, the divisor is f(top) / top where that is larger
    than the sum, so that the largest quotient is at most w's largest entry."""
    with localcontext() as ctx:
        ctx.prec = 60
        exponent = Decimal(p)

        def f(x: Decimal) -> Decimal:
            return (exponent * x.ln()).exp()

        xs = [Decimal(x) for x in w.tolist()]
        cut = Decimal(knot)
        at_knot = f(cut) if knot > 0.0 else Decimal(0)
        raw = [
            Decimal(0) if x == 0 else at_knot * (x / cut) if x < cut else f(x)
            for x in xs
        ]
        top = int(w.argmax())
        total = max(sum(raw), raw[top] / xs[top])
        return [r / total for r in raw]


def ulps_off(values: np.ndarray, exact: list[Decimal]) -> float:
    """The largest distance of ``values`` from ``exact``, each in units of
    the spacing of floats at its exact value rounded to a float; an exact
    zero must be met exactly."""
    worst = 0.0
    for value, x in zip(values.tolist(), exact):
        if x == 0:
            assert value == 0.0
            continue
        spacing = Decimal(float(np.spacing(float(x))))
        worst = max(worst, float(abs(Decimal(value) - x) / spacing))
    return worst


def random_simplex(
    rng: np.random.Generator,
    n: int,
    zeros: bool = False,
    ties: bool = False,
) -> np.ndarray:
    """Random positive weights normalized to one, optionally with tied
    values and zeroed entries (at least one entry stays positive)."""
    w = rng.uniform(0.05, 1.0, size=n)
    if ties and n >= 4:
        w[1] = w[0]
        w[n // 2] = w[n // 2 - 1]
    if zeros and n >= 3:
        k = max(1, n // 10)
        w[rng.choice(n - 1, size=min(k, n - 1), replace=False) + 1] = 0.0
    return w / w.sum()


@st.composite
def hard_weights(draw):
    """A knot, and weights on the simplex built from runs: ties, zeros,
    runs of adjacent floats (up or down), values near and in the subnormal
    range, and runs from the knot. One last entry takes the rest of the
    mass, so that the runs keep their exact values; order is shuffled."""
    knot = draw(st.one_of(st.just(0.01), st.floats(1e-3, 0.1)))
    values: list[float] = []
    for _ in range(draw(st.integers(1, 8))):
        x = draw(
            st.one_of(
                st.floats(1e-4, 0.012),
                st.floats(5e-324, 1e-300),
                st.sampled_from([0.0, knot, float(np.finfo(float).tiny)]),
            )
        )
        toward = draw(st.sampled_from([None, 0.0, 1.0]))
        for _ in range(draw(st.integers(1, 10))):
            if sum(values) + x > 0.9:  # leave the last entry its mass
                break
            values.append(x)
            if toward is not None:
                x = float(np.nextafter(x, toward))
    values.append(1.0 - sum(values))
    return np.array(draw(st.permutations(values))), knot


# -- a row-by-row CSV reader, kept as the reference for io's column pass:
# each row is split by csv.reader and checked in file order.

UNIVERSE_SCHEMAS = {("id", "market_cap"): 1, ("id", "price", "shares"): 2}


def _reference_number(field, where, column, positive=False):
    try:
        value = float(field)
    except (TypeError, ValueError, OverflowError):
        raise RebalanceError(
            f"{where}: {column} value {field!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise RebalanceError(f"{where}: {column} value {field!r} is not finite")
    if value < 0.0 or (positive and value == 0.0):
        need = "positive" if positive else "nonnegative"
        raise RebalanceError(f"{where}: {column} must be {need}, got {value!r}")
    return value


def _reference_records(text):
    """Each (row number, fields) that csv.reader gives, with line ends read
    as text mode reads them and no leading byte-order mark; a row that
    csv.reader refuses is an input error at that row, a field longer than
    its limit named by the limit."""
    text = text.replace("\r\n", "\n").replace("\r", "\n").removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text))
    for num in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            message = str(exc)
            if message.startswith("field larger"):
                limit = csv.field_size_limit()
                message = f"field longer than {limit} characters"
            raise RebalanceError(f"row {num}: {message}") from None
        yield num, row


def _reference_rows(text):
    """The header cells and the checked (where, id, fields) data rows."""
    rows = (
        (f"row {num}", row)
        for num, row in _reference_records(text)
        if "".join(row).strip() and not row[0].lstrip().startswith("#")
    )
    try:
        _, header_row = next(rows)
    except StopIteration:
        raise RebalanceError("input is empty; expected a header row") from None
    header = tuple(c.strip().lstrip("\ufeff").lower() for c in header_row)

    def checked():
        seen = set()
        for where, row in rows:
            if len(row) != len(header):
                raise RebalanceError(
                    f"{where}: expected {len(header)} fields, got {len(row)}"
                )
            ident = row[0].strip()
            if not ident:
                raise RebalanceError(f"{where}: empty identifier")
            if ident in seen:
                raise RebalanceError(
                    f"{where}: duplicate identifier {ident!r}"
                )
            seen.add(ident)
            yield where, ident, row

    return header, checked()


def reference_parse_universe(text):
    """(ids, caps) of a universe CSV; a cap is price times shares for an
    ``id,price,shares`` file."""
    header, rows = _reference_rows(text)
    if header not in UNIVERSE_SCHEMAS:
        raise RebalanceError(
            f"unrecognized header {','.join(header)!r}; expected "
            "'id,market_cap' or 'id,price,shares'"
        )
    ids, caps = [], []
    for where, ident, row in rows:
        ids.append(ident)
        if UNIVERSE_SCHEMAS[header] == 1:
            caps.append(_reference_number(row[1], where, "market_cap"))
            continue
        price = _reference_number(row[1], where, "price", positive=True)
        count = _reference_number(row[2], where, "shares", positive=True)
        if not math.isfinite(price * count):
            raise RebalanceError(
                f"{where}: market cap {price!r} * {count!r} is not finite"
            )
        caps.append(price * count)
    return tuple(ids), caps


def reference_read_weight_csv(text):
    """The WeightVector of a bare ``id,weight`` or report CSV."""
    header, rows = _reference_rows(text)
    if header == ("id", "weight_before", "weight_after", "delta"):
        col = 2
    elif header == ("id", "weight"):
        col = 1
    else:
        raise RebalanceError(
            f"unrecognized weight-file header {','.join(header)!r}; expected "
            "'id,weight' or 'id,weight_before,weight_after,delta'"
        )
    ids, values = [], []
    for where, ident, row in rows:
        ids.append(ident)
        values.append(_reference_number(row[col], where, "weight"))
    if not ids:
        raise RebalanceError("weight file carries no rows")
    total = sum(values)
    if abs(total - 1.0) >= 1e-3:
        raise RebalanceError(
            f"weights sum to {total!r}; more than 0.001 from 1, "
            "refusing to renormalize"
        )
    return WeightVector(tuple(ids), scaled(values))
