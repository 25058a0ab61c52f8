"""Shared builders for the test suite."""

from __future__ import annotations

import csv
import io
import itertools
import math
import re

import numpy as np

from powerindex import RebalanceError, WeightVector, normalize


def whole(message: str) -> str:
    """A ``pytest.raises`` pattern that matches ``message`` and nothing else."""
    return f"^{re.escape(message)}$"


def make_ids(n: int) -> tuple[str, ...]:
    return tuple(f"C{i:03d}" for i in range(n))


def wv(values, ids=None) -> WeightVector:
    """WeightVector over generated ticker-like identifiers."""
    arr = np.asarray(values, dtype=float)
    return WeightVector(make_ids(arr.size) if ids is None else tuple(ids), arr)


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
    as text mode reads them; a field longer than its limit is an input
    error at the row that holds it."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    reader = csv.reader(io.StringIO(text))
    for num in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            if not str(exc).startswith("field larger"):
                raise
            limit = csv.field_size_limit()
            raise RebalanceError(
                f"row {num}: field longer than {limit} characters"
            ) from None
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
    """(ids, caps, prices, shares) of a universe CSV; prices and shares
    are None for an ``id,market_cap`` file."""
    header, rows = _reference_rows(text)
    if header not in UNIVERSE_SCHEMAS:
        raise RebalanceError(
            f"unrecognized header {','.join(header)!r}; expected "
            "'id,market_cap' or 'id,price,shares'"
        )
    ids, caps, prices, shares = [], [], [], []
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
        prices.append(price)
        shares.append(count)
        caps.append(price * count)
    if UNIVERSE_SCHEMAS[header] == 1:
        return tuple(ids), caps, None, None
    return tuple(ids), caps, prices, shares


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
    return WeightVector(tuple(ids), normalize(values))
