"""File ingestion and report serialization.

Constituent universes arrive as CSV with one of two headers:
``id,market_cap`` or ``id,price,shares``. Rebalance reports are written
as CSV (``# key=value`` summary comments, then one row per constituent)
or JSON (a single object with schema_version, method, params, summary
and rows). All file-bound numbers are rendered at full precision so
reports round-trip exactly; rounding to 6 significant digits is a
console concern only.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Sequence

import numpy as np

from .diagnostics import DiagnosticsReport
from .errors import (
    DuplicateIdentifierError,
    MalformedHeaderError,
    MalformedRowError,
    NonFiniteNumberError,
    WeightSumError,
)
from .weights import Universe, WeightVector, normalize

SCHEMA_VERSION = 1

UNIVERSE_HEADERS = {
    ("id", "market_cap"): "market_cap",
    ("id", "price", "shares"): "price_shares",
}
REPORT_HEADER = ("id", "weight_before", "weight_after", "delta")
BARE_WEIGHT_HEADER = ("id", "weight")

# External weight files may carry rounded values; renormalize while the
# sum is within this window of 1, reject beyond it.
RENORMALIZE_WINDOW = 1e-3


def _read_text(source: str | Path | IO[str]) -> str:
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_text(encoding="utf-8")


def _header_cells(row: list[str]) -> tuple[str, ...]:
    return tuple(c.strip().lstrip("﻿").lower() for c in row)


def _parse_number(field: Any, where: str, column: str, positive: bool = False) -> float:
    """A finite number that is nonnegative, or positive if asked."""
    try:
        value = float(field)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRowError(
            f"{where}: {column} value {field!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise NonFiniteNumberError(
            f"{where}: {column} value {field!r} is not finite"
        )
    if value < 0.0 or (positive and value == 0.0):
        need = "positive" if positive else "nonnegative"
        raise MalformedRowError(f"{where}: {column} must be {need}, got {value!r}")
    return value


def _data_rows(reader: Iterator[list[str]]) -> Iterator[tuple[str, list[str]]]:
    """Non-blank, non-comment rows, each named by its 1-based file row."""
    for row_num, row in enumerate(reader, start=1):
        if not "".join(row).strip():
            continue
        if row[0].lstrip().startswith("#"):
            continue
        yield f"row {row_num}", row


def _id_rows(
    rows: Iterable[tuple[str, Sequence[Any]]], width: int
) -> Iterator[tuple[str, str, Sequence[Any]]]:
    """Check that each row has ``width`` fields and leads with a nonempty
    identifier not seen before; yield its name, identifier and fields."""
    seen: set[str] = set()
    for where, row in rows:
        if len(row) != width:
            raise MalformedRowError(
                f"{where}: expected {width} fields, got {len(row)}"
            )
        ident = row[0].strip()
        if not ident:
            raise MalformedRowError(f"{where}: empty identifier")
        if ident in seen:
            raise DuplicateIdentifierError(
                f"{where}: duplicate identifier {ident!r}"
            )
        seen.add(ident)
        yield where, ident, row


def parse_universe(source: str | Path | IO[str]) -> Universe:
    """Read a constituent CSV, auto-detecting which schema the header
    declares. Market caps are computed from price and shares when the
    file carries those instead. The rows fill columns, returned as a
    ``Universe`` that builds each ``Constituent`` only when it is read."""
    reader = csv.reader(io.StringIO(_read_text(source)))
    rows = _data_rows(reader)
    try:
        _, header_row = next(rows)
    except StopIteration:
        raise MalformedHeaderError("input is empty; expected a header row") from None
    header = _header_cells(header_row)
    schema = UNIVERSE_HEADERS.get(header)
    if schema is None:
        raise MalformedHeaderError(
            f"unrecognized header {','.join(header)!r}; expected "
            "'id,market_cap' or 'id,price,shares'"
        )

    ids: list[str] = []
    caps: list[float] = []
    prices: list[float] = []
    shares: list[float] = []
    for where, ident, row in _id_rows(rows, len(header)):
        ids.append(ident)
        if schema == "market_cap":
            caps.append(_parse_number(row[1], where, "market_cap"))
            continue
        price = _parse_number(row[1], where, "price", positive=True)
        count = _parse_number(row[2], where, "shares", positive=True)
        if not math.isfinite(price * count):
            raise NonFiniteNumberError(
                f"{where}: market cap {price!r} * {count!r} is not finite"
            )
        prices.append(price)
        shares.append(count)
        caps.append(price * count)
    if schema == "market_cap":
        return Universe(tuple(ids), np.array(caps, dtype=float))
    return Universe(
        tuple(ids),
        np.array(caps, dtype=float),
        np.array(prices, dtype=float),
        np.array(shares, dtype=float),
    )


def _fmt(value: Any) -> str:
    """Full-precision rendering for file output."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_payload(
    method: str,
    params: dict[str, float],
    mu: WeightVector,
    eta: WeightVector,
    report: DiagnosticsReport,
) -> dict[str, Any]:
    """Assemble the serializable report object, stable field order."""
    after = eta.as_dict()
    rows = [
        {
            "id": ident,
            "weight_before": float(before),
            "weight_after": float(after[ident]),
            "delta": float(after[ident]) - float(before),
        }
        for ident, before in mu.entries
    ]
    summary = {
        "turnover": report.turnover,
        "max_before": report.max_before,
        "max_after": report.max_after,
        "max_increased": report.max_increased,
        "order_violation_count": len(report.order_violations),
        "hhi_before": report.hhi_before,
        "hhi_after": report.hhi_after,
        "top_k_sums": {
            str(k): [b, a] for k, (b, a) in sorted(report.top_k_sums.items())
        },
        "diversity_before": report.diversity_before,
        "diversity_after": report.diversity_after,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "params": dict(params),
        "summary": summary,
        "rows": rows,
    }


def render_report_json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_report_csv(payload: dict[str, Any]) -> str:
    buf = io.StringIO()
    buf.write(f"# schema_version={payload['schema_version']}\n")
    buf.write(f"# method={payload['method']}\n")
    for key, value in payload["params"].items():
        buf.write(f"# {key}={_fmt(value)}\n")
    summary = payload["summary"]
    for key, value in summary.items():
        if key == "top_k_sums":
            for k, (before, after) in value.items():
                buf.write(f"# top{k}_before={_fmt(before)}\n")
                buf.write(f"# top{k}_after={_fmt(after)}\n")
        else:
            buf.write(f"# {key}={_fmt(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for row in payload["rows"]:
        writer.writerow(
            [
                row["id"],
                _fmt(row["weight_before"]),
                _fmt(row["weight_after"]),
                _fmt(row["delta"]),
            ]
        )
    return buf.getvalue()


def write_report(path: str | Path, payload: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        text = render_report_json(payload)
    elif fmt == "csv":
        text = render_report_csv(payload)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")


def _weights_from_rows(
    rows: Iterable[tuple[str, Sequence[Any]]], width: int, weight_col: int
) -> WeightVector:
    ids: list[str] = []
    values: list[float] = []
    for where, ident, row in _id_rows(rows, width):
        ids.append(ident)
        values.append(_parse_number(row[weight_col], where, "weight"))
    if not ids:
        raise MalformedHeaderError("weight file carries no rows")
    total = sum(values)
    if abs(total - 1.0) >= RENORMALIZE_WINDOW:
        raise WeightSumError(
            f"weights sum to {total!r}; more than {RENORMALIZE_WINDOW} from 1, "
            "refusing to renormalize"
        )
    return WeightVector(tuple(ids), normalize(values))


def _report_json_rows(text: str) -> Iterator[tuple[str, list[Any]]]:
    """The (id, weight_after) pair of each row of a JSON report."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedHeaderError(f"not valid report JSON: {exc}") from exc
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not isinstance(rows, list) or not rows:
        raise MalformedHeaderError("report JSON carries no rows")
    for pos, row in enumerate(rows, start=1):
        if not (isinstance(row, dict) and isinstance(row.get("id"), str)):
            raise MalformedRowError(f"report row {pos}: expected a string 'id' field")
        if "weight_after" not in row:
            raise MalformedRowError(
                f"report row {pos}: expected a 'weight_after' field"
            )
        yield f"report row {pos}", [row["id"], row["weight_after"]]


def read_weight_file(source: str | Path | IO[str]) -> WeightVector:
    """Read per-constituent weights from a report file or a bare CSV.

    Accepts a JSON rebalance report (the weight_after column is used), a
    CSV rebalance report, or a bare ``id,weight`` CSV. Sums within
    ``RENORMALIZE_WINDOW`` of 1 are renormalized; anything further off is
    rejected as a real error rather than rounding noise.
    """
    text = _read_text(source)
    name = str(source) if not hasattr(source, "read") else ""
    stripped = text.lstrip()
    if name.endswith(".json") or stripped.startswith("{"):
        return _weights_from_rows(_report_json_rows(text), 2, 1)

    reader = csv.reader(io.StringIO(text))
    rows = _data_rows(reader)
    try:
        _, header_row = next(rows)
    except StopIteration:
        raise MalformedHeaderError("input is empty; expected a header row") from None
    header = _header_cells(header_row)
    if header == REPORT_HEADER:
        weight_col = 2
    elif header == BARE_WEIGHT_HEADER:
        weight_col = 1
    else:
        raise MalformedHeaderError(
            f"unrecognized weight-file header {','.join(header)!r}; expected "
            "'id,weight' or 'id,weight_before,weight_after,delta'"
        )
    return _weights_from_rows(rows, len(header), weight_col)
