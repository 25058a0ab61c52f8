"""File ingestion and report serialization.

Constituent universes arrive as CSV with one of two headers:
``id,market_cap`` or ``id,price,shares``. Rebalance reports are written
as CSV (``# key=value`` summary comments, then one row per constituent)
or JSON (a single object with schema_version, method, params, summary
and rows). All file-bound numbers are rendered at full precision so
reports round-trip exactly; rounding to 6 significant digits is a
console concern only.

Input files are read as columns. The text is split into fields in
blocks of rows, at newlines and commas, or by ``csv.reader`` from the
first block that holds a quote, a carriage return or a NUL; either way
the fields are those ``csv.reader`` gives. Blank rows and ``#`` comment
rows are dropped, each column is checked as a whole (field counts,
nonempty and unique ids, numbers as ``float()`` reads them, finite and
signed as the column needs) and kept as an array. A JSON report's rows
get the same checks on the columns pulled out of them. The column checks
say only that some row fails. Every message comes from the row checks
(``_id_rows``, ``_parse_number``), which then run over the rows in file
order and raise the error of the first row that fails, named by its
1-based row in the file, or in the JSON ``rows`` list.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .diagnostics import DiagnosticsReport
from .errors import (
    DuplicateIdentifierError,
    MalformedHeaderError,
    MalformedRowError,
    NonFiniteNumberError,
    RebalanceError,
    WeightSumError,
)
from .weights import Universe, WeightVector, normalize

SCHEMA_VERSION = 1

# A numeric field of a schema: its index in the row, its name in
# messages, and whether it must be positive (else nonnegative).
_Number = tuple[int, str, bool]

# Each universe header, with its numeric fields.
UNIVERSE_HEADERS: dict[tuple[str, ...], tuple[_Number, ...]] = {
    ("id", "market_cap"): ((1, "market_cap", False),),
    ("id", "price", "shares"): ((1, "price", True), (2, "shares", True)),
}
REPORT_HEADER = ("id", "weight_before", "weight_after", "delta")
BARE_WEIGHT_HEADER = ("id", "weight")

# External weight files may carry rounded values; renormalize while the
# sum is within this window of 1, reject beyond it.
RENORMALIZE_WINDOW = 1e-3

# Rows are split in blocks of about this many characters (or rows, where
# csv.reader splits them), so that a large file's fields are never all
# held at once.
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = 1 << 12


def _read_text(source: str | Path | IO[str]) -> str:
    """The text of ``source``, with line ends read as text mode reads them."""
    if hasattr(source, "read"):
        return source.read()
    data = Path(source).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RebalanceError(
            f"{source}: byte {data[exc.start]:#04x} at offset {exc.start} "
            "is not valid UTF-8"
        ) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _header(row: Sequence[str] | None) -> tuple[str, ...]:
    """The cells of a header row, without case, spaces or a byte-order mark."""
    if row is None:
        raise MalformedHeaderError("input is empty; expected a header row")
    return tuple(c.strip().lstrip("\ufeff").lower() for c in row)


def _universe_numbers(header: tuple[str, ...]) -> tuple[_Number, ...]:
    numbers = UNIVERSE_HEADERS.get(header)
    if numbers is None:
        raise MalformedHeaderError(
            f"unrecognized header {','.join(header)!r}; expected "
            "'id,market_cap' or 'id,price,shares'"
        )
    return numbers


def _weight_numbers(header: tuple[str, ...]) -> tuple[_Number, ...]:
    if header == REPORT_HEADER:
        return ((2, "weight", False),)
    if header == BARE_WEIGHT_HEADER:
        return ((1, "weight", False),)
    raise MalformedHeaderError(
        f"unrecognized weight-file header {','.join(header)!r}; expected "
        "'id,weight' or 'id,weight_before,weight_after,delta'"
    )


# -- The row checks: one row at a time, in file order. They hold every
# -- message, and run only to explain a failed column check.


def _parse_number(field: Any, where: str, column: str, positive: bool = False) -> float:
    """A finite number that is nonnegative, or positive if asked."""
    try:
        value = float(field)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or isinstance(field, bool):
        raise MalformedRowError(f"{where}: {column} value {field!r} is not a number")
    if not math.isfinite(value):
        raise NonFiniteNumberError(
            f"{where}: {column} value {field!r} is not finite"
        )
    if value < 0.0 or (positive and value == 0.0):
        need = "positive" if positive else "nonnegative"
        raise MalformedRowError(f"{where}: {column} must be {need}, got {value!r}")
    return value


def _is_skipped(row: Sequence[str]) -> bool:
    """A blank row, or a comment row: its first field starts with ``#``."""
    return not "".join(row).strip() or row[0].lstrip().startswith("#")


def _data_rows(reader: Iterator[list[str]]) -> Iterator[tuple[str, list[str]]]:
    """Non-blank, non-comment rows, each named by its 1-based file row."""
    for row_num, row in enumerate(reader, start=1):
        if not _is_skipped(row):
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


def _explain(
    rows: Iterable[tuple[str, Sequence[Any]]],
    width: int,
    numbers: tuple[_Number, ...],
) -> NoReturn:
    """Run the row checks in file order and raise the error of the first
    row that fails, for input whose column checks failed."""
    for where, _, row in _id_rows(rows, width):
        values = [
            _parse_number(row[col], where, name, positive)
            for col, name, positive in numbers
        ]
        # Two numbers are a price and a share count.
        if len(values) == 2 and not math.isfinite(values[0] * values[1]):
            raise NonFiniteNumberError(
                f"{where}: market cap {values[0]!r} * {values[1]!r} is not finite"
            )
    raise AssertionError("a column check failed on rows that pass the row checks")


def _explain_csv(
    text: str, numbers_for: Callable[[tuple[str, ...]], tuple[_Number, ...]]
) -> NoReturn:
    """``_explain`` over the rows of a CSV text, as ``csv.reader`` splits them."""
    rows = _data_rows(csv.reader(io.StringIO(text)))
    header = _header(next(rows, (None, None))[1])
    _explain(rows, len(header), numbers_for(header))


# -- The column checks: every row at once, without a message.


class _ColumnCheckFailed(Exception):
    """Some row fails a check; ``_explain`` says which and why."""


def _blocks(text: str) -> Iterator[tuple[list[str], np.ndarray, bool]]:
    """The rows of a CSV text in blocks of a few thousand, so that a large
    file is never held as fields all at once. Each block is the fields of
    its rows in one list, the number of fields in each row, and whether a
    row may be a comment.

    Text is split at newlines and commas, up to the first block holding a
    quote, a carriage return or a NUL; ``csv.reader`` splits the rest.
    Splitting needs no copy of the text at four bytes a character, as a
    ``StringIO`` for ``csv.reader`` does: at n=50,000, leaving all text to
    ``csv.reader`` made a CLI ``solve`` peak 4.5 MB higher and take about
    a sixth longer on a 2-vCPU Xeon.
    """
    limit = csv.field_size_limit()
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _BLOCK_CHARS)
        if end < 0:
            end = len(text)
        chunk = text[pos:end]
        if '"' in chunk or "\r" in chunk or "\0" in chunk:
            yield from _reader_blocks(text[pos:])
            return
        pos = end + 1
        fields = chunk.replace("\n", ",").split(",")
        if len(chunk) > limit and max(map(len, fields)) > limit:
            raise _ColumnCheckFailed  # csv.reader refuses so long a field
        # Field k of the block is followed by separator k: a newline ends
        # its row. Neither separator is a byte of a longer UTF-8 sequence.
        raw = np.frombuffer(chunk.encode("utf-8", "surrogatepass"), np.uint8)
        separators = raw[(raw == 10) | (raw == 44)]
        ends = np.flatnonzero(separators == 10)
        counts = np.diff(ends, prepend=-1, append=len(separators))
        yield fields, counts, "#" in chunk


def _reader_blocks(text: str) -> Iterator[tuple[list[str], np.ndarray, bool]]:
    """``_blocks`` of ``text`` as ``csv.reader`` splits it."""
    reader = csv.reader(io.StringIO(text))
    try:
        while rows := list(islice(reader, _BLOCK_ROWS)):
            counts = np.fromiter(map(len, rows), np.intp, len(rows))
            yield list(chain.from_iterable(rows)), counts, True
    except csv.Error:
        raise _ColumnCheckFailed from None


def _split_header(
    blocks: Iterator[tuple[list[str], np.ndarray, bool]],
) -> tuple[list[str] | None, Iterator[tuple[list[str], np.ndarray, bool]]]:
    """The first row that is not blank or a comment, and the blocks of
    the rows after it."""
    for fields, counts, comments in blocks:
        start = 0
        for i, count in enumerate(counts.tolist()):
            row = fields[start:start + count]
            start += count
            if not _is_skipped(row):
                rest = (fields[start:], counts[i + 1:], comments)
                return row, chain([rest], blocks)
    return None, blocks


def _drop_skipped(
    fields: list[str], counts: np.ndarray, suspect: np.ndarray
) -> list[str]:
    """``fields`` without the rows marked ``suspect``, each of which must
    be blank or a comment."""
    starts = (np.cumsum(counts) - counts).tolist()
    for i in np.flatnonzero(suspect).tolist():
        if not _is_skipped(fields[starts[i]:starts[i] + int(counts[i])]):
            raise _ColumnCheckFailed
    return list(compress(fields, np.repeat(~suspect, counts).tolist()))


def _numbers(fields: Sequence[Any], positive: bool) -> np.ndarray:
    """``float()`` of each field, so that every spelling it takes is
    taken, if all are finite and nonnegative, or positive if asked."""
    try:
        values = np.fromiter(map(float, fields), float, len(fields))
    except (TypeError, ValueError, OverflowError):
        raise _ColumnCheckFailed from None
    signed = values > 0.0 if positive else values >= 0.0
    if not (np.isfinite(values).all() and signed.all()):
        raise _ColumnCheckFailed
    return values


def _has_repeats(ids: list[str]) -> bool:
    """Whether two ids are equal. Distinct sorted hashes rule it out; only
    a repeated hash builds the set that tells a repeat from a collision.
    On 1e6 ids, building that set every time raised parse_universe's peak
    memory from 151 MB to 197 MB."""
    hashes = np.fromiter(map(hash, ids), np.int64, len(ids))
    hashes.sort()
    return bool((hashes[1:] == hashes[:-1]).any()) and len(set(ids)) != len(ids)


def _csv_columns(
    text: str, numbers_for: Callable[[tuple[str, ...]], tuple[_Number, ...]]
) -> tuple[list[str], list[np.ndarray]]:
    """The identifiers and the checked numeric columns of a CSV text."""
    row, blocks = _split_header(_blocks(text))
    header = _header(row)
    numbers = numbers_for(header)
    width = len(header)
    ids: list[str] = []
    parts: list[list[np.ndarray]] = [[] for _ in numbers]
    for fields, counts, comments in blocks:
        if not (counts == width).all():
            fields = _drop_skipped(fields, counts, counts != width)
        first = list(map(str.strip, fields[0::width]))
        hashed = comments and any(map(str.startswith, first, repeat("#")))
        if not all(first) or hashed:
            suspect = np.array([not f or f[0] == "#" for f in first], dtype=bool)
            fields = _drop_skipped(fields, np.full(len(first), width), suspect)
            first = list(map(str.strip, fields[0::width]))
        ids.extend(first)
        for (col, _, positive), part in zip(numbers, parts):
            part.append(_numbers(fields[col::width], positive))
    if _has_repeats(ids):
        raise _ColumnCheckFailed
    return ids, [np.concatenate(part) if part else np.empty(0) for part in parts]


def parse_universe(source: str | Path | IO[str]) -> Universe:
    """Read a constituent CSV, auto-detecting which schema the header
    declares. Market caps are computed from price and shares when the
    file carries those instead. The rows fill columns, returned as a
    ``Universe`` that builds each ``Constituent`` only when it is read."""
    text = _read_text(source)
    try:
        ids, columns = _csv_columns(text, _universe_numbers)
        if len(columns) == 1:
            return Universe._checked(tuple(ids), columns[0])
        prices, shares = columns
        with np.errstate(over="ignore"):
            caps = prices * shares
        if np.isfinite(caps).all():
            return Universe._checked(tuple(ids), caps, prices, shares)
    except _ColumnCheckFailed:
        pass
    _explain_csv(text, _universe_numbers)


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
    before = mu.weights
    if eta.identifiers == mu.identifiers:
        after = eta.weights
    else:
        position = {ident: i for i, ident in enumerate(eta.identifiers)}
        after = eta.weights[[position[ident] for ident in mu.identifiers]]
    rows = [
        {"id": ident, "weight_before": b, "weight_after": a, "delta": d}
        for ident, b, a, d in zip(
            mu.identifiers, before.tolist(), after.tolist(), (after - before).tolist()
        )
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


# One row of ``json.dumps(payload, indent=2)``, for the rows that
# ``report_payload`` builds: a string id and three floats.
_JSON_ROW = (
    '    {\n      "id": %s,\n      "weight_before": %r,\n'
    '      "weight_after": %r,\n      "delta": %r\n    }'
)


def render_report_json(payload: dict[str, Any]) -> str:
    """``json.dumps(payload, indent=2)`` and a newline, for a payload from
    ``report_payload``: ``rows`` is its last key, and each row holds the
    keys of ``REPORT_HEADER`` in that order, a string id and three builtin
    floats. The rows are rendered from one template, as the stdlib's
    pure-Python indenting encoder would be slow. Any other payload is
    refused: with ``ValueError`` if ``rows`` is not last, or a row holds
    another number of keys or a number that is not a builtin float; with
    ``KeyError`` if a row lacks a key; with ``TypeError`` if an id is not
    a string. Key order within a row is not checked."""
    rows = payload["rows"]
    numbers = chain.from_iterable(map(itemgetter(*REPORT_HEADER[1:]), rows))
    if (
        list(payload)[-1] != "rows"
        or set(map(len, rows)) - {len(REPORT_HEADER)}
        or set(map(type, numbers)) - {float}
    ):
        raise ValueError(
            "render_report_json takes a payload shaped as report_payload "
            "builds it"
        )
    head = json.dumps({**payload, "rows": []}, indent=2)
    body = ",\n".join(
        _JSON_ROW
        % (
            encode_basestring_ascii(row["id"]),
            row["weight_before"],
            row["weight_after"],
            row["delta"],
        )
        for row in rows
    )
    return head.removesuffix("[]\n}") + "[\n" + body + "\n  ]\n}\n"


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
    """Write ``payload``, as built by ``report_payload``, to ``path`` as
    ``fmt`` (``json`` or ``csv``)."""
    if fmt == "json":
        text = render_report_json(payload)
    elif fmt == "csv":
        text = render_report_csv(payload)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")


def _report_json_rows(rows: list[Any]) -> Iterator[tuple[str, list[Any]]]:
    """The (id, weight_after) pair of each row of a JSON report."""
    for pos, row in enumerate(rows, start=1):
        if not (isinstance(row, dict) and isinstance(row.get("id"), str)):
            raise MalformedRowError(f"report row {pos}: expected a string 'id' field")
        if "weight_after" not in row:
            raise MalformedRowError(
                f"report row {pos}: expected a 'weight_after' field"
            )
        yield f"report row {pos}", [row["id"], row["weight_after"]]


def _json_columns(rows: list[Any]) -> tuple[list[str], np.ndarray]:
    """The identifiers and the checked weight_after column of JSON report rows."""
    try:
        ids = list(map(str.strip, map(itemgetter("id"), rows)))
        weights = list(map(itemgetter("weight_after"), rows))
    except (KeyError, TypeError):  # not a dict, a key missing, an id not a string
        raise _ColumnCheckFailed from None
    if not all(ids) or _has_repeats(ids) or bool in set(map(type, weights)):
        raise _ColumnCheckFailed
    return ids, _numbers(weights, positive=False)


def read_weight_file(source: str | Path | IO[str]) -> WeightVector:
    """Read per-constituent weights from a report file or a bare CSV.

    Accepts a JSON rebalance report (the weight_after column is used), a
    CSV rebalance report, or a bare ``id,weight`` CSV. Sums within
    ``RENORMALIZE_WINDOW`` of 1 are renormalized; anything further off is
    rejected as a real error rather than rounding noise.
    """
    text = _read_text(source)
    name = str(source) if not hasattr(source, "read") else ""
    if name.endswith(".json") or text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedHeaderError(f"not valid report JSON: {exc}") from exc
        rows = payload.get("rows") if isinstance(payload, dict) else None
        if not isinstance(rows, list) or not rows:
            raise MalformedHeaderError("report JSON carries no rows")
        try:
            ids, values = _json_columns(rows)
        except _ColumnCheckFailed:
            _explain(_report_json_rows(rows), 2, ((1, "weight", False),))
    else:
        try:
            ids, (values,) = _csv_columns(text, _weight_numbers)
        except _ColumnCheckFailed:
            _explain_csv(text, _weight_numbers)
    if not ids:
        raise MalformedHeaderError("weight file carries no rows")
    total = sum(values.tolist())
    if abs(total - 1.0) >= RENORMALIZE_WINDOW:
        raise WeightSumError(
            f"weights sum to {total!r}; more than {RENORMALIZE_WINDOW} from 1, "
            "refusing to renormalize"
        )
    return WeightVector._of_unique(tuple(ids), normalize(values))
