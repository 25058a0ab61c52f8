"""File ingestion and report serialization.

Constituent universes arrive as CSV with one of two headers:
``id,market_cap`` or ``id,price,shares``. Rebalance reports are written
from the payload's columns, a block of rows at a time, as CSV
(``# key=value`` summary comments, then one row per constituent) or JSON
(a single object with schema_version, method, params, summary and rows).
All file-bound numbers are rendered at full precision so reports
round-trip exactly; rounding to 6 significant digits is a console
concern only.

Input files are read as columns, from one split of the text into fields,
with line ends read as text mode reads them, from a path or a stream: in
blocks of rows, at newlines and commas, or by ``csv.reader`` from the
first block that holds a quote or a NUL, so that the fields are always
those ``csv.reader`` gives. Blank and ``#`` comment rows are dropped,
each block's columns are checked as a whole (field counts, nonempty ids,
numbers as ``float()`` reads them, finite and signed as the column
needs), and the ids are checked for repeats at the end. A JSON report's
rows get the same checks on the columns pulled out of them. The column
checks say only that some row fails. The row checks (``_explain``,
``_parse_number``) hold every message: they run over the rows of the
block that failed, against the ids before it, and raise the error of the
first row that fails, named by its 1-based row in the file, or in the
JSON ``rows`` list.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .diagnostics import DiagnosticsReport, _pair
from .errors import RebalanceError
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
# Each weight-file header, with its weight field.
WEIGHT_HEADERS: dict[tuple[str, ...], tuple[_Number, ...]] = {
    BARE_WEIGHT_HEADER: ((1, "weight", False),),
    REPORT_HEADER: ((2, "weight", False),),
}

# External weight files may carry rounded values; renormalize while the
# sum is within this window of 1, reject beyond it.
RENORMALIZE_WINDOW = 1e-3

# Files are read in blocks of about this many characters (or rows, where
# csv.reader splits them), and reports written in blocks of this many rows,
# so that a large file's fields or a report's rows are never all held.
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = 1 << 12

# A block of rows: the 1-based file row of its first row, the fields of
# its rows in one list, the number of fields in each row, and whether a
# row may be a comment.
_Block = tuple[int, list[str], np.ndarray, bool]


def _read_text(source: str | Path | IO[str]) -> str:
    """The text of ``source``, with line ends read as text mode reads them."""
    if hasattr(source, "read"):
        text = source.read()
    else:
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


# -- The row checks: one row at a time, in file order. They hold every
# -- message, and run only to explain a failed column check.


def _parse_number(field: Any, where: str, column: str, positive: bool = False) -> float:
    """A finite number that is nonnegative, or positive if asked."""
    try:
        value = float(field)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or isinstance(field, bool):
        raise RebalanceError(f"{where}: {column} value {field!r} is not a number")
    if not math.isfinite(value):
        raise RebalanceError(f"{where}: {column} value {field!r} is not finite")
    if value < 0.0 or (positive and value == 0.0):
        need = "positive" if positive else "nonnegative"
        raise RebalanceError(f"{where}: {column} must be {need}, got {value!r}")
    return value


def _explain(
    rows: Iterable[tuple[str, Sequence[Any]]],
    width: int,
    numbers: tuple[_Number, ...],
    seen: set[str],
) -> NoReturn:
    """Run the row checks in file order and raise the error of the first
    row that fails, for rows whose column checks failed. Each row must
    have ``width`` fields and lead with a nonempty identifier that is not
    in ``seen``, the identifiers of the rows before them."""
    for where, row in rows:
        if len(row) != width:
            raise RebalanceError(f"{where}: expected {width} fields, got {len(row)}")
        ident = row[0].strip()
        if not ident:
            raise RebalanceError(f"{where}: empty identifier")
        if ident in seen:
            raise RebalanceError(f"{where}: duplicate identifier {ident!r}")
        seen.add(ident)
        values = [
            _parse_number(row[col], where, name, positive)
            for col, name, positive in numbers
        ]
        # Two numbers are a price and a share count.
        if len(values) == 2 and not math.isfinite(values[0] * values[1]):
            raise RebalanceError(
                f"{where}: market cap {values[0]!r} * {values[1]!r} is not finite"
            )
    raise AssertionError("a column check failed on rows that pass the row checks")


def _block_rows(block: _Block) -> Iterator[tuple[int, list[str]]]:
    """The file row and the fields of each row of ``block`` that is not
    blank or a comment, whose first field starts with ``#``."""
    row, fields, counts, _ = block
    start = 0
    for num, count in enumerate(counts.tolist(), start=row):
        cells = fields[start:start + count]
        start += count
        if "".join(cells).strip() and not cells[0].lstrip().startswith("#"):
            yield num, cells


# -- The column checks: a block of rows at once, without a message.


class _ColumnCheckFailed(Exception):
    """Some row fails a check; ``_explain`` says which and why."""


def _blocks(text: str) -> Iterator[_Block]:
    """The rows of a CSV text in blocks of a few thousand, so that a large
    file is never held as fields all at once.

    Text is split at newlines and commas, up to the first block holding a
    quote, a NUL or a field longer than
    ``csv.field_size_limit()``; ``csv.reader`` splits the rest. Splitting
    needs no copy of the text at four bytes a character, as a ``StringIO``
    for ``csv.reader`` does: at n=50,000, leaving all text to
    ``csv.reader`` made a CLI ``solve`` peak 4.5 MB higher and take about
    a sixth longer on a 2-vCPU Xeon.
    """
    limit = csv.field_size_limit()
    pos, row = 0, 1
    while pos < len(text):
        end = text.find("\n", pos + _BLOCK_CHARS)
        if end < 0:
            # The last newline ends the last row, as in csv.reader, and
            # starts no blank one.
            end = len(text) - text.endswith("\n")
        chunk = text[pos:end]
        fields = chunk.replace("\n", ",").split(",")
        if (
            '"' in chunk or "\0" in chunk
            or len(chunk) > limit and max(map(len, fields)) > limit
        ):
            yield from _reader_blocks(text[pos:], row)
            return
        pos = end + 1
        # Field k of the block is followed by separator k: a newline ends
        # its row. Neither separator is a byte of a longer UTF-8 sequence.
        raw = np.frombuffer(chunk.encode("utf-8", "surrogatepass"), np.uint8)
        separators = raw[(raw == 10) | (raw == 44)]
        ends = np.flatnonzero(separators == 10)
        counts = np.diff(ends, prepend=-1, append=len(separators))
        yield row, fields, counts, "#" in chunk
        row += len(counts)


def _reader_blocks(rest: str, row: int) -> Iterator[_Block]:
    """``_blocks`` of ``rest``, whose first row is file row ``row``, as
    ``csv.reader`` splits it. At a row that ``csv.reader`` refuses, the
    rows before it make the last block, and the error is raised when the
    next block is asked for."""

    def block(rows: list[list[str]]) -> _Block:
        counts = np.fromiter(map(len, rows), np.intp, len(rows))
        return row, list(chain.from_iterable(rows)), counts, True

    rows: list[list[str]] = []
    try:
        for cells in csv.reader(io.StringIO(rest)):
            rows.append(cells)
            if len(rows) == _BLOCK_ROWS:
                yield block(rows)
                row, rows = row + len(rows), []
    except csv.Error:
        yield block(rows)
        # The field-size limit is csv's one error here: ``_read_text``
        # leaves no carriage return to make the other.
        limit = csv.field_size_limit()
        raise RebalanceError(
            f"row {row + len(rows)}: field longer than {limit} characters"
        ) from None
    yield block(rows)


def _split_header(blocks: Iterator[_Block]) -> tuple[tuple[str, ...], Iterator[_Block]]:
    """The cells of the first row that is not blank or a comment, without
    case, spaces or a byte-order mark, and the blocks of the rows after it."""
    for block in blocks:
        row, fields, counts, comments = block
        for num, cells in _block_rows(block):
            done = num - row + 1
            rest = (num + 1, fields[int(counts[:done].sum()):], counts[done:], comments)
            header = tuple(c.strip().lstrip("\ufeff").lower() for c in cells)
            return header, chain([rest], blocks)
    raise RebalanceError("input is empty; expected a header row")


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


def _repeat_at(ids: list[str]) -> int | None:
    """The position of the first id that repeats one before it, or None.
    Only ids whose hash another id has can repeat, and sorted hashes find
    them without a set of every id: on 1e6 ids, building that set every
    time raised parse_universe's peak memory from 151 MB to 197 MB."""
    hashes = np.fromiter(map(hash, ids), np.int64, len(ids))
    hashes.sort()
    shared = set(hashes[1:][hashes[1:] == hashes[:-1]].tolist())
    seen: set[str] = set()
    for i, ident in enumerate(ids if shared else ()):
        if hash(ident) in shared:
            if ident in seen:
                return i
            seen.add(ident)
    return None


def _block_columns(
    block: _Block, width: int, numbers: tuple[_Number, ...]
) -> tuple[list[str], Sequence[int], list[np.ndarray]]:
    """The identifiers, their file rows and the checked numeric columns
    of the rows of a block that are not blank or a comment."""
    row, fields, counts, comments = block
    rows: Sequence[int] = range(row, row + len(counts))
    first = list(map(str.strip, fields[0::width]))
    hashed = comments and any(map(str.startswith, first, repeat("#")))
    if not (counts == width).all() or not all(first) or hashed:
        # A row may be blank or a comment: keep the others, row by row.
        kept = list(_block_rows(block))
        rows = [num for num, _ in kept]
        fields = list(chain.from_iterable(cells for _, cells in kept))
        first = list(map(str.strip, fields[0::width]))
        if any(len(cells) != width for _, cells in kept) or not all(first):
            raise _ColumnCheckFailed
    columns = [_numbers(fields[col::width], positive) for col, _, positive in numbers]
    # Two numbers are a price and a share count.
    with np.errstate(over="ignore"):
        if len(columns) == 2 and not np.isfinite(columns[0] * columns[1]).all():
            raise _ColumnCheckFailed
    return first, rows, columns


def _csv_columns(
    text: str, headers: dict[tuple[str, ...], tuple[_Number, ...]], what: str
) -> tuple[list[str], list[np.ndarray]]:
    """The identifiers and the checked numeric columns of a CSV text whose
    header is one of ``headers``, called ``what`` in messages."""
    ids: list[str] = []
    rows: list[Sequence[int]] = []  # the file rows of each block's ids
    error: Exception | None = None
    try:
        header, blocks = _split_header(_blocks(text))
        numbers = headers.get(header)
        if numbers is None:
            expected = " or ".join(repr(",".join(h)) for h in headers)
            raise RebalanceError(
                f"unrecognized {what} {','.join(header)!r}; expected {expected}"
            )
        parts: list[list[np.ndarray]] = [[] for _ in numbers]
        for block in blocks:
            try:
                first, block_rows, columns = _block_columns(block, len(header), numbers)
            except _ColumnCheckFailed:
                named = [(f"row {num}", cells) for num, cells in _block_rows(block)]
                # Of the earlier ids, only those that this block's rows repeat:
                # a set of them all held 2 MB at n=50,000.
                seen = {cells[0].strip() for _, cells in named}.intersection(ids)
                _explain(named, len(header), numbers, seen)
            rows.append(block_rows)
            ids.extend(first)
            for part, column in zip(parts, columns):
                part.append(column)
    except RebalanceError as exc:
        error = exc
    # Every row before one that failed has passed all but the check for
    # repeats, and a repeat among them comes first.
    i = _repeat_at(ids)
    if i is not None:
        where = f"row {next(islice(chain.from_iterable(rows), i, None))}"
        _explain([(where, [ids[i]])], 1, (), {ids[i]})
    if error is not None:
        raise error
    return ids, [np.concatenate(part) if part else np.empty(0) for part in parts]


def parse_universe(source: str | Path | IO[str]) -> Universe:
    """Read a constituent CSV, auto-detecting which schema the header
    declares. Market caps are computed from price and shares when the
    file carries those instead. The rows fill columns, returned as a
    ``Universe`` that builds each ``Constituent`` only when it is read."""
    ids, columns = _csv_columns(_read_text(source), UNIVERSE_HEADERS, "header")
    if len(columns) == 1:
        return Universe._checked(tuple(ids), columns[0])
    prices, shares = columns
    return Universe._checked(tuple(ids), prices * shares, prices, shares)


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
    """The report object, stable field order: ``schema_version``, ``method``,
    ``params``, ``summary``, then the columns ``ids`` and ``before`` of mu,
    and ``after``, eta's weights aligned to ``ids``. The two vectors must
    cover the same identifiers, or a ``RebalanceError`` names the ones
    only one of them holds."""
    after = _pair(mu, eta).require_same_ids().after
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
        "ids": mu.identifiers,
        "before": mu.weights,
        "after": after,
    }


def _report_rows(payload: dict[str, Any]) -> Iterator[Iterable[tuple]]:
    """The (id, weight_before, weight_after, delta) rows of a report
    payload, in blocks of ``_BLOCK_ROWS``."""
    ids, before, after = payload["ids"], payload["before"], payload["after"]
    for start in range(0, len(ids), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        b, a = before[start:stop], after[start:stop]
        yield zip(ids[start:stop], b.tolist(), a.tolist(), (a - b).tolist())


# One row of a JSON report as ``json.dumps(..., indent=2)`` renders it: an
# object with the keys of ``REPORT_HEADER``, a string id and three floats.
_JSON_ROW = (
    '    {\n      "id": %s,\n      "weight_before": %r,\n'
    '      "weight_after": %r,\n      "delta": %r\n    }'
)


def render_report_json(payload: dict[str, Any], out: IO[str]) -> None:
    """Write ``payload``, as built by ``report_payload``, to ``out`` as
    ``json.dumps(..., indent=2)`` and a newline would, its columns as a
    ``rows`` list of ``REPORT_HEADER`` objects. One template renders the
    rows, as the stdlib's pure-Python indenting encoder would be slow."""
    head = {k: v for k, v in payload.items() if k not in ("ids", "before", "after")}
    out.write(json.dumps({**head, "rows": []}, indent=2).removesuffix("[]\n}") + "[\n")
    separator = ""
    for rows in _report_rows(payload):
        body = ",\n".join(
            _JSON_ROW % (encode_basestring_ascii(ident), before, after, delta)
            for ident, before, after, delta in rows
        )
        out.write(separator + body)
        separator = ",\n"
    out.write("\n  ]\n}\n")


def render_report_csv(payload: dict[str, Any], out: IO[str]) -> None:
    """Write ``payload``, as built by ``report_payload``, to ``out`` as
    ``# key=value`` comments, then a ``REPORT_HEADER`` table."""
    out.write(f"# schema_version={payload['schema_version']}\n")
    out.write(f"# method={payload['method']}\n")
    for key, value in payload["params"].items():
        out.write(f"# {key}={_fmt(value)}\n")
    for key, value in payload["summary"].items():
        if key == "top_k_sums":
            for k, (before, after) in value.items():
                out.write(f"# top{k}_before={_fmt(before)}\n")
                out.write(f"# top{k}_after={_fmt(after)}\n")
        else:
            out.write(f"# {key}={_fmt(value)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for rows in _report_rows(payload):
        writer.writerows(rows)


def write_report(path: str | Path, payload: dict[str, Any], fmt: str) -> None:
    """Write ``payload``, as built by ``report_payload``, to ``path`` as
    ``fmt`` (``json`` or ``csv``), a block of rows at a time."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as out:
        (render_report_json if fmt == "json" else render_report_csv)(payload, out)


def _report_json_rows(rows: list[Any]) -> Iterator[tuple[str, list[Any]]]:
    """The (id, weight_after) pair of each row of a JSON report."""
    for pos, row in enumerate(rows, start=1):
        if not (isinstance(row, dict) and isinstance(row.get("id"), str)):
            raise RebalanceError(f"report row {pos}: expected a string 'id' field")
        if "weight_after" not in row:
            raise RebalanceError(
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
    if not all(ids) or _repeat_at(ids) is not None or bool in set(map(type, weights)):
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
            raise RebalanceError(f"not valid report JSON: {exc}") from exc
        rows = payload.get("rows") if isinstance(payload, dict) else None
        if not isinstance(rows, list) or not rows:
            raise RebalanceError("report JSON carries no rows")
        try:
            ids, values = _json_columns(rows)
        except _ColumnCheckFailed:
            _explain(_report_json_rows(rows), 2, ((1, "weight", False),), set())
    else:
        ids, (values,) = _csv_columns(text, WEIGHT_HEADERS, "weight-file header")
    if not ids:
        raise RebalanceError("weight file carries no rows")
    total = sum(values.tolist())
    if abs(total - 1.0) >= RENORMALIZE_WINDOW:
        raise RebalanceError(
            f"weights sum to {total!r}; more than {RENORMALIZE_WINDOW} from 1, "
            "refusing to renormalize"
        )
    return WeightVector._of_unique(tuple(ids), normalize(values))
