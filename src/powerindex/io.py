"""File ingestion and report serialization.

Constituent universes arrive as CSV with one of two headers:
``id,market_cap`` or ``id,price,shares``. A row's value is the product
of its numbers: a cap, or price times shares. Rebalance reports are written
from the payload's columns, a block of rows at a time, as CSV
(``# key=value`` summary comments, then one row per constituent) or JSON
(a single object with schema_version, method, params, summary and rows).
All file-bound numbers are rendered at full precision so reports
round-trip exactly; rounding to 6 significant digits is a console
concern only.

Input files are read as text, with line ends read as text mode reads
them, from a path or a stream. One rule, ``_kept``, skips blank rows,
whose fields are empty or spaces, and ``#`` comment rows, in every
tokenizer. ``csv.reader`` finds a CSV file's header, and both readers
below start just after it, so that the fields are always those
``csv.reader`` gives.

The row checks (``_row_columns``, ``_parse_number``) are the reader of
record. Row by row, in file order, they check the field count, a
nonempty id that no row before repeats, and numbers as ``float()`` reads
them, finite and signed as the column needs, with a finite product. They
return the ids and each row's value, or raise the error of the first row
that fails, named by its 1-based row in the file, or in the JSON ``rows``
list. The column pass (``_column_pass``, ``_json_columns``) is a fast
path: it takes every row at once, if every row that is not skipped has
the header's width and a nonempty, unique id, and the numbers pass as
columns, and declines the whole file otherwise. It declines only a file
that the row checks refuse.

So each file is read with one decision: the column pass takes it, or the
row checks read it once, in file order, and raise the error of its first
bad row. Every message comes from that one pass, and the reader has no
repeat rule of its own.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from array import array
from bisect import bisect_right
from itertools import accumulate, chain, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import RebalanceError
from .weights import Universe, WeightVector

if TYPE_CHECKING:
    from .diagnostics import DiagnosticsReport

SCHEMA_VERSION = 1

# A numeric field of a schema: its index in the row, its name in
# messages, and whether it must be positive (else nonnegative).
_Number = tuple[int, str, bool]

# Each universe header, with its numeric fields. A row's value is the
# product of its numbers, so price times shares lives in this schema alone.
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

# A block of rows: the identifier of each row, stripped, and the fields
# of its rows in one list.
_Block = tuple[list[str], list[str]]

# The rows of a CSV text that ``_kept`` keeps: each with its 1-based
# number among the rows that csv.reader gives, and its fields.
_Records = Iterator[tuple[int, list[str]]]


def _read_text(source: str | Path | IO[str]) -> str:
    """The text of ``source``, with line ends read as text mode reads them
    and without a leading byte-order mark."""
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
    return text.removeprefix("\ufeff")


# -- The row checks: one row at a time, in file order. They read every
# -- file that the column pass declines, and hold every message.


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


def _row_columns(
    rows: Iterable[tuple[int, Sequence[Any]]],
    label: str,
    width: int,
    numbers: tuple[_Number, ...],
) -> tuple[list[str], np.ndarray]:
    """Each row's identifier and value, as two columns in row order.

    ``rows`` gives each row's number and its fields. A row must have
    ``width`` fields and lead with a nonempty identifier that no earlier
    row has; its value is the product of the fields that ``numbers``
    names. The first row that fails raises a ``RebalanceError`` that
    names it as ``label`` and its number."""
    seen: set[str] = set()
    ids: list[str] = []
    values = array("d")  # one value per row, at 8 bytes each
    for num, row in rows:
        where = f"{label} {num}"
        if len(row) != width:
            raise RebalanceError(f"{where}: expected {width} fields, got {len(row)}")
        ident = row[0].strip()
        if not ident:
            raise RebalanceError(f"{where}: empty identifier")
        if ident in seen:
            raise RebalanceError(f"{where}: duplicate identifier {ident!r}")
        seen.add(ident)
        parsed = [
            _parse_number(row[col], where, name, positive)
            for col, name, positive in numbers
        ]
        if not math.isfinite(value := math.prod(parsed)):
            product = " * ".join(map(repr, parsed))
            raise RebalanceError(f"{where}: market cap {product} is not finite")
        ids.append(ident)
        values.append(value)
    return ids, np.array(values)


def _pieces(text: str, pos: int) -> Iterator[str]:
    """``text`` from offset ``pos`` in pieces of about ``_BLOCK_CHARS``
    characters, each cut just after a newline but the last, so that joined
    they give ``text[pos:]``."""
    while pos < len(text):
        end = text.find("\n", pos + _BLOCK_CHARS) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _reader(pieces: Iterable[str]) -> Iterator[list[str]]:
    """``csv.reader`` over the text that ``pieces`` make, one ``StringIO``
    per piece: a ``StringIO`` holds its text at four bytes a character, and
    one over all the text raised a CLI ``solve`` on a quoted file of 1e6
    rows from 151 to 251 MB."""
    return csv.reader(chain.from_iterable(map(io.StringIO, pieces)))


def _kept(cells: list[str]) -> bool:
    """Whether a row of fields ``cells`` is read: the one rule for skipped
    rows. A row is skipped when it is blank, its fields empty or spaces,
    or a comment, whose first field starts with ``#`` after spaces."""
    return bool("".join(cells).strip()) and not cells[0].lstrip().startswith("#")


def _records(reader: Iterator[list[str]]) -> _Records:
    """The 1-based number among the rows of ``reader``, a ``csv.reader``,
    and the fields of each row that ``_kept`` keeps. A row that
    ``csv.reader`` refuses is an input error at that row."""
    num = 0
    try:
        for num, cells in enumerate(reader, start=1):
            if _kept(cells):
                yield num, cells
    except csv.Error as exc:
        # csv's own message, but for the field-size limit, named by its
        # value. Before Python 3.11, a NUL is an error too.
        message = str(exc)
        if message.startswith("field larger"):
            message = f"field longer than {csv.field_size_limit()} characters"
        raise RebalanceError(f"row {num + 1}: {message}") from None


def _split_header(text: str) -> tuple[tuple[str, ...], int, _Records]:
    """The cells of the first row of a CSV text that ``_kept`` keeps,
    without case, spaces or a byte-order mark; the offset in the text just
    after that row; and the ``_records`` of the rows after it."""
    reader = _reader(_pieces(text, 0))
    records = _records(reader)
    for _, cells in records:
        # csv.reader has read the text up to the line_num-th newline.
        pos = 0
        for _ in range(reader.line_num):
            pos = text.find("\n", pos) + 1 or len(text)
        return tuple(c.strip().lstrip("\ufeff").lower() for c in cells), pos, records
    raise RebalanceError("input is empty; expected a header row")


# -- The column pass: every row at once, without a message.


class _Declined(Exception):
    """The column pass leaves a file to the row checks."""


def _split(chunk: str) -> tuple[list[str], np.ndarray]:
    """The fields of ``chunk`` split at newlines and commas, and the number
    of fields in each of its lines."""
    # Field k is followed by separator k: a newline ends its line. Neither
    # separator is a byte of a longer UTF-8 sequence.
    raw = np.frombuffer(chunk.encode("utf-8", "surrogatepass"), np.uint8)
    separators = raw[(raw == 10) | (raw == 44)]
    ends = np.flatnonzero(separators == 10)
    counts = np.diff(ends, prepend=-1, append=len(separators))
    return chunk.replace("\n", ",").split(","), counts


def _rows(block: list[list[str]]) -> tuple[list[str], np.ndarray]:
    """The fields of the rows of ``block`` in one list, and the number of
    fields in each row, as ``_split`` gives them."""
    return list(chain.from_iterable(block)), np.fromiter(map(len, block), np.intp)


def _ids(fields: list[str], counts: np.ndarray, width: int) -> list[str] | None:
    """The identifier of each row of a block, stripped, if every row has
    ``width`` fields and a nonempty identifier; else ``None``."""
    if not (counts == width).all():
        return None
    ids = list(map(str.strip, fields[0::width]))
    return ids if all(ids) else None


def _block(
    fields: list[str], counts: np.ndarray, rows: Callable[[], list], width: int
) -> _Block:
    """The identifiers and ``fields`` of a block of rows, whose field
    ``counts`` either tokenizer gives, if every row has ``width`` fields
    and a nonempty identifier. A block that fails, or may hold a comment,
    is made again from ``rows()``, each row a list of fields, less the
    rows that ``_kept`` skips, and tested once more; a second failure
    declines the file."""
    ids = _ids(fields, counts, width)
    # A row with a nonempty identifier is not blank, so in a block that
    # passes, only a row whose identifier holds a # may be skipped.
    if ids is None or "#" in "".join(ids):
        fields, counts = _rows(list(filter(_kept, rows())))
        if (ids := _ids(fields, counts, width)) is None:
            raise _Declined
    return ids, fields


def _blocks(text: str, pos: int, width: int) -> Iterator[_Block]:
    """The rows of a CSV text from offset ``pos`` that ``_kept`` keeps, in
    blocks of a few thousand, so that a large file is never held as fields
    all at once, if every such row has ``width`` fields and a nonempty
    identifier; any other file is declined.

    Each piece of the text is split at newlines and commas, up to the
    first piece holding a quote, a NUL or a field longer than
    ``csv.field_size_limit()``; ``csv.reader`` splits that piece and the
    rest, and a row that it refuses declines the file. Either way, one
    test decides each block (``_block``): only a block that may hold a
    comment, or fails the width or identifier test, is made into a list
    per row, loses its skipped rows and is tested once more, so a clean
    block pays nothing for the skipped-row rule.

    Splitting is the faster: at n=50,000, leaving all text to
    ``csv.reader`` made a CLI ``solve`` take about a sixth longer on a
    2-vCPU Xeon, and at 1e6 rows, quoting every id added about 1 s.
    """
    limit = csv.field_size_limit()
    pieces = _pieces(text, pos)
    for piece in pieces:
        # The last newline ends the last row, as in csv.reader, and starts
        # no blank one.
        chunk = piece.removesuffix("\n")
        fields, counts = _split(chunk)
        if '"' in chunk or "\0" in chunk or (
            len(chunk) > limit and max(map(len, fields)) > limit
        ):
            rows = _reader(chain([piece], pieces))
            try:
                while block := list(islice(rows, _BLOCK_ROWS)):
                    yield _block(*_rows(block), lambda: block, width)
            except csv.Error:
                raise _Declined from None
            return
        # With no quote, a row is a line.
        yield _block(
            fields, counts, lambda: [s.split(",") for s in chunk.split("\n")], width
        )


def _numbers(fields: Sequence[Any], positive: bool) -> np.ndarray:
    """``float()`` of each field, so that every spelling it takes is
    taken, if all are finite and nonnegative, or positive if asked."""
    try:
        values = np.fromiter(map(float, fields), float, len(fields))
    except (TypeError, ValueError, OverflowError):
        raise _Declined from None
    signed = values > 0.0 if positive else values >= 0.0
    if not (np.isfinite(values).all() and signed.all()):
        raise _Declined
    return values


def _has_repeat(ids: list[str]) -> bool:
    """Whether an id repeats one before it. Only ids whose hash another id
    has can repeat, and sorted hashes find them without a set of every id:
    on 1e6 ids, building that set every time raised parse_universe's peak
    memory from 151 MB to 197 MB."""
    hashes = np.sort(np.fromiter(map(hash, ids), np.int64, len(ids)))
    shared = set(hashes[1:][hashes[1:] == hashes[:-1]].tolist())
    twins = [ident for ident in ids if hash(ident) in shared] if shared else []
    return len(set(twins)) < len(twins)


def _column_pass(
    text: str, pos: int, width: int, numbers: tuple[_Number, ...]
) -> tuple[list[str], np.ndarray]:
    """The identifiers of the rows of a CSV text from offset ``pos``, and
    each row's value, the product of its checked ``numbers``, if
    ``_blocks`` takes the rows, no identifier repeats, the columns pass
    and the values are finite; any other file is declined."""
    ids: list[str] = []
    parts = [np.empty(0)]
    with np.errstate(over="ignore"):  # an overflow is inf, declined below
        for block_ids, cells in _blocks(text, pos, width):
            ids.extend(block_ids)
            parts.append(math.prod(_numbers(cells[c::width], p) for c, _, p in numbers))
    values = np.concatenate(parts)
    if _has_repeat(ids) or not np.isfinite(values).all():
        raise _Declined
    return ids, values


def _csv_columns(
    text: str, headers: dict[tuple[str, ...], tuple[_Number, ...]], what: str
) -> tuple[list[str], np.ndarray]:
    """The identifiers of the rows of a CSV text whose header is one of
    ``headers``, called ``what`` in messages, and each row's checked
    value."""
    header, pos, records = _split_header(text)
    numbers = headers.get(header)
    if numbers is None:
        expected = " or ".join(repr(",".join(h)) for h in headers)
        raise RebalanceError(
            f"unrecognized {what} {','.join(header)!r}; expected {expected}"
        )
    with contextlib.suppress(_Declined):
        return _column_pass(text, pos, len(header), numbers)
    # The row checks run after the declined column pass, whose traceback
    # would keep its ids alive. They read the rows after the header in file
    # order, and raise the error of the first bad row.
    return _row_columns(records, "row", len(header), numbers)


def parse_universe(source: str | Path | IO[str]) -> Universe:
    """Read a constituent CSV, auto-detecting which schema the header
    declares. Market caps are price times shares when the file carries
    those instead, and only the caps are kept. The rows fill the two
    columns of the ``Universe`` returned: identifiers and market caps."""
    ids, caps = _csv_columns(_read_text(source), UNIVERSE_HEADERS, "header")
    return Universe._of(tuple(ids), caps)


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
    only one of them holds. Every id must read back from either format as
    written, or a ``RebalanceError`` names the first that would not: one
    with surrounding whitespace, a leading ``#``, a CR, a NUL, or a lone
    surrogate, which UTF-8 cannot encode."""
    from .diagnostics import _pair

    after = _pair(mu, eta).require_same_ids().after
    ids = mu.identifiers
    try:
        "".join(ids).encode()
        end = len(ids)
    except UnicodeEncodeError as exc:  # ids[end] holds the first lone surrogate
        end = bisect_right(list(accumulate(map(len, ids))), exc.start)
    bad = (i for i in ids[:end] if i != i.strip() or i[:1] == "#" or "\r" in i or "\0" in i)
    ident = next(chain(bad, ids[end:end + 1]), None)
    if ident is not None:
        raise RebalanceError(f"a report cannot hold identifier {ident!r}")
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
    import json
    from json.encoder import encode_basestring_ascii

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
    ``# key=value`` comments, each number as the JSON head writes it, then
    a ``REPORT_HEADER`` table."""
    import json

    out.write(f"# schema_version={payload['schema_version']}\n")
    out.write(f"# method={payload['method']}\n")
    for key, value in payload["params"].items():
        out.write(f"# {key}={json.dumps(value)}\n")
    for key, value in payload["summary"].items():
        if key == "top_k_sums":
            for k, (before, after) in value.items():
                out.write(f"# top{k}_before={json.dumps(before)}\n")
                out.write(f"# top{k}_after={json.dumps(after)}\n")
        else:
            out.write(f"# {key}={json.dumps(value)}\n")
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


def _report_json_rows(rows: list[Any]) -> Iterator[tuple[int, list[Any]]]:
    """The position and the (id, weight_after) pair of each row of a JSON
    report."""
    for pos, row in enumerate(rows, start=1):
        if not (isinstance(row, dict) and isinstance(row.get("id"), str)):
            raise RebalanceError(f"report row {pos}: expected a string 'id' field")
        if "weight_after" not in row:
            raise RebalanceError(f"report row {pos}: expected a 'weight_after' field")
        yield pos, [row["id"], row["weight_after"]]


def _json_columns(rows: list[Any]) -> tuple[list[str], np.ndarray]:
    """The identifiers and the checked weight_after column of JSON report
    rows, if every row is an object with a nonempty, unique string id and
    the column passes; any other rows are declined."""
    try:
        ids = list(map(str.strip, map(itemgetter("id"), rows)))
        weights = list(map(itemgetter("weight_after"), rows))
    except (KeyError, TypeError):  # not a dict, a key missing, an id not a string
        raise _Declined from None
    if not all(ids) or _has_repeat(ids) or bool in set(map(type, weights)):
        raise _Declined
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
        import json

        try:
            payload = json.loads(text)
        # A JSONDecodeError is a ValueError, as is an integer literal over
        # the interpreter's digit limit; a RecursionError is nesting too deep.
        except (ValueError, RecursionError) as exc:
            raise RebalanceError(f"not valid report JSON: {exc}") from exc
        rows = payload.get("rows") if isinstance(payload, dict) else None
        if not isinstance(rows, list) or not rows:
            raise RebalanceError("report JSON carries no rows")
        try:
            ids, values = _json_columns(rows)
        except _Declined:
            ids, values = _row_columns(
                _report_json_rows(rows), "report row", 2, ((1, "weight", False),)
            )
    else:
        ids, values = _csv_columns(text, WEIGHT_HEADERS, "weight-file header")
    if not ids:
        raise RebalanceError("weight file carries no rows")
    with np.errstate(over="ignore"):  # an overflow sums to inf, refused below
        # Added in file order from 0.0, as a plain loop adds them: weights of
        # -0 alone sum to 0.0, not -0.0.
        total = 0.0 + float(np.cumsum(values)[-1])
    if abs(total - 1.0) >= RENORMALIZE_WINDOW:
        raise RebalanceError(
            f"weights sum to {total!r}; more than {RENORMALIZE_WINDOW} from 1, "
            "refusing to renormalize"
        )
    return WeightVector._scaled(tuple(ids), values)
