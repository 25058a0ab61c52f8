import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import powerindex.io as pio
from helpers import make_ids, reference_parse_universe, reference_read_weight_csv, whole
from powerindex import (
    CapRule,
    Constituent,
    LinearizedPowerRule,
    PowerRule,
    RebalanceError,
    WeightVector,
    apply_rule,
    diagnostics_report,
    parse_universe,
    power_rebalance,
    read_weight_file,
    report_payload,
    weights_from_market_caps,
    write_report,
)
from powerindex.io import render_report_csv, render_report_json


def json_report(first: str, second: str, second_id: str | None = "BBB") -> str:
    """A two-row JSON report whose weight_after values are raw JSON text."""
    return (
        f'{{"rows": [{{"id": "AAA", "weight_after": {first}}}, '
        f'{{"id": {json.dumps(second_id)}, "weight_after": {second}}}]}}'
    )


def two_stock_payload():
    mu = weights_from_market_caps(
        parse_universe(io.StringIO("id,market_cap\nAAA,70\nBBB,30\n"))
    )
    eta = power_rebalance(mu, PowerRule(0.5))
    report = diagnostics_report(mu, eta)
    return report_payload("power", {"p": 0.5}, mu, eta, report), mu, eta


def quoted_id_payload():
    """A report payload whose ids csv.writer must quote."""
    mu = WeightVector(("A,B", 'Q"X', "new\nline"), np.array([0.5, 0.3, 0.2]))
    eta = power_rebalance(mu, PowerRule(0.5))
    report = diagnostics_report(mu, eta)
    return report_payload("power", {"p": 0.5}, mu, eta, report), mu, eta


# Report block sizes that put seams between the rows of ``seam_payload``.
BLOCK_ROWS = (1, 3, pio._BLOCK_ROWS)


def seam_payload():
    """A report whose ids hold the characters that the JSON encoder escapes
    or csv.writer quotes, with enough rows to cross block seams. The ids
    are put in after ``report_payload``, which refuses a CR and a NUL, so
    that the renderers are held to the stdlib on every id."""
    ids = (
        "AAA", 'q"x', "back\\slash", "new\nline", "c\rr", "A,B", "\x00", "é",
        "\ud800", "😀",
    )
    mu = WeightVector(make_ids(len(ids)), np.arange(1.0, 11.0) / 55.0)
    eta = power_rebalance(mu, PowerRule(0.37))
    payload = report_payload("power", {"p": 0.37}, mu, eta, diagnostics_report(mu, eta))
    return {**payload, "ids": ids}


def rendered(render, payload) -> str:
    """The text that ``render`` writes for ``payload``."""
    out = io.StringIO()
    assert render(payload, out) is None
    return out.getvalue()


def payload_rows(payload):
    """The (id, weight_before, weight_after, delta) rows of a payload."""
    before, after = payload["before"].tolist(), payload["after"].tolist()
    return [(ident, b, a, a - b) for ident, b, a in zip(payload["ids"], before, after)]


class TestParseUniverse:
    def test_market_cap_schema(self):
        out = parse_universe(io.StringIO("id,market_cap\nAAA,70\nBBB,30\n"))
        assert [(c.identifier, c.market_cap) for c in out] == [
            ("AAA", 70.0),
            ("BBB", 30.0),
        ]

    def test_price_shares_schema(self):
        out = parse_universe(io.StringIO("id,price,shares\nAAA,10,7\n"))
        assert out[0].market_cap == 70.0

    def test_file_input(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("id,market_cap\nAAA,70\nBBB,30\n")
        assert len(parse_universe(path)) == 2

    def test_header_tolerates_case_and_spaces(self):
        out = parse_universe(io.StringIO("ID, Market_Cap\nAAA,70\n"))
        assert out[0].market_cap == 70.0

    def test_blank_lines_skipped(self):
        out = parse_universe(io.StringIO("id,market_cap\n\nAAA,70\n\nBBB,30\n"))
        assert len(out) == 2

    def test_negative_market_cap_names_row(self):
        message = "row 2: market_cap must be nonnegative, got -5.0"
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO("id,market_cap\nAAA,-5\n"))

    def test_non_numeric_field_names_row(self):
        message = "row 3: market_cap value 'abc' is not a number"
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO("id,market_cap\nAAA,70\nBBB,abc\n"))
        message = "row 3: shares value 'abc' is not a number"
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO("id,price,shares\nAAA,10,7\nBBB,10,abc\n"))

    def test_nonfinite_number(self):
        message = "row 2: market_cap value 'nan' is not finite"
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO("id,market_cap\nAAA,nan\n"))
        message = "row 2: market_cap value 'inf' is not finite"
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO("id,market_cap\nAAA,inf\n"))

    def test_unknown_header(self):
        message = (
            "unrecognized header 'ticker,cap'; expected 'id,market_cap' or "
            "'id,price,shares'"
        )
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO("ticker,cap\nAAA,70\n"))

    def test_empty_input(self):
        message = "input is empty; expected a header row"
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO(""))

    def test_wrong_field_count(self):
        message = "row 2: expected 2 fields, got 3"
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO("id,market_cap\nAAA,70,extra\n"))
        message = "row 3: expected 3 fields, got 2"
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO("id,price,shares\nAAA,10,7\nBBB,10\n"))

    def test_duplicate_identifier(self):
        message = "row 3: duplicate identifier 'AAA'"
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO("id,market_cap\nAAA,70\nAAA,30\n"))

    def test_empty_identifier(self):
        with pytest.raises(RebalanceError, match=whole("row 2: empty identifier")):
            parse_universe(io.StringIO("id,market_cap\n,70\n"))

    def test_zero_price_rejected(self):
        message = "row 2: price must be positive, got 0.0"
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO("id,price,shares\nAAA,0,7\n"))

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "id,market_cap\nAAA,70\nBBB,0\nCCC,30\n",
                [
                    Constituent("AAA", market_cap=70.0),
                    Constituent("BBB", market_cap=0.0),
                    Constituent("CCC", market_cap=30.0),
                ],
            ),
            (
                "id,price,shares\nAAA,10,7\nBBB,2.5,4\nCCC,3,10\n",
                [
                    Constituent("AAA", market_cap=70.0),
                    Constituent("BBB", market_cap=10.0),
                    Constituent("CCC", market_cap=30.0),
                ],
            ),
        ],
    )
    def test_universe_is_a_sequence_of_constituents(self, text, expected):
        out = parse_universe(io.StringIO(text))
        assert len(out) == 3
        assert out[0] == expected[0] and out[-1] == expected[-1]
        assert out[1:] == expected[1:] and out[::-2] == expected[::-2]
        assert list(out) == expected and out == expected
        assert [c.market_cap for c in out] == [c.market_cap for c in expected]
        with pytest.raises(IndexError):
            out[3]
        columns = weights_from_market_caps(out)
        rows = weights_from_market_caps(expected)
        assert columns.identifiers == rows.identifiers
        assert columns.weights.tobytes() == rows.weights.tobytes()

    def test_zero_market_cap_accepted(self):
        out = parse_universe(io.StringIO("id,market_cap\nAAA,0\nBBB,5\n"))
        assert out[0].market_cap == 0.0

    @pytest.mark.parametrize(
        "text, ids, caps",
        [
            ('id,market_cap\n"A,B",70\n"Q""X",30\n', ("A,B", 'Q"X'), [70.0, 30.0]),
            ("id,market_cap\r\nAAA,70\r\nBBB,30\r\n", ("AAA", "BBB"), [70.0, 30.0]),
            ("\ufeffid,market_cap\nAAA,70\n", ("AAA",), [70.0]),
            (
                "# as of close\nid,market_cap\nAAA,70\n\n# note, with a comma\n"
                " , \n,,\n  # indented\nBBB,30\n",
                ("AAA", "BBB"),
                [70.0, 30.0],
            ),
            ("id,market_cap\n AAA , 70 \nBBB,\t30\n", ("AAA", "BBB"), [70.0, 30.0]),
            ("id,market_cap\nAAA,1_000\nBBB,1e3\n", ("AAA", "BBB"), [1000.0, 1000.0]),
            ("id,market_cap\nAAA,70\n #12,5\nBBB,30\n", ("AAA", "BBB"), [70.0, 30.0]),
            ("id,price,shares\nAAA, 10 ,7\n", ("AAA",), [70.0]),
            ("id,market_cap\rAAA,70\rBBB,30\r", ("AAA", "BBB"), [70.0, 30.0]),
        ],
    )
    def test_accepted_spellings(self, text, ids, caps):
        out = parse_universe(io.StringIO(text))
        assert out.identifiers == ids
        assert out.market_caps.tolist() == caps

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "id,market_cap\nAAA,inf\n",
                "row 2: market_cap value 'inf' is not finite",
            ),
            (
                "id,price,shares\nAAA,10,7\nBBB,1e200,1e200\n",
                "row 3: market cap 1e+200 * 1e+200 is not finite",
            ),
            (
                "id,market_cap\nAAA,70\nBBB,-1\nCCC\n",
                "row 3: market_cap must be nonnegative, got -1.0",
            ),
            (
                "id,market_cap\nAAA\nBBB,-1\n",
                "row 2: expected 2 fields, got 1",
            ),
            (
                'id,market_cap\n"A,B",70\nAAA,x\nAAA,1\n',
                "row 3: market_cap value 'x' is not a number",
            ),
            (
                "id,market_cap\r\nAAA,1\r\nAAA,x\r\n",
                "row 3: duplicate identifier 'AAA'",
            ),
            (
                "id,market_cap\n\n# c\nAAA,1\n , 2\nBBB,x\n",
                "row 5: empty identifier",
            ),
            (
                "id,price,shares\nAAA,0,7\nBBB,1e200,1e200\n",
                "row 2: price must be positive, got 0.0",
            ),
        ],
    )
    def test_first_bad_row_is_reported(self, text, message):
        with pytest.raises(RebalanceError, match=whole(message)):
            parse_universe(io.StringIO(text))

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "id,market_cap\nAAA,1\nBBB,12345678901\n",
                "row 3: field longer than 10 characters",
            ),
            (
                "id,market_cap\nBBB,12345678901\nAAA,x\n",
                "row 2: field longer than 10 characters",
            ),
            (
                "id,market_cap\nAAA,x\nBBB,12345678901\n",
                "row 2: market_cap value 'x' is not a number",
            ),
        ],
    )
    def test_over_long_field_is_reported_in_file_order(self, text, message):
        """A field longer than csv.field_size_limit() fails where csv.reader
        meets it, after any bad row before it."""
        old_limit = csv.field_size_limit(10)
        try:
            with pytest.raises(RebalanceError, match=whole(message)):
                parse_universe(io.StringIO(text))
        finally:
            csv.field_size_limit(old_limit)


class TestReportRendering:
    def test_json_payload_shape(self):
        payload, mu, eta = two_stock_payload()
        parsed = json.loads(rendered(render_report_json, payload))
        assert parsed["schema_version"] == 1
        assert parsed["method"] == "power"
        assert parsed["params"] == {"p": 0.5}
        assert [row["id"] for row in parsed["rows"]] == ["AAA", "BBB"]
        assert parsed["summary"]["order_violation_count"] == 0
        assert set(parsed["summary"]["top_k_sums"]) == {"1", "5", "6", "10"}

    def test_json_full_precision_roundtrip(self):
        payload, _, eta = two_stock_payload()
        parsed = json.loads(rendered(render_report_json, payload))
        for row, expected in zip(parsed["rows"], eta.weights):
            assert row["weight_after"] == expected

    def test_csv_summary_comments_and_rows(self):
        payload, _, _ = two_stock_payload()
        text = rendered(render_report_csv, payload)
        lines = text.splitlines()
        comments = [l for l in lines if l.startswith("# ")]
        assert "# method=power" in comments
        assert "# p=0.5" in comments
        assert any(l.startswith("# turnover=") for l in comments)
        assert any(l.startswith("# max_increased=false") for l in comments)
        header_idx = lines.index("id,weight_before,weight_after,delta")
        assert len(lines) - header_idx - 1 == 2

    def test_csv_weight_after_column_sums_to_one_as_serialized(self):
        rng = np.random.default_rng(103)
        mu = weights_from_market_caps(
            parse_universe(
                io.StringIO(
                    "id,market_cap\n"
                    + "".join(
                        f"S{i:03d},{rng.uniform(1, 500)}\n" for i in range(100)
                    )
                )
            )
        )
        eta = power_rebalance(mu, 0.6)
        payload = report_payload(
            "power", {"p": 0.6}, mu, eta, diagnostics_report(mu, eta)
        )
        text = rendered(render_report_csv, payload)
        rows = [
            line.split(",")
            for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("id,")
        ]
        total = sum(float(r[2]) for r in rows)
        assert abs(total - 1.0) <= 1e-9

    def test_heads_write_a_numpy_parameter_alike(self):
        """A rule built from numpy scalars writes, in either format, the
        report of the rule built from the floats they stand for."""
        mu = WeightVector(("AAA", "BBB", "CCC"), np.array([0.6, 0.3, 0.1]))
        cases = [
            ("power", PowerRule(np.float64(0.5)), PowerRule(0.5)),
            ("power", PowerRule(np.int64(1)), PowerRule(1.0)),
            ("linpower", LinearizedPowerRule(np.float32(0.5), knot=np.float32(0.25)),
             LinearizedPowerRule(0.5, knot=0.25)),
            ("cap", CapRule(np.float32(0.3), np.float64(0.5)),
             CapRule(float(np.float32(0.3)), 0.5)),
        ]
        for method, numpy_rule, float_rule in cases:
            texts = []
            for rule in (numpy_rule, float_rule):
                params = rule._asdict()
                assert [type(v) for v in params.values()] == [float] * len(params)
                eta = apply_rule(mu, rule)
                payload = report_payload(
                    method, params, mu, eta, diagnostics_report(mu, eta)
                )
                texts.append(
                    [rendered(render_report_csv, payload),
                     rendered(render_report_json, payload)]
                )
            assert texts[0] == texts[1], numpy_rule
        csv_text, json_text = texts[0]
        assert "\n# threshold=0.30000001192092896\n" in csv_text
        assert '\n  "params": {\n    "threshold": 0.30000001192092896,\n' in json_text

    def test_write_report_rejects_unknown_format(self, tmp_path):
        payload, _, _ = two_stock_payload()
        with pytest.raises(ValueError, match="format"):
            write_report(tmp_path / "r.xml", payload, "xml")
        assert not (tmp_path / "r.xml").exists()

    def test_json_matches_the_stdlib_encoder(self):
        payload = seam_payload()
        head = ("schema_version", "method", "params", "summary")
        expected = {key: payload[key] for key in head}
        expected["rows"] = [
            dict(zip(pio.REPORT_HEADER, row)) for row in payload_rows(payload)
        ]
        for block_rows in BLOCK_ROWS:
            with mock.patch.object(pio, "_BLOCK_ROWS", block_rows):
                text = rendered(render_report_json, payload)
            assert text == json.dumps(expected, indent=2) + "\n", block_rows

    def test_csv_table_matches_the_stdlib_writer(self):
        """The table, as one csv.writer call per row of repr strings wrote it."""
        payload = seam_payload()
        table = io.StringIO()
        writer = csv.writer(table, lineterminator="\n")
        writer.writerow(pio.REPORT_HEADER)
        for ident, *numbers in payload_rows(payload):
            writer.writerow([ident, *map(repr, numbers)])
        for block_rows in BLOCK_ROWS:
            with mock.patch.object(pio, "_BLOCK_ROWS", block_rows):
                text = rendered(render_report_csv, payload)
            head, sep, rest = text.partition("\n" + ",".join(pio.REPORT_HEADER) + "\n")
            assert all(line.startswith("# ") for line in head.split("\n"))
            assert sep + rest == "\n" + table.getvalue(), block_rows

    def test_payload_aligns_a_permuted_eta(self):
        payload, mu, eta = two_stock_payload()
        flipped = WeightVector(eta.identifiers[::-1], eta.weights[::-1])
        report = diagnostics_report(mu, flipped)
        aligned = report_payload("power", {"p": 0.5}, mu, flipped, report)
        assert aligned["ids"] == mu.identifiers
        assert aligned["before"].tolist() == mu.weights.tolist()
        assert aligned["after"].tolist() == payload["after"].tolist()

    def test_payload_rejects_ids_only_one_vector_holds(self):
        mu = WeightVector(("A", "B", "C"), np.array([0.5, 0.3, 0.2]))
        cases = (
            (("A", "B", "D"), [0.5, 0.3, 0.2], "['C', 'D']"),
            (("A", "E", "B", "C"), [0.4, 0.1, 0.3, 0.2], "['E']"),
        )
        for ids, weights, unmatched in cases:
            eta = WeightVector(ids, np.array(weights))
            report = diagnostics_report(mu, eta)
            message = f"weight vectors cover different identifiers: {unmatched}"
            with pytest.raises(RebalanceError, match=whole(message)):
                report_payload("power", {"p": 0.5}, mu, eta, report)

    def test_rendering_is_deterministic(self):
        a, _, _ = two_stock_payload()
        b, _, _ = two_stock_payload()
        assert rendered(render_report_json, a) == rendered(render_report_json, b)
        assert rendered(render_report_csv, a) == rendered(render_report_csv, b)


class TestReadWeightFile:
    def test_bare_weight_csv(self):
        out = read_weight_file(io.StringIO("id,weight\nAAA,0.7\nBBB,0.3\n"))
        assert out.identifiers == ("AAA", "BBB")
        np.testing.assert_allclose(out.weights, [0.7, 0.3], rtol=0, atol=1e-15)

    def test_report_csv_uses_weight_after(self, tmp_path):
        for make_payload in (two_stock_payload, quoted_id_payload):
            payload, _, eta = make_payload()
            path = tmp_path / "report.csv"
            write_report(path, payload, "csv")
            out = read_weight_file(path)
            assert out.identifiers == eta.identifiers
            np.testing.assert_allclose(out.weights, eta.weights, rtol=0, atol=1e-12)

    def test_report_json_roundtrip_exact(self, tmp_path):
        for make_payload in (two_stock_payload, quoted_id_payload):
            payload, _, eta = make_payload()
            path = tmp_path / "report.json"
            write_report(path, payload, "json")
            out = read_weight_file(path)
            assert out.identifiers == eta.identifiers
            assert np.max(np.abs(out.weights - eta.weights)) <= 1e-12

    def test_json_detected_by_content(self, tmp_path):
        payload, _, eta = two_stock_payload()
        path = tmp_path / "report.out"
        write_report(path, payload, "json")
        out = read_weight_file(path)
        np.testing.assert_allclose(out.weights, eta.weights, rtol=0, atol=1e-12)

    def test_json_report_path_with_a_byte_order_mark(self, tmp_path):
        payload, _, eta = two_stock_payload()
        path = tmp_path / "report.json"
        write_report(path, payload, "json")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out = read_weight_file(path)
        assert out.identifiers == eta.identifiers
        plain = read_weight_file(io.StringIO(rendered(render_report_json, payload)))
        assert out.weights.tobytes() == plain.weights.tobytes()

    def test_json_report_stream_with_a_byte_order_mark(self):
        """A stream is read as JSON by its first character after the mark."""
        payload, _, eta = two_stock_payload()
        text = rendered(render_report_json, payload)
        out = read_weight_file(io.StringIO("\ufeff" + text))
        assert out.identifiers == eta.identifiers
        plain = read_weight_file(io.StringIO(text))
        assert out.weights.tobytes() == plain.weights.tobytes()

    def test_small_sum_drift_renormalized(self):
        out = read_weight_file(io.StringIO("id,weight\nAAA,0.7001\nBBB,0.3\n"))
        assert abs(out.weights.sum() - 1.0) <= 1e-12

    def test_large_sum_drift_rejected(self):
        message = "weights sum to 1.1; more than 0.001 from 1, refusing to renormalize"
        with pytest.raises(RebalanceError, match=whole(message)):
            read_weight_file(io.StringIO("id,weight\nAAA,0.8\nBBB,0.3\n"))

    def test_negative_weight_rejected(self):
        message = "row 3: weight must be nonnegative, got -0.2"
        with pytest.raises(RebalanceError, match=whole(message)):
            read_weight_file(io.StringIO("id,weight\nAAA,1.2\nBBB,-0.2\n"))
        message = "report row 2: weight must be nonnegative, got -0.2"
        with pytest.raises(RebalanceError, match=whole(message)):
            read_weight_file(io.StringIO(json_report("1.2", "-0.2")))

    def test_unknown_header_rejected(self):
        message = (
            "unrecognized weight-file header 'name,w'; expected 'id,weight' or "
            "'id,weight_before,weight_after,delta'"
        )
        with pytest.raises(RebalanceError, match=whole(message)):
            read_weight_file(io.StringIO("name,w\nAAA,1.0\n"))

    def test_duplicate_identifier_rejected(self):
        message = "row 3: duplicate identifier 'AAA'"
        with pytest.raises(RebalanceError, match=whole(message)):
            read_weight_file(io.StringIO("id,weight\nAAA,0.5\nAAA,0.5\n"))
        message = "report row 2: duplicate identifier 'AAA'"
        with pytest.raises(RebalanceError, match=whole(message)):
            read_weight_file(io.StringIO(json_report("0.5", "0.5", second_id="AAA")))

    def test_malformed_json_row_names_row(self):
        cases = [
            (json_report("1.0", "NaN"), "weight value nan is not finite"),
            (json_report("1.0", '"abc"'), "weight value 'abc' is not a number"),
            (json_report("1.0", "[1]"), "weight value [1] is not a number"),
            (json_report("1.0", "null"), "weight value None is not a number"),
            (json_report("1.0", "0.0", second_id=""), "empty identifier"),
            (
                json_report("1.0", "0.0", second_id=None),
                "expected a string 'id' field",
            ),
            (json_report("1.0", "true"), "weight value True is not a number"),
            (json_report("1.0", "false"), "weight value False is not a number"),
        ]
        for text, message in cases:
            with pytest.raises(RebalanceError, match=whole(f"report row 2: {message}")):
                read_weight_file(io.StringIO(text))

    @pytest.mark.parametrize(
        "text, ids, weights",
        [
            ('id,weight\r\n"A,B",0.5\r\n"Q""X", 0.5 \r\n', ("A,B", 'Q"X'), [0.5, 0.5]),
            (
                "# method=power\n\ufeffid,weight_before,weight_after,delta\n"
                "AAA,0.7,0.25,-0.45\n\n# note, with a comma\nBBB,0.3,0.75,0.45\n",
                ("AAA", "BBB"),
                [0.25, 0.75],
            ),
            ("id,weight\n AAA ,0.1_0\nBBB, 0.9\n", ("AAA", "BBB"), [0.1, 0.9]),
            # A byte-order mark in front of a comment row leaves it a comment.
            ("\ufeff# method=power\nid,weight\nA,1\n", ("A",), [1.0]),
        ],
    )
    def test_accepted_spellings(self, text, ids, weights):
        out = read_weight_file(io.StringIO(text))
        assert out.identifiers == ids
        assert out.weights.tolist() == pytest.approx(weights, abs=1e-15)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "id,weight\nAAA,inf\n",
                "row 2: weight value 'inf' is not finite",
            ),
            (
                "id,weight\nAAA,0.5\nBBB,-1\nBBB\n",
                "row 3: weight must be nonnegative, got -1.0",
            ),
            (
                'id,weight\n"A,B",0.5\n,0.5\nAAA,x\n',
                "row 3: empty identifier",
            ),
        ],
    )
    def test_first_bad_row_is_reported(self, text, message):
        with pytest.raises(RebalanceError, match=whole(message)):
            read_weight_file(io.StringIO(text))

    def test_comment_lines_skipped(self):
        out = read_weight_file(
            io.StringIO("# method=power\n# p=0.5\nid,weight\nAAA,1.0\n")
        )
        assert out.identifiers == ("AAA",)

    def test_bad_json_rejected(self):
        with pytest.raises(json.JSONDecodeError) as bad:
            json.loads("{...not json")
        message = f"not valid report JSON: {bad.value}"
        with pytest.raises(RebalanceError, match=whole(message)):
            read_weight_file(io.StringIO("{...not json"))

    def test_json_without_rows_rejected(self):
        with pytest.raises(RebalanceError, match=whole("report JSON carries no rows")):
            read_weight_file(io.StringIO('{"schema_version": 1}'))


# Ids of any characters, lone surrogates included, which a UTF-8 file
# cannot hold.
report_ids = st.lists(
    st.text(st.characters(exclude_categories=()), min_size=1),
    min_size=1,
    max_size=5,
    unique=True,
)


@settings(max_examples=200, deadline=None)
# A comment, a CR, surrounding spaces, a NUL and a lone surrogate.
@example(("#A", "B", "C"))
@example(("A\rB", "C"))
@example((" C", "D"))
@example(("A", "\x00"))
@example(("A", "\ud800"))
@given(report_ids)
def test_a_report_reads_back_as_the_vector_it_was_written_from(ids):
    """A report holds, in either format, the ids and weights of the vector
    it was written from, or ``report_payload`` refuses the vector with one
    line naming an id."""
    mu = WeightVector(ids, np.arange(1.0, len(ids) + 1) / sum(range(1, len(ids) + 1)))
    eta = power_rebalance(mu, PowerRule(0.5))
    report = diagnostics_report(mu, eta)
    try:
        payload = report_payload("power", {"p": 0.5}, mu, eta, report)
    except RebalanceError as exc:
        assert str(exc).startswith("a report cannot hold identifier ")
        assert "\n" not in str(exc)
        return
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            path = Path(tmp, f"report.{fmt}")
            write_report(path, payload, fmt)
            out = read_weight_file(path)
            assert out.identifiers == mu.identifiers, fmt
            assert np.max(np.abs(out.weights - payload["after"])) <= 1e-12, fmt


@pytest.mark.parametrize("ident", ["#A", "A\rB", " C", "C\t", "\x00", "x\udfff"])
def test_report_payload_names_the_first_id_that_would_not_read_back(ident):
    mu = WeightVector(("B", ident, "#Z"), np.array([0.5, 0.3, 0.2]))
    eta = power_rebalance(mu, PowerRule(0.5))
    message = f"a report cannot hold identifier {ident!r}"
    with pytest.raises(RebalanceError, match=whole(message)):
        report_payload("power", {"p": 0.5}, mu, eta, diagnostics_report(mu, eta))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ids_whose_hashes_collide(monkeypatch, fmt):
    """With ids hashed to few values, distinct ids read without a false
    repeat, and a real repeat among them is reported at its row."""
    hashed = []

    def few_hashes(ident):
        hashed.append(ident)
        return len(ident) % 2

    monkeypatch.setattr(pio, "hash", few_hashes, raising=False)

    def weight_file(ids):
        if fmt == "csv":
            return io.StringIO("id,weight\n" + "".join(f"{i},0.25\n" for i in ids))
        rows = [{"id": i, "weight_after": 0.25} for i in ids]
        return io.StringIO(json.dumps({"rows": rows}))

    ids = ("AA", "BB", "C", "D")
    assert read_weight_file(weight_file(ids)).identifiers == ids
    assert set(hashed) == set(ids)
    where = "row 5" if fmt == "csv" else "report row 4"
    message = f"{where}: duplicate identifier 'AA'"
    with pytest.raises(RebalanceError, match=whole(message)):
        read_weight_file(weight_file(("AA", "C", "BB", "AA")))


# Text drawn from the characters that decide how a CSV row is split and
# skipped, with the header of each schema in front.
CSV_CHARS = ',"#\r\n\0 0123456789.-_eA'
HEADERS = [
    "id,market_cap",
    "id,price,shares",
    "id,weight",
    "id,weight_before,weight_after,delta",
]
csv_fields = st.one_of(
    st.text(alphabet=CSV_CHARS, max_size=4),
    st.sampled_from(["#", " # c", "A", "B", "0", " 0.5 ", "1_0", "-1", "inf"]),
    # 13, 20 and 21 characters: at and beyond the small field-size limits.
    st.sampled_from(["0.00000000001", "ABCDEFGHIJKLMNOPQRST", "0.0000000000000000001"]),
)
csv_rows = st.lists(
    st.lists(csv_fields, min_size=1, max_size=5), max_size=8
).map(lambda rows: "\n".join(",".join(row) for row in rows))


def readable_rows(width):
    """Rows of ``width`` fields with distinct ids, which a header of that
    width reads when the numbers suit it, among blank and comment rows."""
    numbers = st.lists(
        st.sampled_from(["0.5", " 0.5 ", "5e-1", "1", "1_0", "0", "-0"]),
        min_size=width - 1,
        max_size=width - 1,
    )
    skipped = st.sampled_from(["", " ", ",", " ,", "# c", " #x,1"])
    rows = st.lists(st.one_of(numbers, numbers, skipped), min_size=1)
    return rows.map(
        lambda rows: "\n".join(
            row if isinstance(row, str) else ",".join([f" id{i}", *row])
            for i, row in enumerate(rows[:8])
        )
    )


# A CSV text, as a header, a line end and a body, and the block sizes and
# csv field-size limit it is read with.
CSV_TEXTS = dict(
    header=st.sampled_from(HEADERS),
    line_end=st.sampled_from(["\n", "\r\n", "\r"]),
    body=st.one_of(
        st.text(alphabet=CSV_CHARS, max_size=60),
        csv_rows,
        st.integers(2, 4).flatmap(readable_rows),
    ),
    block_chars=st.sampled_from([1, 5, 1 << 16]),
    block_rows=st.sampled_from([1, 3, 1 << 12]),
    # Above the longest header cell (weight_before), so that a data row
    # can hold the first over-long field.
    field_limit=st.sampled_from([13, 20, csv.field_size_limit()]),
)


def outcome(read, text):
    """What reading ``text`` gives: its columns, or its error and message."""
    try:
        return "ok", read(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def universe_columns(text):
    out = parse_universe(io.StringIO(text))
    return out.identifiers, out.market_caps.tolist(), list(out)


def reference_universe_columns(text):
    ids, caps = reference_parse_universe(text)
    return ids, caps, [Constituent(i, market_cap=c) for i, c in zip(ids, caps)]


def weight_columns(text):
    out = read_weight_file(io.StringIO(text))
    return out.identifiers, out.weights.tobytes()


def reference_weight_columns(text):
    out = reference_read_weight_csv(text)
    return out.identifiers, out.weights.tobytes()


def declined(*args):
    """A column pass that declines every file, leaving all to the row checks."""
    raise pio._Declined


@settings(max_examples=400, deadline=None)
# A repeat after a block that holds only a comment row.
@example("id,market_cap", "\n", "AAA,1\n# c\nAAA,2", 1, 1, csv.field_size_limit())
# A quoted newline where the text is cut into pieces for csv.reader.
@example("id,market_cap", "\n", '"A\nB",1\nC,2', 1, 3, csv.field_size_limit())
# Blank and comment rows after the header, around rows that read.
@example("id,price,shares", "\n", "A,2,3\n\n# c\n b ,5,0.5", 1, 1 << 12, 21)
@example("id,weight", "\n", "A,1\n # c,1\nB,-0", 1 << 16, 1 << 12, 21)
# Weights of -0 alone, which sum to 0.0 as a plain loop adds them.
@example("id,weight", "\n", "A,-0", 1 << 16, 1 << 12, 21)
# A repeat in a block the column pass takes, then, in a later block, a
# bad number or a field over the field-size limit; and a repeat whose two
# rows lie in blocks that hold comment rows.
@example("id,market_cap", "\n", "A,1\nA,2\nB,x", 5, 1 << 12, 21)
@example("id,market_cap", "\n", "A,1\nA,2\nB,0.0000000000000000001", 5, 1 << 12, 13)
@example("id,market_cap", "\n", "A,1\n# c\nA,2\n# d", 5, 1 << 12, 21)
# A quoted header; a comment holding a quote, or a quoted newline, above
# the header; a header on the last line, with no newline.
@example('"id","market_cap"', "\n", "A,1\nB,2", 1 << 16, 1 << 12, 21)
@example('# "c"\nid,weight', "\n", "A,0.5\nB,0.5", 1 << 16, 1 << 12, 21)
@example('"# a\nb",1\nid,weight', "\r\n", "A,1", 1, 1 << 12, 21)
@example("# c", "\n", "id,market_cap", 1 << 16, 1 << 12, 21)
# Comment rows inside one piece; a comment row holding a quote after the
# header; blank rows at the ends of pieces.
@example("id,market_cap", "\n", "A,1\n# c\nB,2\n # d,1\nC,3", 1 << 16, 1 << 12, 21)
@example("id,weight", "\n", 'A,0.5\n# "q"\nB,0.5', 1 << 16, 1 << 12, 21)
@example("id,market_cap", "\n", "A,1\n\nB,2\n\n", 4, 1 << 12, 21)
# A price times shares that overflows only in a row after the first
# block, with one row a block, split and read by csv.reader.
@example("id,price,shares", "\n", "A,2,3\nB,1e200,1e200", 1, 1, 21)
@example("id,price,shares", "\n", '"A",2,3\n"B",1e200,1e200', 1, 1, 21)
@given(**CSV_TEXTS)
def test_column_readers_match_the_row_reader(
    header, line_end, body, block_chars, block_rows, field_limit
):
    """The column pass, over any block size and csv field-size limit,
    reads what the reference row loop reads, or fails with the same error
    and message; and so do the row checks alone, with every block
    declined."""
    text = header + line_end + body
    old_limit = csv.field_size_limit(field_limit)
    try:
        with mock.patch.object(pio, "_BLOCK_CHARS", block_chars), mock.patch.object(
            pio, "_BLOCK_ROWS", block_rows
        ):
            # The reader as it runs, then its row checks alone.
            declining = mock.patch.object(pio, "_column_pass", declined)
            for column_pass in (contextlib.nullcontext(), declining):
                with column_pass:
                    assert outcome(universe_columns, text) == outcome(
                        reference_universe_columns, text
                    )
                    assert outcome(weight_columns, text) == outcome(
                        reference_weight_columns, text
                    )
    finally:
        csv.field_size_limit(old_limit)


@pytest.mark.parametrize(
    "body",
    # A repeat, a bad number after a blank row, a row too short.
    ["A,1\nB,2\n\nA,3\n", "A,1\n\nB,x\nC,3\n", "A,1\n# c\nB\n"],
)
def test_row_checks_read_a_declined_file_once(monkeypatch, body):
    """A file of many blocks that the column pass declines is read once by
    the row checks, which refuse it as the reference does."""
    calls = []
    row_columns = pio._row_columns

    def counted(*args):
        calls.append(args)
        return row_columns(*args)

    monkeypatch.setattr(pio, "_row_columns", counted)
    monkeypatch.setattr(pio, "_BLOCK_CHARS", 1)
    monkeypatch.setattr(pio, "_BLOCK_ROWS", 1)
    text = "id,market_cap\n" + body
    assert outcome(universe_columns, text) == outcome(reference_universe_columns, text)
    assert len(calls) == 1


# Skipped rows, each put every 100 rows among 20,000 rows that read.
EVERY_100 = ["# note\n", "\n", " \n", "\n# note\n", ",\n", ",,\n", " , \n", '"# q",1\n']


@pytest.mark.parametrize(
    "skipped",
    [
        *EVERY_100,
        # Whole bodies, read one line a piece: skipped rows among bare and
        # quoted ids, and a comment holding a quote.
        'A,1\n\nB,2\n# "c"\nC,3\n',
        '"A",1\nB,2\n\nC,3\n',
        '"A",1\n,\nB,2\n , \n"C",3\n',
    ],
)
def test_skipped_rows_among_the_data_leave_the_row_checks_unused(monkeypatch, skipped):
    """A universe with skipped rows among its data, comments or lines of
    spaces and commas, is read whole by the column pass, as the reference
    reads it: a skipped row every 100 rows, among bare ids and among
    quoted ones, or a short body read one line a piece."""

    def refuse(*args):
        raise AssertionError("the row checks read a file the column pass takes")

    if skipped in EVERY_100:
        texts = [
            "id,market_cap\n" + "".join(
                (skipped if i % 100 == 0 else "") + f"{q}N{i}{q},{i}.5\n"
                for i in range(20_000)
            )
            for q in ("", '"')
        ]
    else:
        monkeypatch.setattr(pio, "_BLOCK_CHARS", 1)
        texts = ["id,market_cap\n" + skipped]
    expected = list(map(reference_universe_columns, texts))
    monkeypatch.setattr(pio, "_row_columns", refuse)
    assert list(map(universe_columns, texts)) == expected


@settings(max_examples=400, deadline=None)
# Rows of commas alone, or of spaces and commas, under a header of two
# fields, after rows that read, and after a CRLF header.
@example("id,weight", "\r\n", ",,", 1 << 16, 1 << 12, csv.field_size_limit())
@example("id,market_cap", "\n", "A,1\n,\nB,2", 1 << 16, 1 << 12, csv.field_size_limit())
@example("id,market_cap", "\n", " , ", 1 << 16, 1 << 12, csv.field_size_limit())
@example("id,market_cap", "\n", ",,,", 1 << 16, 1 << 12, csv.field_size_limit())
# A comment row after a quoted id, read one line a piece.
@example("id,market_cap", "\n", '"A",1\n# c\nB,2', 1, 1 << 12, csv.field_size_limit())
# A row led by a space that is not ASCII.
@example("id,market_cap", "\n", "A,1\n\u3000,\nB,2", 1 << 16, 1 << 12, 21)
# A price times shares that overflows only in a row after the first
# block, with one row a block, split and read by csv.reader.
@example("id,price,shares", "\n", "A,2,3\nB,1e200,1e200", 1, 1, 21)
@example("id,price,shares", "\n", '"A",2,3\n"B",1e200,1e200', 1, 1, 21)
@given(**CSV_TEXTS)
def test_the_column_pass_declines_only_what_the_row_checks_refuse(
    header, line_end, body, block_chars, block_rows, field_limit
):
    """Over any block size and csv field-size limit, the column pass
    declines a CSV text only when the row checks refuse it, so that no
    file that reads is read twice."""
    text = pio._read_text(io.StringIO(header + line_end + body))
    old_limit = csv.field_size_limit(field_limit)
    try:
        with mock.patch.object(pio, "_BLOCK_CHARS", block_chars), mock.patch.object(
            pio, "_BLOCK_ROWS", block_rows
        ):
            cells, pos, records = pio._split_header(text)
            numbers = {**pio.UNIVERSE_HEADERS, **pio.WEIGHT_HEADERS}[cells]
            try:
                pio._column_pass(text, pos, len(cells), numbers)
            except pio._Declined:
                with pytest.raises(RebalanceError):
                    pio._row_columns(records, "row", len(cells), numbers)
    finally:
        csv.field_size_limit(old_limit)


# JSON report rows: ids and weight_after values that pass, and others the
# column pass must decline, with rows that are not objects or lack a key.
READ_IDS = ["A", "b", " C ", "é", "\ud800"]
JSON_IDS = st.sampled_from([*READ_IDS, "", " ", 1, None])
JSON_WEIGHTS = st.sampled_from(
    [0.5, 0.25, 1, 0, -0.0, "0.5", " 1_0 ", -0.1, "x", True, None, [1], float("inf"), "nan"]
)
json_rows = st.lists(
    st.one_of(
        st.fixed_dictionaries({"id": JSON_IDS, "weight_after": JSON_WEIGHTS}),
        st.fixed_dictionaries({"id": JSON_IDS}),
        st.sampled_from([[], "A", 0.5, {"weight_after": 0.5}]),
    ),
    min_size=1,
    max_size=6,
)
report_rows = st.one_of(
    json_rows,
    # Rows that read: n distinct ids of weight 1/n.
    st.lists(st.sampled_from(READ_IDS), min_size=1, max_size=5, unique=True).map(
        lambda ids: [{"id": i, "weight_after": 1 / len(ids)} for i in ids]
    ),
)


@settings(max_examples=300, deadline=None)
@example(json_report("1.0", "NaN"))
@example(json_report("1.0", '"abc"'))
@example(json_report("1.0", "[1]"))
@example(json_report("1.0", "null"))
@example(json_report("1.0", "true"))
@example(json_report("1.0", "0.0", second_id=""))
@example(json_report("1.0", "0.0", second_id=None))
@example(json_report("1.2", "-0.2"))
@example(json_report("0.5", "0.5", second_id="AAA"))
@example(json_report("0.5", "0.5"))
@example(json_report("0.5", '" 0.5 "', second_id=" B "))
@given(report_rows.map(lambda rows: json.dumps({"rows": rows})))
def test_json_column_reader_matches_the_row_checks(text):
    """The JSON column pass reads the same ids and weight bits as the row
    checks alone, with every list of rows declined, or fails with the same
    error and message."""
    with mock.patch.object(pio, "_json_columns", declined):
        expected = outcome(weight_columns, text)
    assert outcome(weight_columns, text) == expected


@settings(max_examples=300, deadline=None)
@given(report_rows)
def test_the_json_column_pass_declines_only_what_the_row_checks_refuse(rows):
    """The JSON column pass declines a list of report rows only when the
    row checks refuse it."""
    try:
        pio._json_columns(rows)
    except pio._Declined:
        with pytest.raises(RebalanceError):
            pio._row_columns(
                pio._report_json_rows(rows), "report row", 2, ((1, "weight", False),)
            )
