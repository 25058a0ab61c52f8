import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerindex import (
    CalibrationTarget,
    CapRule,
    calibration,
    parse_universe,
    solve_exponent,
    weights_from_market_caps,
)
from powerindex.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PATHOLOGY,
    EXIT_USAGE,
    parse_methods_spec,
    run_cli,
)

TWO_STOCK = "id,market_cap\nAAA,70\nBBB,30\n"
CAP1_WEIGHTS = [0.20, 0.19, 0.18, 0.05] + [0.038] * 10
CAP2_WEIGHTS = [0.046] + [0.018] * 53


@pytest.fixture
def two_stock_csv(tmp_path):
    path = tmp_path / "universe.csv"
    path.write_text(TWO_STOCK)
    return path


def write_weights(path: Path, weights, prefix: str = "S") -> Path:
    lines = ["id,weight"] + [
        f"{prefix}{i:03d},{float(w)!r}" for i, w in enumerate(weights)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def two_stock_p_star(path: Path) -> float:
    """The library's answer to ``solve --target max --bound 0.60``."""
    mu = weights_from_market_caps(parse_universe(path))
    return solve_exponent(mu, CalibrationTarget("max_weight", 0.60)).p_star


def run_module(*args: str) -> subprocess.CompletedProcess:
    """``python -m powerindex`` in a fresh interpreter, on this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "powerindex", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestRebalanceCommand:
    def test_power_report_json(self, two_stock_csv, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "rebalance",
                "--input", str(two_stock_csv),
                "--method", "power",
                "--p", "0.5",
                "--output", str(out),
                "--format", "json",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        rows = {row["id"]: row for row in payload["rows"]}
        assert rows["AAA"]["weight_before"] == pytest.approx(0.7, abs=1e-15)
        assert rows["AAA"]["weight_after"] == pytest.approx(
            0.60435607626104, abs=1e-12
        )
        assert rows["BBB"]["weight_after"] == pytest.approx(
            0.39564392373895996, abs=1e-12
        )
        assert payload["summary"]["turnover"] == pytest.approx(
            0.09564392373895994, abs=1e-12
        )

    def test_power_report_csv_default_format(self, two_stock_csv, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(
            [
                "rebalance",
                "--input", str(two_stock_csv),
                "--method", "power",
                "--p", "0.5",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("# schema_version=1\n")
        assert "id,weight_before,weight_after,delta" in text

    def test_linpower_and_cap_methods(self, tmp_path):
        universe = tmp_path / "u.csv"
        universe.write_text(
            "id,market_cap\n"
            + "".join(f"S{i:02d},{c}\n" for i, c in enumerate([70, 25, 3, 2]))
        )
        out = tmp_path / "lin.json"
        code = run_cli(
            [
                "rebalance", "--input", str(universe),
                "--method", "linpower", "--p", "0.5", "--knot", "0.05",
                "--output", str(out), "--format", "json",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["params"] == {"p": 0.5, "knot": 0.05}
        assert payload["rows"][0]["weight_after"] == pytest.approx(
            0.5362288126058093, abs=1e-12
        )

        cap_universe = tmp_path / "cap.csv"
        cap_universe.write_text(
            "id,market_cap\n"
            + "".join(
                f"S{i:02d},{int(w * 1000)}\n" for i, w in enumerate(CAP1_WEIGHTS)
            )
        )
        cap_out = tmp_path / "cap.json"
        code = run_cli(
            [
                "rebalance", "--input", str(cap_universe),
                "--method", "cap",
                "--output", str(cap_out), "--format", "json",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(cap_out.read_text())
        assert payload["params"] == {"threshold": 0.045, "target_aggregate": 0.40}
        assert payload["summary"]["order_violation_count"] == 10

    def test_power_requires_p(self, two_stock_csv, tmp_path, capsys):
        code = run_cli(
            [
                "rebalance", "--input", str(two_stock_csv),
                "--method", "power",
                "--output", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_USAGE
        assert "requires --p" in capsys.readouterr().err
        code = run_cli(
            [
                "rebalance", "--input", str(two_stock_csv),
                "--method", "power", "--p", "0.5", "--knot", "0.05",
                "--output", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_USAGE
        assert "takes no --knot" in capsys.readouterr().err

    def test_out_of_range_p_is_usage_error(self, two_stock_csv, tmp_path, capsys):
        code = run_cli(
            [
                "rebalance", "--input", str(two_stock_csv),
                "--method", "power", "--p", "1.5",
                "--output", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_USAGE

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(
            [
                "rebalance", "--input", str(tmp_path / "nope.csv"),
                "--method", "power", "--p", "0.5",
                "--output", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_INPUT

    def test_malformed_row_reported_verbatim(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,market_cap\nAAA,-5\n")
        code = run_cli(
            [
                "rebalance", "--input", str(bad),
                "--method", "power", "--p", "0.5",
                "--output", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "row 2" in err
        assert "market_cap" in err

    def test_caps_whose_sum_overflows(self, tmp_path):
        universe = tmp_path / "u.csv"
        universe.write_text("id,market_cap\nAAA,1e308\nBBB,1e308\n")
        out = tmp_path / "r.json"
        proc = run_module(
            "rebalance", "--input", str(universe), "--method", "power",
            "--p", "0.5", "--output", str(out), "--format", "json",
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        rows = json.loads(out.read_text())["rows"]
        assert [row["weight_after"] for row in rows] == [0.5, 0.5]

    def test_overflowing_price_times_shares_is_input_error(self, tmp_path):
        universe = tmp_path / "u.csv"
        universe.write_text("id,price,shares\nAAA,1e200,1e200\nBBB,10,5\n")
        proc = run_module(
            "rebalance", "--input", str(universe), "--method", "power",
            "--p", "0.5", "--output", str(tmp_path / "r.csv"),
        )
        assert proc.returncode == EXIT_INPUT
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("row 2: ")
        assert proc.stderr.count("\n") == 1


class TestSolveCommand:
    def test_two_stock_bound(self, two_stock_csv, capsys):
        code = run_cli(
            [
                "solve", "--input", str(two_stock_csv),
                "--target", "max", "--bound", "0.60",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"p_star={two_stock_p_star(two_stock_csv)!r} ")
        assert "converged=true" in out
        assert "achieved=0.6" in out

    def test_tol_is_an_unknown_argument(self, two_stock_csv, capsys):
        # The solver's tolerance is fixed; the option is gone.
        code = run_cli(
            [
                "solve", "--input", str(two_stock_csv),
                "--target", "max", "--bound", "0.6", "--tol", "1e-9",
            ]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.endswith("error: unrecognized arguments: --tol 1e-9\n")
        assert captured.out == ""

    def test_printed_p_star_meets_bound_in_rebalance(self, tmp_path, capsys):
        # Rounded to 6 digits, p_star could round up and breach the bound.
        rng = np.random.default_rng(404)
        universe, report = tmp_path / "u.csv", tmp_path / "r.json"
        for _ in range(12):
            caps = (rng.pareto(1.2, 100) + 1.0) * 1e9
            universe.write_text(
                "id,market_cap\n"
                + "".join(f"N{i:03d},{c!r}\n" for i, c in enumerate(caps.tolist()))
            )
            w = np.sort(caps / caps.sum())
            bound = repr(float(0.5 * (w[-6:].sum() + 6 / w.size)))
            assert run_cli(
                [
                    "solve", "--input", str(universe),
                    "--target", "top-k", "--k", "6", "--bound", bound,
                ]
            ) == EXIT_OK
            fields = dict(t.split("=") for t in capsys.readouterr().out.split())
            assert float(fields["bracket_width"]) < 1e-10
            assert run_cli(
                [
                    "rebalance", "--input", str(universe),
                    "--method", "power", "--p", fields["p_star"],
                    "--output", str(report), "--format", "json",
                ]
            ) == EXIT_OK
            top6_after = json.loads(report.read_text())["summary"]["top_k_sums"]["6"][1]
            assert top6_after <= float(bound)

    def test_non_utf8_input_is_input_error(self, tmp_path):
        universe = tmp_path / "u.csv"
        universe.write_bytes(b"id,market_cap\nCAF\xe9,70\nBBB,30\n")
        proc = run_module(
            "solve", "--input", str(universe), "--target", "max", "--bound", "0.6"
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == f"{universe}: byte 0xe9 at offset 17 is not valid UTF-8\n"

    def test_over_long_field_is_input_error(self, tmp_path):
        universe = tmp_path / "u.csv"
        # One character over csv's default field-size limit.
        universe.write_text(f"id,market_cap\n{'A' * 131_073},70\nBBB,30\n")
        proc = run_module(
            "solve", "--input", str(universe), "--target", "max", "--bound", "0.6"
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == "row 2: field longer than 131072 characters\n"

    def test_iteration_cap_is_input_error(self, two_stock_csv, capsys, monkeypatch):
        monkeypatch.setattr(calibration, "MAX_ITERATIONS", 1)
        code = run_cli(
            [
                "solve", "--input", str(two_stock_csv),
                "--target", "max", "--bound", "0.60",
            ]
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("solver exceeded 1 iterations ")

    def test_infeasible_exit_code(self, two_stock_csv, capsys):
        code = run_cli(
            [
                "solve", "--input", str(two_stock_csv),
                "--target", "max", "--bound", "0.40",
            ]
        )
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_top_k_over_every_positive_name_is_infeasible(self, tmp_path, capsys):
        universe = tmp_path / "u.csv"
        universe.write_text("id,market_cap\nA,3\nB,2\nC,1\nD,0\nE,0\n")
        code = run_cli(
            [
                "solve", "--input", str(universe),
                "--target", "top-k", "--k", "3", "--bound", "0.9999999999999999",
            ]
        )
        assert code == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.err == (
            "infeasible: the top 3 weights hold all 3 positive ones, so the "
            "statistic is 1 for every p, above the bound 0.9999999999999999\n"
        )
        assert captured.out == ""

    def test_top_k_requires_k(self, two_stock_csv, capsys):
        code = run_cli(
            [
                "solve", "--input", str(two_stock_csv),
                "--target", "top-k", "--bound", "0.5",
            ]
        )
        assert code == EXIT_USAGE
        assert "--k" in capsys.readouterr().err
        code = run_cli(
            [
                "solve", "--input", str(two_stock_csv),
                "--target", "max", "--k", "2", "--bound", "0.5",
            ]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: k only applies to top_k_sum targets\n"
        assert captured.out == ""

    def test_top_k_solve(self, tmp_path, capsys):
        universe = tmp_path / "u.csv"
        universe.write_text(
            "id,market_cap\n"
            + "".join(f"M{i},100\n" for i in range(6))
            + "".join(f"S{i:02d},5\n" for i in range(94))
        )
        code = run_cli(
            [
                "solve", "--input", str(universe),
                "--target", "top-k", "--k", "6", "--bound", "0.40",
            ]
        )
        assert code == EXIT_OK
        assert "converged=true" in capsys.readouterr().out

    def test_bound_out_of_range_is_usage(self, two_stock_csv, capsys):
        code = run_cli(
            [
                "solve", "--input", str(two_stock_csv),
                "--target", "max", "--bound", "1.5",
            ]
        )
        assert code == EXIT_USAGE


class TestDiagnoseCommand:
    def test_identical_files_clean_exit(self, tmp_path, capsys):
        path = write_weights(tmp_path / "w.csv", [0.7, 0.3])
        code = run_cli(["diagnose", "--before", str(path), "--after", str(path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "order_violations=0" in out
        assert "turnover=0" in out

    def test_order_violation_pathology(self, tmp_path, capsys):
        from powerindex import cap_rebalance
        from helpers import wv

        mu = wv(CAP1_WEIGHTS)
        eta = cap_rebalance(mu)
        before = write_weights(tmp_path / "before.csv", mu.weights, prefix="C")
        after = write_weights(tmp_path / "after.csv", eta.weights, prefix="C")
        code = run_cli(["diagnose", "--before", str(before), "--after", str(after)])
        assert code == EXIT_PATHOLOGY
        out = capsys.readouterr().out
        assert "order_violations=10" in out
        assert "max_increased=false" in out

    def test_max_increase_pathology(self, tmp_path, capsys):
        from powerindex import cap_rebalance
        from helpers import wv

        mu = wv(CAP2_WEIGHTS)
        eta = cap_rebalance(mu)
        before = write_weights(tmp_path / "before.csv", mu.weights, prefix="C")
        after = write_weights(tmp_path / "after.csv", eta.weights, prefix="C")
        code = run_cli(["diagnose", "--before", str(before), "--after", str(after)])
        assert code == EXIT_PATHOLOGY
        assert "max_increased=true" in capsys.readouterr().out

    def test_rejects_drifted_weight_file(self, tmp_path, capsys):
        before = write_weights(tmp_path / "b.csv", [0.7, 0.3])
        after = write_weights(tmp_path / "a.csv", [0.8, 0.3])
        code = run_cli(["diagnose", "--before", str(before), "--after", str(after)])
        assert code == EXIT_INPUT

    def test_weights_whose_sum_overflows(self, tmp_path, capsys):
        # Warnings are errors here, so an overflow warning fails the test.
        before = write_weights(tmp_path / "b.csv", [0.5, 0.5])
        after = tmp_path / "a.csv"
        after.write_text("id,weight\nA,1e308\nB,1e308\n")
        code = run_cli(["diagnose", "--before", str(before), "--after", str(after)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "weights sum to inf; more than 0.001 from 1, refusing to renormalize\n"
        )

    def test_malformed_json_row_is_input_error(self, tmp_path):
        before = write_weights(tmp_path / "b.csv", [0.5, 0.5])
        after = tmp_path / "a.json"
        for row in (
            '{"id": "S001", "weight_after": NaN}',
            '{"id": "S001", "weight_after": "abc"}',
            '{"id": "S001", "weight_after": [1]}',
            '{"id": "S001", "weight_after": null}',
            '{"id": "", "weight_after": 0.5}',
        ):
            after.write_text(
                f'{{"rows": [{{"id": "S000", "weight_after": 0.5}}, {row}]}}'
            )
            proc = run_module(
                "diagnose", "--before", str(before), "--after", str(after)
            )
            assert proc.returncode == EXIT_INPUT, row
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith("report row 2: ")
            assert proc.stderr.count("\n") == 1

    def test_json_row_without_weight_after_is_input_error(self, tmp_path, capsys):
        before = write_weights(tmp_path / "b.csv", [0.5, 0.5])
        after = tmp_path / "a.json"
        after.write_text('{"rows": [{"id": "S000", "weight_after": 0.5}, {"id": "S001"}]}')
        code = run_cli(["diagnose", "--before", str(before), "--after", str(after)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "report row 2: expected a 'weight_after' field\n"

    def test_lists_twenty_flips_then_counts_the_rest(self, tmp_path, capsys):
        # Eight names in reverse order: all 28 pairs flip.
        ranks = np.arange(1.0, 9.0) / 36.0
        before = write_weights(tmp_path / "b.csv", ranks)
        after = write_weights(tmp_path / "a.csv", ranks[::-1])
        code = run_cli(["diagnose", "--before", str(before), "--after", str(after)])
        assert code == EXIT_PATHOLOGY
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("order_violations=28")
        listed = lines[at + 1 : at + 21]
        assert all(" now above " in line for line in listed)
        assert len(set(listed)) == 20
        assert lines[at + 21] == "  ... 8 more"
        assert lines[at + 22].startswith("hhi_before=")

    def test_lone_surrogate_id_prints_escaped(self, tmp_path):
        """A JSON id may hold a lone surrogate, which no encoding can print.
        The console shows it escaped, as a subprocess's stdout must encode
        it; ``StringIO`` would take it as it is."""
        before, after = tmp_path / "b.json", tmp_path / "a.json"
        for path, w in ((before, 0.4), (after, 0.6)):
            rows = [{"id": "B", "weight_after": w}, {"id": "\ud800", "weight_after": 1 - w}]
            path.write_text(json.dumps({"rows": rows}))
        proc = run_module("diagnose", "--before", str(before), "--after", str(after))
        assert proc.returncode == EXIT_PATHOLOGY, proc.stderr
        assert proc.stderr == ""
        assert "  B (0.4 -> 0.6) now above \\ud800 (0.6 -> 0.4)\n" in proc.stdout

    def test_non_utf8_weight_file_is_input_error(self, tmp_path):
        before = write_weights(tmp_path / "b.csv", [0.5, 0.5])
        after = tmp_path / "a.csv"
        after.write_bytes(b"id,weight\nS000,0.5\nS\xf8001,0.5\n")
        proc = run_module("diagnose", "--before", str(before), "--after", str(after))
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == f"{after}: byte 0xf8 at offset 20 is not valid UTF-8\n"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/status"
    )
    def test_running_out_of_memory_is_one_line(self, tmp_path):
        """A child that limits its own address space to 20 MB above its size
        after the import runs out of memory in ``diagnose`` on two 1e5-row
        JSON reports, and exits 2 with one line, not a traceback."""
        n = 100_000
        paths = [tmp_path / "b.json", tmp_path / "a.json"]
        for path in paths:
            rows = [{"id": f"N{i}", "weight_after": 1 / n} for i in range(n)]
            path.write_text(json.dumps({"rows": rows}))
        code = (
            "import resource, sys\n"
            "import powerindex.cli\n"
            "from powerindex.__main__ import main\n"
            "status = open('/proc/self/status').read()\n"
            "size = int(status.split('VmSize:')[1].split()[0]) << 10\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + (20 << 20), hard))\n"
            "main()\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        argv = ["diagnose", "--before", str(paths[0]), "--after", str(paths[1])]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stderr) == (EXIT_INPUT, "diagnose: out of memory\n")

    def test_accepts_report_file_as_input(self, two_stock_csv, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run_cli(
            [
                "rebalance", "--input", str(two_stock_csv),
                "--method", "power", "--p", "1.0",
                "--output", str(report), "--format", "json",
            ]
        ) == EXIT_OK
        (tmp_path / "b.csv").write_text("id,weight\nAAA,0.7\nBBB,0.3\n")
        code = run_cli(
            ["diagnose", "--before", str(tmp_path / "b.csv"), "--after", str(report)]
        )
        assert code == EXIT_OK


class TestCompareCommand:
    def test_side_by_side(self, two_stock_csv, capsys):
        code = run_cli(
            [
                "compare", "--input", str(two_stock_csv),
                "--methods", "power:p=0.5,power:p=0.75,linpower:p=0.5:knot=0.05",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "power:p=0.5" in out
        assert "power:p=0.75" in out
        assert "linpower:p=0.5:knot=0.05" in out
        assert out.splitlines()[0].startswith("method")

    def test_cap_defaults_in_spec(self, tmp_path, capsys):
        universe = tmp_path / "u.csv"
        universe.write_text(
            "id,market_cap\n"
            + "".join(
                f"S{i:02d},{int(w * 1000)}\n" for i, w in enumerate(CAP1_WEIGHTS)
            )
        )
        code = run_cli(
            ["compare", "--input", str(universe), "--methods", "power:p=0.5,cap"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        cap_line = next(l for l in lines if l.startswith("cap"))
        assert " 10 " in cap_line or cap_line.split()[3] == "10"

    def test_unknown_method_is_usage_error(self, two_stock_csv, capsys):
        code = run_cli(
            ["compare", "--input", str(two_stock_csv), "--methods", "sqrt:p=0.5"]
        )
        assert code == EXIT_USAGE

    def test_malformed_spec_is_usage_error(self, two_stock_csv, capsys):
        for spec in (
            "power:p",
            "linpower:p=0.5:knto=0.05",
            "power:p=0.2:p=0.9",
            "cap:target=0.3:target_aggregate=0.4",
        ):
            code = run_cli(
                ["compare", "--input", str(two_stock_csv), "--methods", spec]
            )
            assert code == EXIT_USAGE

    def test_empty_or_unparsable_spec_is_usage_error(self, two_stock_csv, capsys):
        for spec, message in (
            (",", "error: --methods names no rules\n"),
            ("power:p=abc", "error: 'abc' is not a number in 'power:p=abc'\n"),
        ):
            code = run_cli(["compare", "--input", str(two_stock_csv), "--methods", spec])
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == message

    def test_linpower_keeps_order_one_ulp_below_the_knot(self, tmp_path, capsys):
        # B sits at the knot and A one ulp below it; a chord slope rounded
        # on its own once put A above B.
        universe = tmp_path / "u.csv"
        universe.write_text("id,market_cap\nA,0.049999999999999996\nB,0.05\nC,0.9\n")
        method = "linpower:p=0.895448239414126:knot=0.05"
        code = run_cli(["compare", "--input", str(universe), "--methods", method])
        assert code == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[3] == "violations"
        assert row.split()[0] == method and row.split()[3] == "0"

    def test_target_alias_in_spec(self):
        (_, short), = parse_methods_spec("cap:target=0.3")
        (_, full), = parse_methods_spec("cap:target_aggregate=0.3")
        assert short == full == CapRule(target_aggregate=0.3)


class TestUsageAndHelp:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "rebalance" in capsys.readouterr().out

    def test_module_entry_point(self, two_stock_csv):
        proc = run_module(
            "solve", "--input", str(two_stock_csv),
            "--target", "max", "--bound", "0.60",
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(f"p_star={two_stock_p_star(two_stock_csv)!r} ")


class TestDeterminism:
    def test_repeated_json_runs_byte_identical(self, two_stock_csv, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(
                [
                    "rebalance", "--input", str(two_stock_csv),
                    "--method", "power", "--p", "0.5",
                    "--output", str(out), "--format", "json",
                ]
            ) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_json_reingestion_within_tolerance(self, two_stock_csv, tmp_path):
        from powerindex import PowerRule, power_rebalance, read_weight_file
        from powerindex import parse_universe, weights_from_market_caps

        out = tmp_path / "report.json"
        assert run_cli(
            [
                "rebalance", "--input", str(two_stock_csv),
                "--method", "power", "--p", "0.5",
                "--output", str(out), "--format", "json",
            ]
        ) == EXIT_OK
        mu = weights_from_market_caps(parse_universe(two_stock_csv))
        eta = power_rebalance(mu, PowerRule(0.5))
        loaded = read_weight_file(out)
        assert loaded.identifiers == eta.identifiers
        assert np.max(np.abs(loaded.weights - eta.weights)) <= 1e-12


# -- In-process fuzz of run_cli over generated files and argument lists.
# Each draw is mostly valid, so that every command runs to its end, and
# now and then one value is swapped for a bad one.


def sometimes(valid, invalid) -> st.SearchStrategy:
    """One of ``valid``, or about one time in six one of ``invalid``."""
    return st.integers(0, 5).flatmap(
        lambda i: st.sampled_from(valid if i < 5 else invalid)
    )


FUZZ_IDS = ("AAA", "BBB", "CCC", "A,B", 'Q"X', " D ", "é", "F\nG")
BAD_IDS = ("", "#E", "AAA", "\x00")
BAD_NUMBERS = ("-1", "0", "nan", "inf", "abc", "", "1e308", "1_000", " 7 ")
BAD_JSON_NUMBERS = ("-1", "NaN", "1e400", "null", "true", '"0.5"', "[1]")


@st.composite
def fuzz_rows(draw, width: int, bad_numbers) -> list[list[str]]:
    """Rows of ``width`` fields: distinct ids and positive numbers, the
    last column scaled to sum to one, with now and then one field or row
    spoiled."""
    ids = draw(st.permutations(FUZZ_IDS)) if draw(st.booleans()) else FUZZ_IDS
    ids = ids[: draw(sometimes([2, 3, 5, 6], [0, 1]))]
    numbers = [
        draw(st.lists(st.floats(0.01, 100.0), min_size=width - 1, max_size=width - 1))
        for _ in ids
    ]
    total = sum(row[-1] for row in numbers if row)
    rows = [
        [i, *map(repr, row[:-1]), repr(row[-1] / total)] if row else [i]
        for i, row in zip(ids, numbers)
    ]
    if rows and draw(st.integers(0, 2)) == 0:
        row = draw(st.sampled_from(rows))
        spoil = draw(st.sampled_from(["id", "number", "drop", "add", "repeat"]))
        if spoil == "id":
            row[0] = draw(st.sampled_from(BAD_IDS))
        elif spoil == "number" and len(row) > 1:
            row[-1] = draw(st.sampled_from(bad_numbers))
        elif spoil == "drop":
            row.pop()
        elif spoil == "add":
            row.append("1")
        else:
            rows.append(list(row))
    return rows


@st.composite
def fuzz_csv(draw, headers) -> str:
    """A CSV text under one of ``headers``, or now and then another."""
    header = draw(sometimes(headers, ("id,market_cap", "id,weight", "id", "", "x,y")))
    rows = draw(fuzz_rows(len(header.split(",")), BAD_NUMBERS))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerows([header.split(","), *rows])
    return out.getvalue() + draw(sometimes(["", "# note\n"], ['"open\n', "\x00\n"]))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def fuzz_json(draw) -> str:
    """A JSON report whose rows are those of a weight file, or now and
    then any JSON value or any text."""
    kind = draw(sometimes(["report"], ["value", "text"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    if kind == "text":
        return draw(st.text(max_size=20))
    rows = []
    for row in draw(fuzz_rows(2, BAD_JSON_NUMBERS)):
        fields = [f'"id": {json.dumps(row[0])}']
        fields += [f'"weight_after": {w}' for w in row[1:2]]
        rows.append("{" + ", ".join(fields) + "}")
    return '{"rows": [' + ", ".join(rows) + "]}"


# Argument tokens; {name} stands for a path in the example's directory.
INPUT = sometimes(["{universe}"], ["{before}", "{report}", "{missing}", "{dir}"])
WEIGHTS = sometimes(["{before}", "{after}", "{report}"], ["{universe}", "{missing}"])
BAD_VALUES = ["0", "1", "-1", "2", "nan", "inf", "abc", "1e-300"]
P = sometimes(["0", "0.3", "0.9", "1"], BAD_VALUES)
KNOT = sometimes(["0.1", "0.3"], BAD_VALUES)
THRESHOLD = sometimes(["0.05", "0.2"], BAD_VALUES)
TARGET = sometimes(["0.4", "0.9"], BAD_VALUES)
BOUND = sometimes(["0.05", "0.3", "0.6", "0.9"], BAD_VALUES)
RULE_PARAMS = {
    "power": {"--p": P}, "linpower": {"--p": P, "--knot": KNOT},
    "cap": {"--threshold": THRESHOLD, "--target-aggregate": TARGET},
}
METHODS = sometimes(
    ["power:p=0.5,linpower:p=0.5:knot=0.01,cap", "cap", "power:p=0.2",
     "cap:target=0.5:threshold=0.1"],
    ["power", "power:p=x", "power:p=0.5:p=0.6", ",", "bogus:q=1", "linpower:p=2",
     "power:p", "cap:p=0.5"],
)


@st.composite
def fuzz_argv(draw) -> list[str]:
    """A subcommand and its options, mostly well formed."""
    command = draw(st.sampled_from(["rebalance", "solve", "diagnose", "compare"]))
    if command == "rebalance":
        method = draw(sometimes(list(RULE_PARAMS), ["none"]))
        argv = ["--input", draw(INPUT), "--method", method]
        for flag, values in RULE_PARAMS.get(method, {"--p": P}).items():
            argv += [flag, draw(values)]
        argv += ["--output", draw(sometimes(["{out}"], ["{dir}", "{missing}/r"]))]
        argv += ["--format", draw(sometimes(["csv", "json"], ["xml"]))]
    elif command == "solve":
        target = draw(sometimes(["max", "top-k"], ["min"]))
        argv = ["--input", draw(INPUT), "--target", target, "--bound", draw(BOUND)]
        if target == "top-k":
            argv += ["--k", draw(sometimes(["1", "2", "3"], ["0", "-1", "9", "x"]))]
    elif command == "diagnose":
        argv = ["--before", draw(WEIGHTS), "--after", draw(WEIGHTS)]
    else:
        argv = ["--input", draw(INPUT), "--methods", draw(METHODS)]
    argv = [command, *argv]
    spoil = draw(sometimes(["none"], ["drop", "junk"]))
    if spoil == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif spoil == "junk":
        argv.insert(
            draw(st.integers(0, len(argv))),
            draw(st.sampled_from(["--k", "--p", "0.5", "--bogus", "-h", "x\ny"])),
        )
    return argv


DEEP = 200_000
# The files of an example: the first four hold the drawn texts.
FUZZ_FILES = (
    "universe.csv", "before.csv", "after.csv", "report.json", "out", "missing"
)
UNIVERSE_HEADERS = ["id,market_cap", "id,price,shares"]
WEIGHT_HEADERS = ["id,weight", "id,weight_before,weight_after,delta"]


@settings(max_examples=300, deadline=None)
# A JSON weight file nested deeper than the interpreter's recursion limit.
@example(
    "id,market_cap\nAAA,1\n", "id,weight\nAAA,1\n", "id,weight\nAAA,1\n",
    '{"rows": ' + "[" * DEEP + "]" * DEEP + "}",
    ["diagnose", "--before", "{before}", "--after", "{report}"],
)
# A JSON integer over the interpreter's limit of 4,300 digits.
@example(
    "id,market_cap\nAAA,1\n", "id,weight\nAAA,1\n", "id,weight\nAAA,1\n",
    '{"rows": [{"id": "AAA", "weight_after": ' + "1" * 5000 + "}]}",
    ["diagnose", "--before", "{before}", "--after", "{report}"],
)
@given(
    fuzz_csv(UNIVERSE_HEADERS), fuzz_csv(WEIGHT_HEADERS), fuzz_csv(WEIGHT_HEADERS),
    fuzz_json(), fuzz_argv(),
)
def test_run_cli_fuzz(universe, before, after, report, argv):
    """Whatever the files and arguments, ``run_cli`` returns a documented
    exit code and raises nothing. An input error or an infeasible solve is
    one line on stderr, and a usage error ends with its ``error:`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name.partition(".")[0]: Path(tmp, name) for name in FUZZ_FILES}
        for path, text in zip(paths.values(), (universe, before, after, report)):
            path.write_text(text, encoding="utf-8")
        args = [arg.format(dir=tmp, **paths) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(args)
    err = stderr.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_INFEASIBLE, EXIT_PATHOLOGY)
    if code in (EXIT_OK, EXIT_PATHOLOGY):
        assert err == ""
    if code in (EXIT_INPUT, EXIT_INFEASIBLE):
        assert err.count("\n") == 1 and err.endswith("\n"), err
    if code == EXIT_USAGE:
        assert err.endswith("\n") and err.splitlines()[-1].startswith("error:"), err
