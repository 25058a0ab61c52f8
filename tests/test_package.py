import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import powerindex

# The error classes that the two-class error family replaced.
REMOVED = (
    "AllWeightsZeroError",
    "DegenerateComplementError",
    "DuplicateIdentifierError",
    "EmptyUniverseError",
    "IdentifierMismatchError",
    "KExceedsNError",
    "MalformedHeaderError",
    "MalformedRowError",
    "NegativeEntryError",
    "NegativeMarketCapError",
    "NonConvergenceError",
    "NonFiniteNumberError",
    "WeightSumError",
    "ZeroAggregateError",
)


def test_exports_resolve_and_are_sorted():
    names = powerindex.__all__
    assert names == sorted(names)
    assert [name for name in names if not hasattr(powerindex, name)] == []
    assert set(REMOVED).isdisjoint(names)
    assert [name for name in REMOVED if hasattr(powerindex, name)] == []


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _python(code: str, stdin: str | None = None) -> str:
    """Run ``code`` in a fresh interpreter that finds this tree's package;
    return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
        env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(names: tuple[str, ...]) -> str:
    """Code that prints which of ``names`` are in ``sys.modules``."""
    return f"import sys; print([m for m in {names!r} if m in sys.modules])"


# What the rules, the solver and the library need on import, and what
# they must not load.
CORE = ("numpy", "powerindex.calibration", "powerindex.transforms", "powerindex.weights")
DEFERRED = (
    "argparse", "csv", "dataclasses", "json",
    "powerindex.cli", "powerindex.diagnostics", "powerindex.io",
)


def test_import_leaves_the_cli_unloaded():
    """``import powerindex`` loads numpy and the math core, and none of the
    CLI, the diagnostics, the file readers and writers or the standard
    modules only they need, so the library starts as fast as numpy and
    the core allow."""
    out = _python("import powerindex; " + _loaded(CORE + DEFERRED))
    assert out == f"{list(CORE)}\n"


def _command(tmp_path: Path, *argv: str) -> tuple[str, set[str]]:
    """Run ``python -m powerindex *argv`` on a 3-name universe and two
    weight files in ``tmp_path``; return its stdout and the modules it
    imported, which ``-X importtime`` lists on stderr."""
    (tmp_path / "universe.csv").write_text("id,market_cap\nA,3\nB,2\nC,1\n")
    (tmp_path / "before.csv").write_text("id,weight\nA,0.5\nB,0.3\nC,0.2\n")
    (tmp_path / "after.csv").write_text("id,weight\nA,0.4\nB,0.35\nC,0.25\n")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "powerindex", *argv],
        capture_output=True, text=True, env=_env(), cwd=tmp_path,
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert proc.returncode == 0, proc.stderr
    assert "powerindex.cli" in imported and "argparse" in imported
    return proc.stdout, imported


def test_solve_command_leaves_dataclasses_unloaded(tmp_path):
    """``python -m powerindex solve`` loads neither the diagnostics nor
    json, nor dataclasses."""
    argv = ["solve", "--input", "universe.csv", "--target", "max", "--bound", "0.45"]
    out, imported = _command(tmp_path, *argv)
    assert out.startswith("p_star=")
    assert "powerindex.io" in imported
    assert imported.isdisjoint({"dataclasses", "json", "powerindex.diagnostics"})


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        pytest.param(
            ["compare", "--input", "universe.csv", "--methods", "power:p=0.5,power:p=0.9"],
            {"json"}, id="compare",
        ),
        pytest.param(
            ["rebalance", "--input", "universe.csv", "--method", "power", "--p", "0.5",
             "--output", "report.json", "--format", "json"],
            set(), id="rebalance",
        ),
        pytest.param(
            ["diagnose", "--before", "before.csv", "--after", "after.csv"],
            {"json"}, id="diagnose",
        ),
    ],
)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, unloaded):
    """Each command imports the modules it calls when it runs; ``compare``
    and ``diagnose`` on CSV files never render nor read JSON."""
    _, imported = _command(tmp_path, *argv)
    assert {"powerindex.diagnostics", "powerindex.io"} <= imported
    assert imported.isdisjoint(unloaded | {"dataclasses"})


def test_star_import_and_dir_cover_every_export():
    """``from powerindex import *`` binds every name of ``__all__``, and
    ``dir`` lists them all without loading a deferred module."""
    out = _python(
        "import powerindex; listed = set(dir(powerindex)); "
        + _loaded(DEFERRED)
        + "; print(sorted(set(powerindex.__all__) - listed)); "
        "from powerindex import *; "
        "print([n for n in powerindex.__all__ if n not in globals()])"
    )
    assert out == "[]\n[]\n[]\n"


def test_a_deferred_name_binds_its_module_on_first_access():
    """The first access to a diagnostics name imports that module alone and
    binds its names in the package, so that later lookups find them there."""
    out = _python(
        "import powerindex; r = powerindex.diagnostics_report; "
        "print(r is powerindex.diagnostics.diagnostics_report); "
        "print(sorted(n for n in ('diagnostics_report', 'turnover', 'parse_universe') "
        "if n in vars(powerindex))); "
        + _loaded(("powerindex.diagnostics", "powerindex.io"))
    )
    assert out == "True\n['diagnostics_report', 'turnover']\n['powerindex.diagnostics']\n"


def test_an_unknown_name_raises_the_usual_error():
    out = _python(
        "import powerindex\n"
        "try:\n    powerindex.nothing_here\n"
        "except AttributeError as exc:\n    print(exc)\n"
        "print(hasattr(powerindex, 'weights_from_cap'))\n"
        "try:\n    from powerindex import nothing_here\n"
        "except ImportError as exc:\n    print(exc.msg.split(' (')[0])\n"
    )
    assert out == (
        "module 'powerindex' has no attribute 'nothing_here'\n"
        "False\n"
        "cannot import name 'nothing_here' from 'powerindex'\n"
    )


def test_a_pickled_report_loads_before_its_module():
    """A pickled ``DiagnosticsReport`` unpickles in a fresh interpreter that
    has not touched ``powerindex.diagnostics``: pickle imports it."""
    mu = powerindex.WeightVector(("A", "B", "C"), [0.5, 0.3, 0.2])
    report = powerindex.diagnostics_report(mu, powerindex.power_rebalance(mu, 0.5))
    out = _python(
        "import pickle, sys; "
        + _loaded(("powerindex.diagnostics",))
        + "; print(repr(pickle.loads(bytes.fromhex(sys.stdin.read()))))",
        stdin=pickle.dumps(report).hex(),
    )
    assert out == f"[]\n{report!r}\n"
