import os
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_the_cli_unloaded():
    """``import powerindex`` loads neither the CLI nor argparse, nor
    dataclasses, so the library starts as fast as numpy and the package
    allow."""
    code = (
        "import sys, powerindex; print([m for m in "
        "('argparse', 'dataclasses', 'powerindex.cli') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_solve_command_leaves_dataclasses_unloaded(tmp_path):
    """``python -m powerindex solve`` runs without importing dataclasses:
    ``-X importtime`` lists every module the command imports."""
    universe = tmp_path / "universe.csv"
    universe.write_text("id,market_cap\nA,3\nB,2\nC,1\n")
    argv = ["solve", "--input", str(universe), "--target", "max", "--bound", "0.45"]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "powerindex", *argv],
        capture_output=True, text=True, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("p_star=")
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "powerindex.cli" in imported and "argparse" in imported
    assert "dataclasses" not in imported
