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


def test_import_leaves_the_cli_unloaded():
    """``import powerindex`` loads neither the CLI nor argparse, so the
    library starts as fast as numpy and the package allow."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, powerindex; "
        "print([m for m in ('argparse', 'powerindex.cli') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
