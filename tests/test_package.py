import ast
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import powerindex

PACKAGE = Path(powerindex.__file__).resolve().parent
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


# The rules, the solver and what they share; then numpy, every module of
# the package, and the standard modules that only the CLI, the
# diagnostics or the file readers and writers need.
CORE = ("powerindex.calibration", "powerindex.errors", "powerindex.transforms",
        "powerindex.weights")
UNLOADED = (
    "numpy", *sorted((*CORE, "powerindex.cli", "powerindex.diagnostics", "powerindex.io")),
    "argparse", "csv", "dataclasses", "json",
)


def test_import_leaves_the_cli_unloaded():
    """``import powerindex`` loads none of the package's modules, nor numpy,
    nor the standard modules only the CLI and the file formats need: each
    loads on the first use of a name that needs it."""
    out = _python("import powerindex; " + _loaded(UNLOADED))
    assert out == "[]\n"


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
    ``dir`` lists them all without loading a module."""
    out = _python(
        "import powerindex; listed = set(dir(powerindex)); "
        + _loaded(UNLOADED)
        + "; print(sorted(set(powerindex.__all__) - listed)); "
        "from powerindex import *; "
        "print([n for n in powerindex.__all__ if n not in globals()])"
    )
    assert out == "[]\n[]\n[]\n"


def _first_access(name: str, home: str) -> str:
    """Code that touches ``powerindex.<name>`` after a bare import, then
    prints whether it is ``<home>``'s object, which of a few names of four
    modules the package then holds, and which modules are loaded."""
    probe = ("InfeasibleError", "RebalanceError", "diagnostics_report", "parse_universe",
             "power_rebalance", "solve_exponent", "top_k_sum", "turnover")
    return (
        f"import powerindex; v = powerindex.{name}; "
        f"print(v is powerindex.{home}.{name}); "
        f"print([n for n in {probe!r} if n in vars(powerindex)]); "
        + _loaded(UNLOADED)
    )


def test_a_deferred_name_binds_its_module_on_first_access():
    """The first access to a diagnostics name imports that module and what
    it imports, and not the file readers and writers, and binds its names
    in the package, so that later lookups find them there."""
    out = _python(_first_access("diagnostics_report", "diagnostics"))
    loaded = sorted(("numpy", "powerindex.diagnostics", *CORE))
    assert out == f"True\n['diagnostics_report', 'turnover']\n{loaded}\n"


@pytest.mark.parametrize(
    "name, home, bound, loaded",
    [
        pytest.param(
            "RebalanceError", "errors", ["InfeasibleError", "RebalanceError"],
            ["powerindex.errors"], id="errors",
        ),
        pytest.param(
            "solve_exponent", "calibration", ["solve_exponent", "top_k_sum"],
            ["numpy", *CORE], id="calibration",
        ),
    ],
)
def test_a_core_name_binds_its_module_on_first_access(name, home, bound, loaded):
    """An error class loads its module alone, without numpy; the solver
    loads the core modules it imports. Only the names of the module
    touched are bound."""
    assert _python(_first_access(name, home)) == f"True\n{bound}\n{loaded}\n"


def test_each_module_imports_from_the_package_after_a_bare_import():
    """After ``import powerindex``, ``from powerindex import <module>`` gives
    each of the package's modules."""
    out = _python(
        "import sys, powerindex; "
        "from powerindex import calibration, cli, diagnostics, errors, io, transforms, weights; "
        "print([m.__name__ for m in (calibration, cli, diagnostics, errors, io, transforms, weights) "
        "if m is not sys.modules[m.__name__]])"
    )
    assert out == "[]\n"


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


# numpy products that may hand a sum to BLAS, whose thread count can change
# how the sum is split, and so its last bits.
BLAS_CALLS = {"dot", "inner", "matmul", "vdot"}


def test_the_package_makes_no_blas_call():
    """No ``@`` and no call to a numpy product that goes to BLAS."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult
            ):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in BLAS_CALLS:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_the_cli_asks_for_one_blas_thread_before_numpy_loads(tmp_path):
    """``python -m powerindex`` sets each thread-count variable the caller
    left unset to "1", and keeps the caller's own, before numpy is
    imported: a finder records the variables at numpy's first import."""
    (tmp_path / "universe.csv").write_text("id,market_cap\nA,3\nB,2\nC,1\n")
    code = (
        "import json, os, runpy, sys\n"
        "seen = []\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        f"            seen.append({{v: os.environ.get(v) for v in {THREAD_VARIABLES!r}}})\n"
        "sys.meta_path.insert(0, Probe())\n"
        "try:\n"
        "    runpy.run_module('powerindex', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    sys.stderr.write(json.dumps([exc.code, seen]))\n"
    )
    env = {k: v for k, v in _env().items() if k not in THREAD_VARIABLES}
    env["OMP_NUM_THREADS"] = "3"
    argv = ["solve", "--input", "universe.csv", "--target", "max", "--bound", "0.45"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env,
        cwd=tmp_path,
    )
    assert proc.stdout.startswith("p_star=")
    expected = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "1"}
    assert json.loads(proc.stderr) == [0, [expected]]


# The spans a traced ``paper_sweep`` operation must record.
SWEEP_SPANS = (
    "weights.from_market_caps", "calibration.solve", "transforms.power", "diagnostics.report"
)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced(body: str) -> object:
    """Run ``body`` in a fresh interpreter that imports ``perfbench``'s
    ``tracing`` without writing bytecode, as the benchmark does; return
    what it prints, read as JSON."""
    return json.loads(_python(
        "import json, sys\n"
        "sys.dont_write_bytecode = True\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "from pathlib import Path\n"
        "from tracing import Tracer, instrumented\n"
        "tracer = Tracer()\n" + body
    ))


def test_the_benchmark_still_traces_the_package(tmp_path):
    """``perfbench/tracing.py`` swaps the package's public functions, and
    ``WeightVector.__post_init__``, for timing wrappers by name. A fresh
    interpreter runs the tiny ``paper_sweep`` operations under that
    tracing: every check passes and each traced layer records a span."""
    problems, spans = _traced(
        "import workloads\n"
        f"work = workloads.build('paper_sweep', 7, 'tiny', Path({str(tmp_path)!r}))\n"
        "problems = []\n"
        "with instrumented(tracer):\n"
        "    for u in work.universes:\n"
        "        problems += workloads.check_sweep(u, *workloads.sweep_op(u))\n"
        "print(json.dumps([problems, sorted({span[2] for span in tracer.spans})]))\n"
    )
    assert problems == []
    assert set(SWEEP_SPANS) <= set(spans), spans


def test_the_benchmark_counts_the_rows_the_readers_return(tmp_path):
    """The benchmark's CLI workloads count ``io.rows`` as ``len()`` of a
    parsed ``Universe`` and as ``.n`` of a read ``WeightVector``, and
    ``io.bytes_read`` as the file's size. A fresh interpreter reads a
    three-name universe and a two-name weight file under that tracing."""
    universe, weights = tmp_path / "universe.csv", tmp_path / "weights.csv"
    universe.write_text("id,market_cap\nA,3\nB,2\nC,1\n")
    weights.write_text("id,weight\nA,0.75\nB,0.25\n")
    rows, sizes = _traced(
        "from powerindex import io\n"
        "with instrumented(tracer):\n"
        f"    io.parse_universe(Path({str(universe)!r}))\n"
        f"    io.read_weight_file(Path({str(weights)!r}))\n"
        "print(json.dumps([tracer.counts('io.rows'), tracer.counts('io.bytes_read')]))\n"
    )
    assert rows == [3.0, 2.0]
    assert sizes == [universe.stat().st_size, weights.stat().st_size]
