"""Workloads of the powerindex benchmark: inputs, operations and checks.

``run.py`` starts this file as a child process for each run, so the
package is imported fresh and run.py stays free of it. Inputs are
generated here from the workload seed; the package only ever sees the
generated universe files (or, for the in-process sweep, the generated
constituents).

Every workload is a closed loop with one client: an operation starts
when the previous one has finished. The benchmark machine has two
cores, so concurrent operations would measure contention for them
rather than the package. An operation is

* ``paper_sweep``: one 100-name universe of the paper's research loop
  (cap-weight, calibrate p to a top-6 bound, then power, linpower and
  cap, each followed by a diagnostics report), in process;
* the CLI workloads: one pass over the workload's list of ``powerindex``
  subcommands, each run as a subprocess. A pass, not a single command,
  is the unit so that every operation does the same mix of work.

Each operation's outputs are checked; an operation with any problem
counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io as stdio
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PARETO_ALPHA = 1.2
TOP_K = 6
TANGLE_TARGET = 0.3
SUM_TOL = 1e-9
MAX_GROWTH_TOL = 1e-12
COMMAND_TIMEOUT_S = 90.0
# The traced sweep keeps every span in memory; this bounds it.
MAX_TRACED_SWEEP_OPS = 300
# Seconds of in-process sweep between two timings of the reference.
SWEEP_REFERENCE_EVERY_S = 1.0

# A fixed program, independent of powerindex, timed as a fresh process
# before each CLI pass, every second of the sweep, and before each
# set-up sample. The host's speed swings by up to half between phases
# that last tens of seconds; dividing each time by the reference time
# taken just before it cancels most of that swing. Gated times are those
# ratios rescaled to a host that runs the reference in REFERENCE_HOST_S.
REFERENCE_HOST_S = 0.3
REFERENCE = """
import numpy as np
ids = [f"N{i:07d}" for i in range(100000)]
vals = [float(repr(i * 1.2345e7)) for i in range(100000)]
table = dict(zip(ids, vals))
members = set(ids)
total = sum(table[i] for i in ids if i in members)
float(np.exp(0.5 * np.log(np.array(vals) + 1.0)).sum())
"""

SIZES = {
    "full": {"paper_sweep": 100, "broad_cli": 2_500, "large_solve": 50_000, "cap_tangle": 600},
    "tiny": {"paper_sweep": 20, "broad_cli": 200, "large_solve": 2_000, "cap_tangle": 50},
}
SWEEP_UNIVERSES = {"full": 200, "tiny": 8}


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's package first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Finished:
    wall_s: float
    exit_code: int
    maxrss_kb: int
    stdout: str
    stderr: str


def spawn(
    argv: list[str], scratch: Path, tag: str = "command", timeout_s: float = COMMAND_TIMEOUT_S
) -> Finished:
    """Run ``argv`` to completion and time it from start to reaped exit.

    Output goes to ``<tag>.out`` and ``<tag>.err`` in ``scratch`` rather
    than to pipes, so the process can be reaped with ``os.wait4``, which
    also gives its peak resident memory.
    """
    out_path, err_path = scratch / f"{tag}.out", scratch / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
    # Reaped above; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        wall,
        proc.returncode,
        usage.ru_maxrss,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


# -- inputs -----------------------------------------------------------------


def pareto_caps(rng: np.random.Generator, n: int) -> np.ndarray:
    """Pareto(1.2) market caps with a 1e9 scale: heavy-tailed like a
    real cap-weighted index."""
    return (rng.pareto(PARETO_ALPHA, n) + 1.0) * 1e9


def near_equal_caps(rng: np.random.Generator, n: int) -> np.ndarray:
    """Caps within 1% of each other, so about half sit above 1/n."""
    return 1e9 * (1.0 + 0.01 * rng.random(n))


def identifiers(n: int) -> list[str]:
    return [f"N{i:07d}" for i in range(n)]


def write_table(path: Path, header: str, ids: list[str], values: np.ndarray) -> int:
    """Write ``id,<value>`` rows at full ``repr`` precision; return bytes."""
    text = header + "\n" + "".join(f"{i},{v!r}\n" for i, v in zip(ids, values.tolist()))
    path.write_text(text, encoding="utf-8")
    return path.stat().st_size


def top_k(w: np.ndarray, k: int) -> float:
    return float(np.sort(w)[-k:].sum())


def solve_bound(stat: float, floor: float) -> float:
    """Half the input's own statistic, so the solver always has work.

    A fixed bound would already be met by large Pareto universes and the
    solver would return p=1 after no iterations. Falls back to the
    midpoint of floor and statistic if half lies on the infeasible side.
    """
    half = 0.5 * stat
    return half if half > floor else 0.5 * (stat + floor)


def cap_weights(w: np.ndarray, threshold: float, target: float) -> np.ndarray:
    """Cap-and-redistribute, written independently of the package."""
    capped = w > threshold
    if not capped.any():
        return w / w.sum()
    s = w[capped].sum()
    out = np.where(capped, w * (target / s), w * ((1.0 - target) / (1.0 - s)))
    return out / out.sum()


def inversions(mu: np.ndarray, eta: np.ndarray) -> int:
    """Pairs with mu_i < mu_j and eta_i > eta_j, by brute force in chunks."""
    total = 0
    for lo in range(0, mu.size, 512):
        a, b = mu[lo:lo + 512, None], eta[lo:lo + 512, None]
        total += int(np.count_nonzero((a < mu[None, :]) & (b > eta[None, :])))
    return total


# -- output checks ----------------------------------------------------------
# Each returns a list of problems; an empty list means the output is right.


def _fields(text: str) -> dict[str, str]:
    """key=value tokens from console output."""
    out: dict[str, str] = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def check_solve(stdout: str) -> list[str]:
    f = _fields(stdout)
    try:
        p, iterations = float(f["p_star"]), int(f["iterations"])
    except (KeyError, ValueError):
        return [f"solve output unreadable: {stdout!r}"]
    problems = []
    if f.get("converged") != "true":
        problems.append("solve did not converge")
    if not 0.0 < p < 1.0:
        problems.append(f"p_star {p!r} not in (0, 1)")
    if iterations <= 0:
        problems.append(f"solve ran {iterations} iterations")
    return problems


def check_report(path: Path, violations: int | None) -> list[str]:
    """Report weights sum to 1; the violation count is ``violations``, or
    for order-preserving rules (``None``) zero with no max-weight growth."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        payload = json.loads(text)
        summary = payload["summary"]
        after = [row["weight_after"] for row in payload["rows"]]
    else:
        summary, after = {}, []
        for line in text.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                summary[key] = value
            elif not line.startswith("id,"):
                after.append(float(line.split(",")[2]))
    problems = []
    total = float(np.sum(after))
    if abs(total - 1.0) > SUM_TOL:
        problems.append(f"{path.name}: weights sum to {total!r}")
    count = int(summary["order_violation_count"])
    if violations is None:
        if count:
            problems.append(f"{path.name}: {count} order violations")
        if float(summary["max_after"]) > float(summary["max_before"]) + MAX_GROWTH_TOL:
            problems.append(f"{path.name}: max weight increased")
    elif count != violations:
        problems.append(f"{path.name}: {count} violations, expected {violations}")
    return problems


def check_diagnose(stdout: str, violations: int, max_increased: bool) -> list[str]:
    f = _fields(stdout)
    problems = []
    if f.get("order_violations") != str(violations):
        problems.append(f"diagnose: {f.get('order_violations')} violations, expected {violations}")
    if f.get("max_increased") != ("true" if max_increased else "false"):
        problems.append(f"diagnose: max_increased={f.get('max_increased')}")
    return problems


def check_compare(stdout: str, expected: list[int | None], max_before: float) -> list[str]:
    """One table row per rule; ``None`` marks an order-preserving rule."""
    rows = [line.split() for line in stdout.splitlines()[1:] if line.strip()]
    if len(rows) != len(expected):
        return [f"compare printed {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, want in zip(rows, expected):
        max_after, count = float(row[2]), int(row[3])
        if want is None:
            if count:
                problems.append(f"compare {row[0]}: {count} violations")
            # Console values carry 6 significant digits.
            if max_after > max_before * (1.0 + 1e-5):
                problems.append(f"compare {row[0]}: max weight increased")
        elif count != want:
            problems.append(f"compare {row[0]}: {count} violations, expected {want}")
    return problems


def check_run(code: int | None, stderr: str, expect_exit: int) -> list[str]:
    problems = []
    if code != expect_exit:
        problems.append(f"exit code {code}, expected {expect_exit}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return problems


# -- workloads --------------------------------------------------------------


@dataclass
class Command:
    """One ``powerindex`` subcommand of a CLI workload's pass."""

    label: str
    argv: list[str]
    expect_exit: int
    check: Callable[[str], list[str]]
    report: Path | None = None

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass
class Universe:
    """One date of the in-process sweep."""

    constituents: list[Any]
    bound: float
    cap_violations: int


@dataclass
class Workload:
    inputs: dict[str, Any]
    commands: list[Command] = field(default_factory=list)
    universes: list[Universe] = field(default_factory=list)


def build(name: str, seed: int, scale: str, scratch: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` into ``scratch``."""
    n = SIZES[scale][name]
    # Any integer seed; each workload draws its own stream from it.
    rng = np.random.default_rng([seed & (2**64 - 1), list(SIZES["full"]).index(name)])
    if name == "paper_sweep":
        return _paper_sweep(n, rng, SWEEP_UNIVERSES[scale])
    caps = near_equal_caps(rng, n) if name == "cap_tangle" else pareto_caps(rng, n)
    ids = identifiers(n)
    w = caps / caps.sum()
    universe = scratch / "universe.csv"
    before = scratch / "before.csv"
    inputs = {
        "n": n,
        "rows": n,
        "universe_bytes": write_table(universe, "id,market_cap", ids, caps),
        "before_bytes": write_table(before, "id,weight", ids, w),
    }
    u, b = str(universe), str(before)
    if name == "broad_cli":
        csv_report, json_report = scratch / "power.csv", scratch / "linpower.json"
        bound = solve_bound(top_k(w, TOP_K), TOP_K / n)
        cap_count = inversions(w, cap_weights(w, 0.045, 0.40))
        max_before = float(w.max())
        commands = [
            Command("rebalance power csv",
                    ["rebalance", "--input", u, "--method", "power", "--p", "0.5",
                     "--output", str(csv_report)],
                    0, lambda out: check_report(csv_report, None), csv_report),
            Command("rebalance linpower json",
                    ["rebalance", "--input", u, "--method", "linpower", "--p", "0.5",
                     "--output", str(json_report), "--format", "json"],
                    0, lambda out: check_report(json_report, None), json_report),
            Command("diagnose before linpower",
                    ["diagnose", "--before", b, "--after", str(json_report)],
                    0, lambda out: check_diagnose(out, 0, False)),
            Command("compare power linpower cap",
                    ["compare", "--input", u, "--methods", "power:p=0.5,linpower:p=0.5,cap"],
                    0, lambda out: check_compare(out, [None, None, cap_count], max_before)),
            Command("solve top-6",
                    ["solve", "--input", u, "--target", "top-k", "--k", str(TOP_K),
                     "--bound", repr(bound)],
                    0, check_solve),
        ]
        inputs.update(top6_bound=bound, cap_violations=cap_count)
    elif name == "large_solve":
        top_bound = solve_bound(top_k(w, TOP_K), TOP_K / n)
        max_bound = solve_bound(float(w.max()), 1.0 / n)
        commands = [
            Command("solve top-6",
                    ["solve", "--input", u, "--target", "top-k", "--k", str(TOP_K),
                     "--bound", repr(top_bound)],
                    0, check_solve),
            Command("solve max",
                    ["solve", "--input", u, "--target", "max", "--bound", repr(max_bound)],
                    0, check_solve),
        ]
        inputs.update(top6_bound=top_bound, max_bound=max_bound)
    elif name == "cap_tangle":
        threshold = 1.0 / n
        eta = cap_weights(w, threshold, TANGLE_TARGET)
        count = inversions(w, eta)
        # Names just under the threshold absorb the capped mass and
        # overtake the old maximum.
        grows = bool(eta.max() > w.max() + MAX_GROWTH_TOL)
        report = scratch / "cap.json"
        commands = [
            Command("compare cap",
                    ["compare", "--input", u, "--methods",
                     f"cap:threshold={threshold!r}:target={TANGLE_TARGET!r}"],
                    0, lambda out: check_compare(out, [count], float(w.max()))),
            Command("rebalance cap json",
                    ["rebalance", "--input", u, "--method", "cap",
                     "--threshold", repr(threshold),
                     "--target-aggregate", repr(TANGLE_TARGET),
                     "--output", str(report), "--format", "json"],
                    0, lambda out: check_report(report, count), report),
            Command("diagnose before cap",
                    ["diagnose", "--before", b, "--after", str(report)],
                    4, lambda out: check_diagnose(out, count, grows)),
        ]
        inputs.update(threshold=threshold, cap_violations=count, max_increases=grows)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(inputs, commands=commands)


def _paper_sweep(n: int, rng: np.random.Generator, count: int) -> Workload:
    from powerindex import Constituent

    ids = identifiers(n)
    universes = []
    for _ in range(count):
        caps = pareto_caps(rng, n)
        w = caps / caps.sum()
        universes.append(Universe(
            [Constituent(i, market_cap=c) for i, c in zip(ids, caps.tolist())],
            solve_bound(top_k(w, TOP_K), TOP_K / n),
            inversions(w, cap_weights(w, 0.045, 0.40)),
        ))
    inputs = {"n": n, "rows": n * count, "universes": count, "universe_bytes": 0}
    return Workload(inputs, universes=universes)


def sweep_op(u: Universe) -> tuple[Any, list[tuple[str, Any, Any]]]:
    """The paper's calibrate-every-date loop for one universe.

    Functions are looked up on the package at call time so that the
    traced run sees them.
    """
    import powerindex as pi

    mu = pi.weights_from_market_caps(u.constituents)
    result = pi.solve_exponent(mu, pi.CalibrationTarget("top_k_sum", u.bound, k=TOP_K))
    etas = [
        ("power", pi.power_rebalance(mu, pi.PowerRule(result.p_star))),
        ("linpower", pi.linearized_power_rebalance(mu, pi.LinearizedPowerRule(result.p_star))),
        ("cap", pi.cap_rebalance(mu, pi.CapRule())),
    ]
    return result, [(name, eta, pi.diagnostics_report(mu, eta)) for name, eta in etas]


def check_sweep(u: Universe, result: Any, reports: list[tuple[str, Any, Any]]) -> list[str]:
    problems = []
    if not result.converged:
        problems.append("solve did not converge")
    if not 0.0 < result.p_star < 1.0:
        problems.append(f"p_star {result.p_star!r} not in (0, 1)")
    if result.iterations <= 0:
        problems.append(f"solve ran {result.iterations} iterations")
    for name, eta, report in reports:
        total = float(eta.weights.sum())
        if abs(total - 1.0) > SUM_TOL:
            problems.append(f"{name}: weights sum to {total!r}")
        count = len(report.order_violations)
        if name == "cap":
            if count != u.cap_violations:
                problems.append(f"cap: {count} violations, expected {u.cap_violations}")
        elif count or report.max_increased:
            problems.append(f"{name}: {count} violations, max_increased={report.max_increased}")
    return problems


def sweep_digest(result: Any, reports: list[tuple[str, Any, Any]]) -> str:
    parts = [repr(result.p_star).encode()] + [eta.weights.tobytes() for _, eta, _ in reports]
    return sha256(b"".join(parts))


def run_in_process(argv: list[str], tracer: Any = None) -> tuple[float, int | None, str, str]:
    """``cli.run_cli`` in this process: wall seconds, exit, stdout, stderr.

    With a tracer, the call runs inside a span for the command and a
    ``cli.run_cli`` span below it.
    """
    import powerindex.cli

    out, err = stdio.StringIO(), stdio.StringIO()
    # Start from a collected heap, as a fresh process would.
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        with contextlib.ExitStack() as spans:
            if tracer is not None:
                spans.enter_context(tracer.span(f"op.{argv[0]}"))
                spans.enter_context(tracer.span("cli.run_cli"))
            try:
                code: int | None = powerindex.cli.run_cli(argv)
            except Exception:
                code = None
                traceback.print_exc()
        wall = perf_counter() - start
    return wall, code, out.getvalue(), err.getvalue()


# -- runs -------------------------------------------------------------------


class Run:
    """Counters and records shared by the timed and traced runs."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, list[str]] = {}

    def finish_op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"op {self.attempted}: {p}" for p in problems[:5])

    def digest(self, key: str, value: str) -> None:
        seen = self.digests.setdefault(key, [])
        if value not in seen:
            seen.append(value)

    def command_problems(self, cmd: Command, code: int | None, stdout: str, stderr: str) -> list[str]:
        problems = [f"{cmd.label}: {p}" for p in check_run(code, stderr, cmd.expect_exit)]
        if code == cmd.expect_exit:
            try:
                problems += cmd.check(stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"{cmd.label}: output unreadable: {exc!r}")
        self.digest(f"{cmd.label} stdout", sha256(stdout))
        if cmd.report is not None and cmd.report.exists():
            self.digest(f"{cmd.label} report", sha256(cmd.report.read_bytes()))
        return problems


def percentile_tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, as
    (value, percentile), or None with ten samples or fewer."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 11  # ten samples lie beyond this one
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def reference_s(scratch: Path) -> float:
    done = spawn([sys.executable, "-c", REFERENCE], scratch, tag="reference")
    if done.exit_code != 0:
        raise RuntimeError(f"reference program failed:\n{done.stderr}")
    return done.wall_s


def timed(run: Run, seconds: float, scratch: Path) -> dict[str, Any]:
    """Closed loop for ``seconds``; returns latencies, command walls, the
    reference times, and for each operation the reference time before it."""
    wl = run.workload
    latencies: list[float] = []
    walls: dict[str, list[float]] = {}
    references: list[float] = []
    paired: list[float] = []
    maxrss_kb = 0
    next_reference = perf_counter()
    deadline = next_reference + seconds
    i = 0
    while True:
        if perf_counter() >= next_reference:
            references.append(reference_s(scratch))
            # Every CLI pass; every couple of seconds of the sweep.
            next_reference = perf_counter() + (SWEEP_REFERENCE_EVERY_S if wl.universes else 0.0)
        paired.append(references[-1])
        if wl.universes:
            u = wl.universes[i % len(wl.universes)]
            start = perf_counter()
            result, reports = sweep_op(u)
            latencies.append(perf_counter() - start)
            run.finish_op(check_sweep(u, result, reports))
            run.digest(f"universe {i % len(wl.universes)}", sweep_digest(result, reports))
        else:
            problems: list[str] = []
            total = 0.0
            for cmd in wl.commands:
                done = spawn([sys.executable, "-m", "powerindex", *cmd.argv], scratch)
                total += done.wall_s
                walls.setdefault(cmd.kind, []).append(done.wall_s)
                maxrss_kb = max(maxrss_kb, done.maxrss_kb)
                problems += run.command_problems(cmd, done.exit_code, done.stdout, done.stderr)
            latencies.append(total)
            run.finish_op(problems)
        i += 1
        if perf_counter() >= deadline:
            break
    if wl.universes:
        # The sweep runs the package in this process; its own peak, not
        # that of the reference processes it started.
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"latencies_s": latencies, "command_walls_s": walls, "maxrss_kb": maxrss_kb,
            "references_s": references, "paired_references_s": paired}


def traced(run: Run, seconds: float, scratch: Path) -> dict[str, Any]:
    """Replay operations in process, untraced then traced, for the
    per-layer breakdown; CLI commands also run once as subprocesses so
    that start-up is the difference between the two."""
    from tracing import Tracer, instrumented

    wl = run.workload
    tracer = Tracer()
    plain: list[float] = []
    with_trace: list[float] = []
    in_process: list[float] = []
    startup: list[float] = []
    deadline = perf_counter() + seconds
    op = 0
    while True:
        tracer.op = op
        if wl.universes:
            u = wl.universes[op % len(wl.universes)]
            start = perf_counter()
            sweep_op(u)
            plain.append(perf_counter() - start)
            with instrumented(tracer):
                with tracer.span("op.paper_sweep"):
                    start = perf_counter()
                    result, reports = sweep_op(u)
                    with_trace.append(perf_counter() - start)
            run.finish_op(check_sweep(u, result, reports))
        else:
            problems: list[str] = []
            untraced_total = traced_total = 0.0
            for cmd in wl.commands:
                sub = spawn([sys.executable, "-m", "powerindex", *cmd.argv], scratch)
                problems += run.command_problems(cmd, sub.exit_code, sub.stdout, sub.stderr)
                wall, code, out, err = run_in_process(cmd.argv)
                problems += run.command_problems(cmd, code, out, err)
                in_process.append(wall)
                startup.append(sub.wall_s - wall)
                untraced_total += wall
                with instrumented(tracer):
                    wall, code, out, err = run_in_process(cmd.argv, tracer)
                problems += run.command_problems(cmd, code, out, err)
                traced_total += wall
            plain.append(untraced_total)
            with_trace.append(traced_total)
            run.finish_op(problems)
        op += 1
        if perf_counter() >= deadline or (wl.universes and op >= MAX_TRACED_SWEEP_OPS):
            break
    return {
        "per_layer": per_layer_metrics(tracer, in_process, startup, plain, with_trace),
        "table": tracer.table(),
        "spans": tracer.spans,
    }


# Spans reported as "<span>_s": the median duration of one call.
TIMED_SPANS = (
    "diagnostics.report", "diagnostics.find_violations", "diagnostics.turnover",
    "diagnostics.concentration", "diagnostics.compare_methods", "calibration.solve",
    "io.parse_universe", "io.read_weight_file", "io.report_payload", "io.render_csv",
    "io.render_json", "io.write_report", "weights.from_market_caps", "weights.vector",
    "transforms.power", "transforms.linpower", "transforms.cap",
)


def median0(values: list[float]) -> float:
    """Median, or 0.0 for a layer the workload never reaches."""
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(
    tracer: Any,
    in_process: list[float],
    startup: list[float],
    plain: list[float],
    with_trace: list[float],
) -> dict[str, float]:
    from tracing import END, ID, NAME, START

    out = {f"{span}_s": median0(tracer.durations(span)) for span in TIMED_SPANS}
    out["diagnostics.violations"] = median0(tracer.counts("diagnostics.violations"))
    out["calibration.iterations"] = median0(tracer.counts("calibration.iterations"))
    evals = tracer.child_counts("transforms.power")
    out["calibration.s_per_eval"] = median0([
        (s[END] - s[START]) / evals[s[ID]]
        for s in tracer.spans
        if s[NAME] == "calibration.solve" and evals.get(s[ID])
    ])
    for counter in ("io.rows", "io.bytes_read", "io.bytes_written"):
        out[counter] = median0(tracer.per_op(counter))
    own = tracer.self_times()
    out["cli.run_cli_s"] = median0(in_process)
    out["cli.self_s"] = median0([own[s[ID]] for s in tracer.spans if s[NAME] == "cli.run_cli"])
    out["cli.startup_s"] = median0(startup)
    out["trace.overhead_s"] = median0([t - p for t, p in zip(with_trace, plain)])
    return out


def summarize(run: Run, measured: dict[str, Any]) -> dict[str, Any]:
    """End-to-end figures of a timed run, plus the informational ones
    that apply to this workload only."""
    lat = measured["latencies_s"]
    refs = measured["references_s"]
    ratios = [t / ref for t, ref in zip(lat, measured["paired_references_s"])]
    metrics = {"op_p50_ms": 1000.0 * REFERENCE_HOST_S * statistics.median(ratios)}
    info: dict[str, dict[str, Any]] = {
        "op_p50_raw_ms": {"value": 1000.0 * statistics.median(lat), "unit": "ms",
                          "samples": len(lat)},
        "reference_s": {"value": statistics.median(refs), "unit": "s", "samples": len(refs)},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s", "samples": len(lat)},
    }
    tail = percentile_tail(lat)
    if tail is None:
        info["op_tail_ms"] = {"value": None, "unit": "ms", "samples": len(lat),
                              "note": "ten samples or fewer; no tail percentile"}
    else:
        info["op_tail_ms"] = {"value": 1000.0 * tail[0], "unit": "ms",
                              "percentile": tail[1], "samples": len(lat)}
    for kind, walls in sorted(measured["command_walls_s"].items()):
        info[f"{kind}_s"] = {"value": statistics.median(walls), "unit": "s", "samples": len(walls)}
    info["failed_ratio"] = {"value": run.failed / run.attempted, "unit": "ratio",
                            "samples": run.attempted}
    return {"metrics": metrics, "info": info, "maxrss_kb": measured["maxrss_kb"],
            "latencies_s": lat, "references_s": refs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=list(SIZES), default="full")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    import powerindex

    if SRC.resolve() not in Path(powerindex.__file__).resolve().parents:
        print(f"powerindex imported from {powerindex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = build(args.workload, args.seed, args.scale, args.scratch)
    run = Run(workload)
    if args.trace:
        body = traced(run, args.seconds, args.scratch)
    else:
        body = summarize(run, timed(run, args.seconds, args.scratch))
    body.update(
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems[:50],
        digests=run.digests,
        inputs=workload.inputs,
    )
    args.result.write_text(json.dumps(body), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
