"""Entry point of the powerindex benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload broad_cli --seed 1 --seconds 22 --trace 0

Measures ``setup_s`` (fresh interpreters importing the package, before
and after the workload), runs the workload in one child process
(``workloads.py``) and prints a human-readable summary followed, as the
last line, by one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, from a separate
in-process replay with spans around each module's public functions.

A full record (environment, inputs, informational metrics, output
digests, span table) is written under ``perfbench/_work/results``.
The benchmark changes no machine setting: no CPU pinning, no cache
dropping, no frequency or scheduler control.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
PACKAGE = ROOT / "src" / "powerindex"

# Fresh interpreters timed for setup_s, each after a run of the reference
# program, half before and half after the workload so the median spans
# the run; one untimed warm-up first writes the bytecode cache.
SETUP_SAMPLES = 8
# The whole run must end well inside 180 seconds.
RUN_BUDGET_S = 170.0
MACHINE_SETTINGS = "unchanged: no CPU pinning, no cache dropping, no frequency or scheduler control"


def environment() -> dict[str, object]:
    """Where and on what the numbers were taken."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append({
                key: (index / key).read_text().strip() for key in ("level", "type", "size")
            })
        except OSError:
            pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "loadavg_at_start": os.getloadavg(),
        "machine_settings": MACHINE_SETTINGS,
    }


def setup_seconds(scratch: Path, samples: int) -> list[tuple[float, float]]:
    """(import, reference) wall-time pairs: a fresh interpreter running
    ``import powerindex``, and the reference program run just before it."""
    argv = [sys.executable, "-c", "import powerindex"]
    pairs = []
    for _ in range(samples):
        reference = workloads.reference_s(scratch)
        done = workloads.spawn(argv, scratch, tag="setup")
        if done.exit_code != 0:
            raise RuntimeError(f"import powerindex failed:\n{done.stderr}")
        pairs.append((done.wall_s, reference))
    return pairs


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=list(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test only")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no powerindex package at {PACKAGE}; run from a checkout", file=sys.stderr)
        return 2

    scratch = WORK / f"run-{args.workload}"
    results = WORK / "results"
    if scratch.exists():
        for stale in scratch.iterdir():
            stale.unlink()
    scratch.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    env = environment()
    setup: list[tuple[float, float]] = []
    if not args.trace:
        setup_seconds(scratch, 1)  # warm-up, discarded
        setup = setup_seconds(scratch, SETUP_SAMPLES // 2)

    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    body_path = scratch / "body.json"
    child = workloads.spawn(
        [sys.executable, str(HERE / "workloads.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--scale", args.scale, "--scratch", str(scratch), "--result", str(body_path)],
        scratch,
        tag="workload",
        timeout_s=max(1.0, RUN_BUDGET_S - (perf_counter() - started)),
    )
    if child.exit_code != 0 or not body_path.exists():
        print(f"workload child exited {child.exit_code}:\n{child.stderr}", file=sys.stderr)
        return 1
    body = json.loads(body_path.read_text(encoding="utf-8"))
    if not args.trace:
        setup += setup_seconds(scratch, SETUP_SAMPLES - len(setup))

    if args.trace:
        declared = spec["per_layer"]
        values = body["per_layer"]
    else:
        declared = spec["end_to_end"]
        ratios = [imp / ref for imp, ref in setup]
        values = dict(body["metrics"],
                      setup_s=workloads.REFERENCE_HOST_S * statistics.median(ratios),
                      peak_rss_mb=body["maxrss_kb"] / 1024.0)
        body["info"]["setup_raw_s"] = {"value": statistics.median(imp for imp, _ in setup),
                                       "unit": "s", "samples": len(setup)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "environment": env,
        "inputs": body["inputs"], "metrics": metrics, "info": body.get("info", {}),
        "setup_pairs_s": setup, "attempted": body["attempted"], "failed": body["failed"],
        "problems": body["problems"], "digests": body["digests"],
        "latencies_s": body.get("latencies_s"), "references_s": body.get("references_s"),
    }
    if args.trace:
        record["span_table"] = body["table"]
        (results / f"{stem}.spans.json").write_text(json.dumps(body["spans"]), encoding="utf-8")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for stale in scratch.iterdir():
        stale.unlink()

    print(f"# {args.workload} seed={args.seed} n={body['inputs']['n']} "
          f"attempted={body['attempted']} failed={body['failed']} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"load={env['loadavg_at_start'][0]:.2f}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    for name, m in record["info"].items():
        extra = " ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"# info {name} = {m['value']!r} {m['unit']} {extra}".rstrip())
    if args.trace:
        print("# span self_s total_s calls")
        for row in body["table"]:
            print(f"#   {row['span']:<30} {row['self_s']:.6f} {row['total_s']:.6f} {row['calls']}")
    for problem in body["problems"]:
        print(f"# problem: {problem}", file=sys.stderr)
    print(f"# record: {(results / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": body["failed"] == 0,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
