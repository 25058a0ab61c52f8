"""Fast self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for one second at tiny n, timed
and traced, and checks that the last line of output is the result
object with every declared metric under its unit, that no operation
failed, and that the record carries the informational metrics that
apply to the workload. Then checks that run.py, copied into a
directory without the package, exits non-zero and prints no result.
Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Informational metrics each workload records beside the gated ones.
COMMON = {"op_p50_raw_ms": "ms", "setup_raw_s": "s", "op_tail_ms": "ms", "ops_per_s": "1/s",
          "reference_s": "s", "failed_ratio": "ratio"}
INFO = {
    "paper_sweep": COMMON,
    "broad_cli": dict(COMMON, rebalance_s="s", diagnose_s="s", compare_s="s", solve_s="s"),
    "large_solve": dict(COMMON, solve_s="s"),
    "cap_tangle": dict(COMMON, rebalance_s="s", diagnose_s="s", compare_s="s"),
}


def run(cwd: Path, workload: str, trace: int, tiny: bool = True) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)]
    if tiny:
        argv += ["--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}\n{done.stderr}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics {got} != declared {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m["value"], bool):
            errors.append(f"{where}: {name} value {m.get('value')!r}")
    if not trace:
        record = ROOT / "perfbench" / "_work" / "results" / f"{workload}_seed7_trace0.json"
        info = json.loads(record.read_text(encoding="utf-8"))["info"]
        for name, unit in INFO[workload].items():
            if info.get(name, {}).get("unit") != unit:
                errors.append(f"{where}: record lacks {name} in {unit}")
    return errors


def check_bare_directory(workload: str) -> list[str]:
    """Only BENCHMARK.json and the benchmark's own files: must refuse."""
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    try:
        done = run(bare, workload, 0, tiny=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_workload(spec, workload, trace)
    errors += check_bare_directory(spec["workloads"][0]["name"])
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
