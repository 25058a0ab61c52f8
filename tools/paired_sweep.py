"""Time the paper's loop on two source trees in one process, paired.

    python tools/paired_sweep.py PARENT_SRC CHANGE_SRC [--universes 200]
                                 [--rounds 10] [--seed 1]

Each argument is a directory holding a ``powerindex`` package, such as
the ``src`` of two checkouts. Each tree's package is imported as a copy
under a name of its own, so both run in this process on the same inputs.
The inputs are seeded Pareto(1.2) universes of 100 names, as
``Constituent`` lists of each copy. The operation is one date of the
paper's loop: cap-weight, solve p for a top-6 bound of half the input's
own statistic, then the power, linpower and cap rules, each followed by
a diagnostics report. Every round runs each universe on both copies,
and the copy that goes first alternates from universe to universe and
from round to round. The garbage collector stays on while it times, as
in ``perfbench``'s timed loop, so that the time of each side includes
the collections that its allocations cause.

It prints each side's median and quartiles over the universes (each
universe's time is its median over the rounds), the paired ratio
change / parent as the median of the per-universe ratios with a
bootstrap 95% interval, the number of universes where the change is
faster, and how many universes give differing outputs. It uses only the
standard library and numpy.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any

import numpy as np

NAMES = 100
TOP_K = 6
BOOTSTRAP_SAMPLES = 2000


def load(src: Path, name: str) -> ModuleType:
    """The ``powerindex`` package under ``src``, imported as ``name``."""
    init = src / "powerindex" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    if spec is None or spec.loader is None:
        raise SystemExit(f"no powerindex package in {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def universes(seed: int, count: int) -> list[tuple[list[str], list[float], float]]:
    """Ids, caps and a top-6 bound per universe: half the cap weights' own
    statistic, or its midpoint with the equal-weight floor where half
    lies below the floor."""
    rng = np.random.default_rng(seed)
    ids = [f"N{i:07d}" for i in range(NAMES)]
    out = []
    for _ in range(count):
        caps = (rng.pareto(1.2, NAMES) + 1.0) * 1e9
        stat = float(np.sort(caps / caps.sum())[-TOP_K:].sum())
        floor = TOP_K / NAMES
        bound = 0.5 * stat if 0.5 * stat > floor else 0.5 * (stat + floor)
        out.append((ids, caps.tolist(), bound))
    return out


def operation(pi: ModuleType, rows: list[Any], bound: float) -> tuple[Any, ...]:
    """One date of the paper's loop, and its outputs as builtin values."""
    mu = pi.weights_from_market_caps(rows)
    result = pi.solve_exponent(mu, pi.CalibrationTarget("top_k_sum", bound, k=TOP_K))
    etas = [
        pi.power_rebalance(mu, pi.PowerRule(result.p_star)),
        pi.linearized_power_rebalance(mu, pi.LinearizedPowerRule(result.p_star)),
        pi.cap_rebalance(mu, pi.CapRule()),
    ]
    reports = [pi.diagnostics_report(mu, eta) for eta in etas]
    return result, etas, reports


def outputs(done: tuple[Any, ...]) -> tuple[Any, Any, Any]:
    """The solve, the weights and the report fields of an operation."""
    result, etas, reports = done
    solve = (repr(result.p_star), repr(result.achieved), result.iterations)
    weights = tuple(eta.weights.tobytes() for eta in etas)
    fields = tuple(
        (
            len(r.order_violations),
            tuple((v.identifier_low, v.identifier_high) for v in r.order_violations[:20]),
            r.max_before, r.max_after, r.max_increased, r.turnover,
            r.hhi_before, r.hhi_after, tuple(sorted(r.top_k_sums.items())),
            r.diversity_before, r.diversity_after,
        )
        for r in reports
    )
    return solve, weights, fields


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="directory holding the parent's powerindex")
    parser.add_argument("change", type=Path, help="directory holding the change's powerindex")
    parser.add_argument("--universes", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.universes < 2 or args.rounds < 1:
        parser.error("need at least 2 universes and 1 round")

    copies = [load(args.parent.resolve(), "powerindex_parent"),
              load(args.change.resolve(), "powerindex_change")]
    inputs = universes(args.seed, args.universes)
    rows = [
        [[pi.Constituent(i, c) for i, c in zip(ids, caps)] for ids, caps, _ in inputs]
        for pi in copies
    ]
    bounds = [bound for _, _, bound in inputs]

    # Outputs of each side, compared universe by universe; this also warms
    # both copies up before anything is timed.
    parts = ("solve", "weights", "reports")
    differ = dict.fromkeys(parts, 0)
    any_differ = 0
    for u, bound in enumerate(bounds):
        a, b = (outputs(operation(pi, rows[s][u], bound)) for s, pi in enumerate(copies))
        flags = [x != y for x, y in zip(a, b)]
        any_differ += any(flags)
        for part, flag in zip(parts, flags):
            differ[part] += flag

    times = np.empty((2, args.universes, args.rounds))
    gc.collect()
    for r in range(args.rounds):
        for u, bound in enumerate(bounds):
            sides = (0, 1) if (r + u) % 2 == 0 else (1, 0)
            for s in sides:
                pi, universe = copies[s], rows[s][u]
                start = perf_counter()
                operation(pi, universe, bound)
                times[s, u, r] = perf_counter() - start

    per_universe = np.median(times, axis=2) * 1e6  # µs
    for label, side, src in zip(("parent", "change"), per_universe, (args.parent, args.change)):
        q1, q2, q3 = quartiles(side.tolist())
        print(f"{label}: median {q2:.1f} µs [quartiles {q1:.1f}, {q3:.1f}] ({src})")
    ratios = per_universe[1] / per_universe[0]
    rng = np.random.default_rng(args.seed)
    picks = rng.integers(0, ratios.size, (BOOTSTRAP_SAMPLES, ratios.size))
    lo, hi = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    wins = int(np.count_nonzero(ratios < 1.0))
    print(
        f"ratio change/parent: {float(np.median(ratios)):.3f} "
        f"[bootstrap 95% {lo:.3f}, {hi:.3f}]; change faster in {wins} of "
        f"{ratios.size} universes ({args.rounds} rounds each)"
    )
    detail = ", ".join(f"{part} {differ[part]}" for part in parts)
    print(f"differing outputs: {any_differ} of {args.universes} universes ({detail})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
