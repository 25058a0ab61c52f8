"""Calibrating the exponent to a concentration target.

Builds a 100-constituent universe whose six largest names hold more than
half the index, then solves for the largest exponent p that pushes the
top-6 aggregate back under 40%. Larger p means closer to cap weighting,
so "largest feasible p" is the gentlest rebalance that meets the cap.

Run:  python demos/02_calibrate_concentration.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from powerindex import (
    CalibrationTarget,
    Constituent,
    concentration_metrics,
    power_rebalance,
    solve_exponent,
    top_k_sum,
    turnover,
    weights_from_market_caps,
)

# Six mega-caps tower over 94 smaller names.
universe = [Constituent(f"MEGA{i}", market_cap=105.0 - i) for i in range(6)]
universe += [Constituent(f"SMALL{i:02d}", market_cap=5.0 + 0.01 * i) for i in range(94)]
mu = weights_from_market_caps(universe)

print(f"constituents: {mu.n}")
print(f"top-6 aggregate weight: {top_k_sum(mu.weights, 6):.4f}")
print(f"largest single weight:  {mu.weights.max():.4f}")
print()

print("How concentration responds to the exponent:")
print(f"{'p':>6} {'top-6':>8} {'max':>8} {'HHI':>8} {'turnover':>9}")
for p in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.25, 0.0):
    eta = power_rebalance(mu, p)
    metrics = concentration_metrics(eta)
    print(
        f"{p:>6.2f} {metrics.top_k_sums[6]:>8.4f} {eta.weights.max():>8.4f} "
        f"{metrics.hhi:>8.4f} {turnover(mu, eta):>9.4f}"
    )
print()
print("Both statistics shrink monotonically as p falls, which is what lets")
print("a bracketed Newton solver pin down the boundary exponent.")
print()

target = CalibrationTarget("top_k_sum", bound=0.40, k=6)
result = solve_exponent(mu, target)
print(f"solve: top-6 <= 40% -> p* = {result.p_star:.10f}")
print(f"       achieved top-6 = {result.achieved:.10f}")
print(f"       iterations = {result.iterations}, converged = {result.converged}")
print()

eta = power_rebalance(mu, result.p_star)
before = concentration_metrics(mu)
after = concentration_metrics(eta)
print("before / after at p*:")
print(f"  top-6:     {before.top_k_sums[6]:.4f} -> {after.top_k_sums[6]:.4f}")
print(f"  max:       {mu.weights.max():.4f} -> {eta.weights.max():.4f}")
print(f"  HHI:       {before.hhi:.4f} -> {after.hhi:.4f}")
print(f"  diversity: {before.diversity:.2f} -> {after.diversity:.2f}")
print(f"  turnover:  {turnover(mu, eta):.4f}")
print()

# A slightly larger exponent already breaches the cap: p* really is the
# largest feasible choice.
bumped = power_rebalance(mu, min(result.p_star + 1e-6, 1.0))
print(f"top-6 at p* + 1e-6: {top_k_sum(bumped.weights, 6):.10f} (over the bound)")
