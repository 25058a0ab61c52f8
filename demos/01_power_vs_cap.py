"""Power reweighting vs cap-and-redistribute, side by side.

Walks through the two-stock example, then shows the two failure modes of
threshold capping that power reweighting provably avoids: order flips
between constituents, and a maximum weight that grows.

Run:  python demos/01_power_vs_cap.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from powerindex import (
    CapRule,
    PowerRule,
    WeightVector,
    cap_rebalance,
    diagnostics_report,
    power_rebalance,
)

print("=" * 68)
print("1. The two-stock index")
print("=" * 68)
mu = WeightVector(("BIG", "SMALL"), np.array([0.7, 0.3]))
print(f"start:      BIG={mu.weights[0]:.4f}  SMALL={mu.weights[1]:.4f}")
for p in (1.0, 0.75, 0.5, 0.0):
    eta = power_rebalance(mu, PowerRule(p))
    print(f"p = {p:4.2f} ->  BIG={eta.weights[0]:.4f}  SMALL={eta.weights[1]:.4f}")
print()
print("p=1 keeps the cap-weighted index; p=0 equal-weights it; values in")
print("between trade off concentration against tracking the market.")
print()

print("=" * 68)
print("2. Capping flips the order of constituents")
print("=" * 68)
# Three mega-caps, one mid-cap just over the 4.5% threshold, ten smalls.
names = ("MEGA1", "MEGA2", "MEGA3", "MID") + tuple(f"SM{i:02d}" for i in range(10))
mu = WeightVector(names, np.array([0.20, 0.19, 0.18, 0.05] + [0.038] * 10))
eta = cap_rebalance(mu, CapRule(threshold=0.045, target_aggregate=0.40))
print("everything above 4.5% is squeezed to a 40% aggregate:")
for ident, before, after in zip(mu.identifiers[:5], mu.weights, eta.weights):
    print(f"  {ident:<6} {before:.4f} -> {after:.4f}")
print("  ...")

report = diagnostics_report(mu, eta)
print(f"\norder violations: {len(report.order_violations)}")
v = report.order_violations[0]
print(
    f"  e.g. {v.identifier_low} ({v.mu_low:.3f} -> {v.eta_low:.4f}) now sits"
    f" above {v.identifier_high} ({v.mu_high:.3f} -> {v.eta_high:.4f})"
)
print("MID held more of the index than every small cap, yet ends up below")
print("all of them. The ten uncapped names also rise straight through the")
print("4.5% threshold the rule was meant to enforce (0.038 -> 0.06).")
print()

print("=" * 68)
print("3. Capping can raise the largest weight")
print("=" * 68)
names = ("TOP",) + tuple(f"SM{i:02d}" for i in range(53))
mu = WeightVector(names, np.array([0.046] + [0.018] * 53))
eta = cap_rebalance(mu, CapRule())
report = diagnostics_report(mu, eta)
print(f"TOP is barely above threshold at {mu.weights[0]:.3f}; the rule scales")
print(f"the 'capped' group UP to the 40% target: {eta.weights[0]:.3f}")
print(f"max weight before: {report.max_before:.3f}")
print(f"max weight after:  {report.max_after:.3f}  (increased: {report.max_increased})")
print()

print("=" * 68)
print("4. Power reweighting never does either")
print("=" * 68)
for start in ([0.20, 0.19, 0.18, 0.05] + [0.038] * 10, [0.046] + [0.018] * 53):
    mu = WeightVector(tuple(f"C{i:02d}" for i in range(len(start))), np.array(start))
    worst_violations = 0
    worst_max = 0.0
    for p in np.linspace(0.0, 1.0, 21):
        rep = diagnostics_report(mu, power_rebalance(mu, float(p)))
        worst_violations = max(worst_violations, len(rep.order_violations))
        worst_max = max(worst_max, rep.max_after)
    print(
        f"n={mu.n:<3} over p grid [0,1]: violations={worst_violations}, "
        f"max after <= {worst_max:.4f} (start max {mu.weights.max():.4f})"
    )
print("\nOrdering is preserved and the maximum never grows, at every p.")
