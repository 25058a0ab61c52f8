"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on a green run; on failures pytest shows the captured FAIL line.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from powerindex import (
    CalibrationTarget,
    LinearizedPowerRule,
    PowerRule,
    cap_rebalance,
    find_order_violations,
    linearized_power_rebalance,
    parse_universe,
    power_rebalance,
    read_weight_file,
    solve_exponent,
    top_k_sum,
    turnover,
    weights_from_market_caps,
)
from powerindex.cli import EXIT_OK, EXIT_PATHOLOGY, run_cli

from helpers import random_simplex, wv

CAP1_MU = [0.20, 0.19, 0.18, 0.05] + [0.038] * 10
CAP2_MU = [0.046] + [0.018] * 53


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {label}")
                raise
            print(f"PASS  criterion {label}")
            return result

        return wrapper

    return decorate


def desk_universe_csv(path: Path) -> Path:
    """100 constituents whose top-6 aggregate weight exceeds 50%."""
    lines = ["id,market_cap"]
    lines += [f"MEGA{i},{105 - i}" for i in range(6)]
    lines += [f"SMALL{i:02d},{5 + 0.01 * i!r}" for i in range(94)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_weight_csv(path: Path, vector) -> Path:
    lines = ["id,weight"] + [
        f"{ident},{w!r}" for ident, w in zip(vector.identifiers, vector.weights.tolist())
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


@criterion("1: two-stock power reweighting matches the published values")
def test_criterion_1_two_stock_examples():
    mu = wv([0.7, 0.3])
    np.testing.assert_allclose(
        power_rebalance(mu, PowerRule(0.5)).weights, [0.60, 0.40], rtol=0, atol=0.005
    )
    np.testing.assert_allclose(
        power_rebalance(mu, PowerRule(0.75)).weights, [0.65, 0.35], rtol=0, atol=0.005
    )


@criterion("2: order/max/sum guarantees over 1000 random vectors")
def test_criterion_2_guarantee_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20230724)
    p_grid = [i / 10 for i in range(11)] + list(rng.uniform(0.0, 1.0, 20))
    knots = (0.005, 0.01, 0.05)
    lin_p_grid = [i / 10 for i in range(11)]

    for case in range(1000):
        n = int(rng.integers(2, 101))
        mu_w = random_simplex(
            rng, n, zeros=(case % 5 == 0), ties=(case % 7 == 0)
        )
        mu = wv(mu_w)
        max_mu = mu_w.max()
        pos = mu_w > 0
        m = int(pos.sum())

        for p in p_grid:
            eta = power_rebalance(mu, p)
            assert abs(eta.weights.sum() - 1.0) <= 1e-12
            assert eta.weights.max() <= max_mu
            assert find_order_violations(mu, eta) == []

        identity = power_rebalance(mu, 1.0)
        assert np.max(np.abs(identity.weights - mu_w)) <= 1e-15

        flat = power_rebalance(mu, 0.0)
        assert np.max(np.abs(flat.weights[pos] - 1.0 / m)) <= 1e-15
        assert np.all(flat.weights[~pos] == 0.0)

        for knot in knots:
            for p in lin_p_grid:
                eta = linearized_power_rebalance(mu, LinearizedPowerRule(p, knot))
                assert abs(eta.weights.sum() - 1.0) <= 1e-12
                assert eta.weights.max() <= max_mu
                assert find_order_violations(mu, eta) == []

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"guarantee suite took {elapsed:.1f}s"


@criterion("3: cap-and-redistribute pathologies detected by diagnose")
def test_criterion_3_cap_pathologies(tmp_path):
    # Instance 1: hand scale factors 0.40/0.62 (capped) and 0.60/0.38 (rest).
    mu1 = wv(CAP1_MU)
    eta1 = cap_rebalance(mu1)
    expected1 = np.array(
        [w * (0.40 / 0.62 if w > 0.045 else 0.60 / 0.38) for w in CAP1_MU]
    )
    assert np.max(np.abs(eta1.weights - expected1)) <= 1e-12
    code1 = run_cli(
        [
            "diagnose",
            "--before", str(write_weight_csv(tmp_path / "mu1.csv", mu1)),
            "--after", str(write_weight_csv(tmp_path / "eta1.csv", eta1)),
        ]
    )
    assert code1 == EXIT_PATHOLOGY
    assert len(find_order_violations(mu1, eta1)) >= 1

    # Instance 2: single capped name scaled by 0.40/0.046, rest by 0.60/0.954.
    mu2 = wv(CAP2_MU)
    eta2 = cap_rebalance(mu2)
    expected2 = np.array(
        [w * (0.40 / 0.046 if w > 0.045 else 0.60 / 0.954) for w in CAP2_MU]
    )
    assert np.max(np.abs(eta2.weights - expected2)) <= 1e-12
    code2 = run_cli(
        [
            "diagnose",
            "--before", str(write_weight_csv(tmp_path / "mu2.csv", mu2)),
            "--after", str(write_weight_csv(tmp_path / "eta2.csv", eta2)),
        ]
    )
    assert code2 == EXIT_PATHOLOGY
    assert eta2.weights.max() > mu2.weights.max() + 1e-12


@criterion("4: exponent calibration (closed form, 100 random cases, monotone grids)")
def test_criterion_4_calibration():
    closed_form = math.log(1.5) / math.log(7.0 / 3.0)
    result = solve_exponent(wv([0.7, 0.3]), CalibrationTarget("max_weight", 0.60))
    assert abs(result.p_star - closed_form) <= 1e-6

    rng = np.random.default_rng(46)
    p_grid = np.linspace(0.0, 1.0, 101)
    for case in range(100):
        n = int(rng.integers(8, 101))
        mu = wv(random_simplex(rng, n, zeros=(case % 9 == 0)))

        kind, k = ("max_weight", None) if case % 2 else ("top_k_sum", 6)
        probe = CalibrationTarget(kind, 0.5, k=k)

        def stat(p, target=probe, mu=mu):
            return (
                float(power_rebalance(mu, p).weights.max())
                if target.kind == "max_weight"
                else top_k_sum(power_rebalance(mu, p).weights, target.k)
            )

        floor, ceil = stat(0.0), stat(1.0)
        if ceil - floor > 1e-9:
            frac = rng.uniform(0.05, 1.10)  # also exercise bound > stat(1)
            bound = min(floor + frac * (ceil - floor), 1.0 - 1e-9)
        else:
            bound = min(floor + 0.1 * (1.0 - floor), 1.0 - 1e-9)
        target = CalibrationTarget(kind, bound, k=k)

        result = solve_exponent(mu, target)
        assert result.converged
        assert result.achieved <= bound + 1e-8
        if result.p_star < 1.0:
            assert stat(min(result.p_star + 1e-6, 1.0)) > bound - 1e-8

        maxes, top6 = [], []
        for p in p_grid:
            eta_w = power_rebalance(mu, p).weights
            maxes.append(float(eta_w.max()))
            top6.append(top_k_sum(eta_w, 6))
        assert all(b >= a - 1e-12 for a, b in zip(maxes, maxes[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(top6, top6[1:]))


@criterion("5: top-6 concentration scenario end-to-end under one second")
def test_criterion_5_desk_scale_scenario(tmp_path, capsys):
    universe = desk_universe_csv(tmp_path / "universe.csv")
    mu = weights_from_market_caps(parse_universe(universe))
    assert top_k_sum(mu.weights, 6) > 0.50

    started = time.perf_counter()
    code = run_cli(
        [
            "solve", "--input", str(universe),
            "--target", "top-k", "--k", "6", "--bound", "0.40",
        ]
    )
    solve_out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "converged=true" in solve_out

    result = solve_exponent(mu, CalibrationTarget("top_k_sum", 0.40, k=6))
    assert solve_out.startswith(f"p_star={result.p_star!r} ")

    report_path = tmp_path / "rebalanced.json"
    assert run_cli(
        [
            "rebalance", "--input", str(universe),
            "--method", "power", "--p", repr(result.p_star),
            "--output", str(report_path), "--format", "json",
        ]
    ) == EXIT_OK

    before_path = write_weight_csv(tmp_path / "before.csv", mu)
    assert run_cli(
        ["diagnose", "--before", str(before_path), "--after", str(report_path)]
    ) == EXIT_OK
    elapsed = time.perf_counter() - started

    payload = json.loads(report_path.read_text())
    after = np.array([row["weight_after"] for row in payload["rows"]])
    assert top_k_sum(after, 6) <= 0.40 + 1e-8
    assert elapsed < 1.0, f"end-to-end run took {elapsed:.2f}s"


@criterion("6: turnover of power vs linearized power at equal exponent")
def test_criterion_6_turnover_comparison(tmp_path):
    universe = desk_universe_csv(tmp_path / "universe.csv")

    def compute():
        mu = weights_from_market_caps(parse_universe(universe))
        p = solve_exponent(mu, CalibrationTarget("top_k_sum", 0.40, k=6)).p_star
        t_power = turnover(mu, power_rebalance(mu, p))
        t_linear = turnover(
            mu, linearized_power_rebalance(mu, LinearizedPowerRule(p, knot=0.01))
        )
        return t_power, t_linear

    first = compute()
    second = compute()
    for t_power, t_linear in (first, second):
        assert math.isfinite(t_power) and math.isfinite(t_linear)
        assert 0.0 <= t_power <= 1.0
        assert 0.0 <= t_linear <= 1.0
    assert abs(first[0] - second[0]) <= 1e-12
    assert abs(first[1] - second[1]) <= 1e-12
    ordering = "linpower <= power" if first[1] <= first[0] else "power < linpower"
    print(
        f"      turnover power={first[0]:.6g} linpower={first[1]:.6g} ({ordering})"
    )


@criterion("7: chained exponents compose multiplicatively")
def test_criterion_7_composition():
    rng = np.random.default_rng(55)
    for _ in range(100):
        mu = wv(random_simplex(rng, int(rng.integers(2, 101))))
        p, q = rng.uniform(0.0, 1.0, size=2)
        chained = power_rebalance(power_rebalance(mu, p), q)
        direct = power_rebalance(mu, p * q)
        assert np.max(np.abs(chained.weights - direct.weights)) <= 1e-12


@criterion("8: JSON report round-trip and byte-identical reruns")
def test_criterion_8_roundtrip_determinism(tmp_path):
    universe = tmp_path / "u.csv"
    universe.write_text("id,market_cap\nAAA,70\nBBB,30\n")
    args = [
        "rebalance", "--input", str(universe),
        "--method", "power", "--p", "0.5",
        "--format", "json",
    ]
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(args + ["--output", str(first)]) == EXIT_OK
    assert run_cli(args + ["--output", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()

    mu = weights_from_market_caps(parse_universe(universe))
    eta = power_rebalance(mu, PowerRule(0.5))
    loaded = read_weight_file(first)
    assert loaded.identifiers == eta.identifiers
    assert np.max(np.abs(loaded.weights - eta.weights)) <= 1e-12
