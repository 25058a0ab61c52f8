import math

import numpy as np
import pytest

from powerindex import (
    CalibrationTarget,
    InfeasibleError,
    RebalanceError,
    calibration,
    concentration_statistic,
    power_rebalance,
    solve_exponent,
    top_k_sum,
)

from helpers import random_simplex, whole, wv

# Closed form for (0.7, 0.3) with a 0.60 max-weight bound:
# (0.7/0.3)**p = 0.6/0.4.
TWO_STOCK_P_STAR = math.log(1.5) / math.log(7.0 / 3.0)


class TestCalibrationTarget:
    def test_max_weight_rejects_k(self):
        with pytest.raises(ValueError, match="k only applies"):
            CalibrationTarget("max_weight", 0.5, k=3)

    def test_top_k_requires_k(self):
        with pytest.raises(ValueError, match="k >= 1"):
            CalibrationTarget("top_k_sum", 0.5)

    def test_bound_range(self):
        for bound in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="bound"):
                CalibrationTarget("max_weight", bound)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            CalibrationTarget("median", 0.5)


class TestConcentrationStatistic:
    def test_max_weight(self):
        assert concentration_statistic(
            wv([0.7, 0.3]), CalibrationTarget("max_weight", 0.5)
        ) == pytest.approx(0.7, abs=1e-15)

    def test_top_two(self):
        stat = concentration_statistic(
            wv([0.4, 0.3, 0.2, 0.1]), CalibrationTarget("top_k_sum", 0.9, k=2)
        )
        assert stat == pytest.approx(0.7, abs=1e-15)

    def test_equal_weights_top_k_is_k_over_n(self):
        n = 20
        mu = wv([1.0 / n] * n)
        for k in (1, 5, 6, 10, 20):
            stat = concentration_statistic(
                mu, CalibrationTarget("top_k_sum", 0.999, k=k)
            )
            assert stat == pytest.approx(k / n, abs=1e-12)

    def test_unsorted_input(self):
        stat = concentration_statistic(
            wv([0.1, 0.4, 0.2, 0.3]), CalibrationTarget("top_k_sum", 0.9, k=2)
        )
        assert stat == pytest.approx(0.7, abs=1e-15)

    def test_k_exceeds_n(self):
        message = "k=3 exceeds the 2 available constituents"
        with pytest.raises(RebalanceError, match=whole(message)):
            concentration_statistic(
                wv([0.5, 0.5]), CalibrationTarget("top_k_sum", 0.9, k=3)
            )

    def test_top_k_sum_helper_validates_k(self):
        with pytest.raises(ValueError):
            top_k_sum(np.array([0.5, 0.5]), 0)

    def test_top_k_sum_adds_the_sorted_tail(self):
        # The k largest in ascending order, whatever order the CPU's
        # partition leaves them in; for k >= n the sum in input order.
        rng = np.random.default_rng(67)
        cases = [np.full(8, 0.125), np.array([0.5, 0.0, 0.25, 0.0, 0.25])]
        for case in range(60):
            n = int(rng.integers(2, 400))
            if case % 3 == 0:
                caps = rng.pareto(1.2, n)
                cases.append(caps / caps.sum())
            else:
                cases.append(random_simplex(rng, n, zeros=True, ties=True))
        for w in cases:
            n = w.size
            for k in sorted({1, 2, 6, n // 2, n - 1, n, n + 3} - {0}):
                expected = w.sum() if k >= n else np.sort(w)[-k:].sum()
                assert top_k_sum(w, k) == float(expected)


class TestSolveExponent:
    def test_already_satisfied_returns_one(self):
        result = solve_exponent(wv([0.7, 0.3]), CalibrationTarget("max_weight", 0.70))
        assert result.p_star == 1.0
        assert result.converged
        assert result.iterations == 0
        assert result.bracket == (1.0, 1.0)
        assert result.achieved <= 0.70 + 1e-8

    def test_two_stock_closed_form(self):
        result = solve_exponent(wv([0.7, 0.3]), CalibrationTarget("max_weight", 0.60))
        assert abs(result.p_star - TWO_STOCK_P_STAR) <= 1e-6
        assert result.achieved == pytest.approx(0.60, abs=1e-8)
        assert result.converged

    def test_two_stock_against_grid_scan(self):
        # Independent brute-force scan for the largest feasible exponent.
        mu = wv([0.7, 0.3])
        target = CalibrationTarget("max_weight", 0.60)
        grid = np.linspace(0.0, 1.0, 100_001)
        feasible = [
            p for p in grid
            if concentration_statistic(power_rebalance(mu, p), target) <= 0.60
        ]
        scan = max(feasible)
        result = solve_exponent(mu, target)
        assert abs(result.p_star - scan) <= 2e-5

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(calibration, "MAX_ITERATIONS", 1)
        message = r"^solver exceeded 1 iterations \(bracket \[0\.3935596636\d*, 1\.0\]\)$"
        with pytest.raises(RebalanceError, match=message):
            solve_exponent(wv([0.7, 0.3]), CalibrationTarget("max_weight", 0.60))

    def test_infeasible_bound(self):
        with pytest.raises(InfeasibleError):
            solve_exponent(wv([0.7, 0.3]), CalibrationTarget("max_weight", 0.40))

    def test_infeasible_top_k(self):
        # Equal-weight floor for top-2 of 4 names is 0.5.
        with pytest.raises(InfeasibleError):
            solve_exponent(
                wv([0.4, 0.3, 0.2, 0.1]), CalibrationTarget("top_k_sum", 0.45, k=2)
            )

    def test_infeasible_floor_is_the_statistic_with_zeros_in_the_top_set(self):
        # With k at or above the number of positive weights, zeros join
        # the top set; the floor the error names is the statistic's value.
        rng = np.random.default_rng(71)
        for _ in range(40):
            n = int(rng.integers(12, 200))
            mu = wv(random_simplex(rng, n, zeros=True))
            m = int(np.count_nonzero(mu.weights))
            k = int(rng.integers(m, n))
            target = CalibrationTarget("top_k_sum", 0.5, k=k)
            floor = concentration_statistic(power_rebalance(mu, 0.0), target)
            message = f"bound 0.5 lies below the fully diversified floor {floor!r}"
            with pytest.raises(InfeasibleError, match=whole(message)):
                solve_exponent(mu, target)

    def test_bound_at_floor_is_feasible(self):
        result = solve_exponent(wv([0.7, 0.3]), CalibrationTarget("max_weight", 0.5))
        assert result.converged
        assert result.achieved <= 0.5 + 1e-8

    def test_largest_feasible_property_random(self):
        rng = np.random.default_rng(61)
        tol = 1e-10
        for case in range(30):
            n = int(rng.integers(2, 101))
            mu = wv(random_simplex(rng, n))
            if case % 2 == 0:
                target_kind = ("max_weight", None)
            else:
                target_kind = ("top_k_sum", int(rng.integers(1, n + 1)))
            kind, k = target_kind
            probe = CalibrationTarget(kind, 0.5, k=k)
            floor = concentration_statistic(power_rebalance(mu, 0.0), probe)
            ceil = concentration_statistic(power_rebalance(mu, 1.0), probe)
            if ceil - floor < 1e-9 or not floor + 1e-9 < 1.0:
                continue
            frac = rng.uniform(0.05, 0.95)
            bound = min(floor + frac * (ceil - floor), 1.0 - 1e-12)
            target = CalibrationTarget(kind, bound, k=k)
            result = solve_exponent(mu, target, tol)
            assert result.converged
            assert result.achieved <= bound + 1e-8
            if result.p_star < 1.0:
                bumped = concentration_statistic(
                    power_rebalance(mu, min(result.p_star + tol, 1.0)), target
                )
                assert bumped > bound - 1e-8

    def test_achieved_never_exceeds_bound(self):
        rng = np.random.default_rng(62)
        for case in range(100):
            n = int(rng.integers(2, 200))
            mu = wv(random_simplex(rng, n, zeros=(case % 4 == 0)))
            k = None if case % 2 == 0 else int(rng.integers(1, n + 1))
            kind = "max_weight" if k is None else "top_k_sum"
            probe = CalibrationTarget(kind, 0.5, k=k)
            floor = concentration_statistic(power_rebalance(mu, 0.0), probe)
            ceil = concentration_statistic(power_rebalance(mu, 1.0), probe)
            if not floor < ceil < 1.0:
                continue
            bound = floor + rng.uniform(0.0, 1.0) * (ceil - floor)
            target = CalibrationTarget(kind, bound, k=k)
            result = solve_exponent(mu, target)
            assert result.achieved <= bound
            recomputed = concentration_statistic(
                power_rebalance(mu, result.p_star), target
            )
            assert recomputed == result.achieved

    def test_largest_feasible_within_tol_on_hard_cases(self):
        # Zeros, ties at the k-th place, and flat statistics near 1 with k
        # just below the number of positive weights. At or above that
        # number the statistic is 1 up to rounding, which has no root.
        rng = np.random.default_rng(63)
        tol = 1e-10
        solved = 0
        for case in range(300):
            n = int(rng.integers(3, 300))
            w = random_simplex(rng, n, zeros=(case % 2 == 0))
            m = int(np.count_nonzero(w))
            if case % 3 == 0:
                kind, k = "max_weight", None
            elif case % 3 == 1:
                kind, k = "top_k_sum", int(rng.integers(max(1, m - 3), m))
            else:
                kind, k = "top_k_sum", int(rng.integers(1, m))
                # Tie the (k+1)-th largest weight to the k-th.
                order = np.argsort(w)[::-1]
                w[order[k]] = w[order[k - 1]]
                w = w / w.sum()
            mu = wv(w)
            probe = CalibrationTarget(kind, 0.5, k=k)
            floor = concentration_statistic(power_rebalance(mu, 0.0), probe)
            ceil = concentration_statistic(power_rebalance(mu, 1.0), probe)
            if not floor < ceil < 1.0:
                continue
            bound = floor + rng.uniform(0.0, 1.0) * (ceil - floor)
            target = CalibrationTarget(kind, bound, k=k)
            result = solve_exponent(mu, target, tol)
            assert type(result.p_star) is float
            assert result.achieved <= bound
            assert result.achieved == concentration_statistic(
                power_rebalance(mu, result.p_star), target
            )
            lo, hi = result.bracket
            assert lo == result.p_star and hi - lo < tol
            bumped = concentration_statistic(
                power_rebalance(mu, min(result.p_star + tol, 1.0)), target
            )
            assert bumped > bound
            solved += 1
        assert solved > 200

    def test_few_iterations_at_scale(self):
        rng = np.random.default_rng(64)
        caps = rng.pareto(1.2, 50_000) + 1.0
        mu = wv(caps / caps.sum())
        for kind, k in (("top_k_sum", 6), ("max_weight", None)):
            stat = concentration_statistic(mu, CalibrationTarget(kind, 0.5, k=k))
            target = CalibrationTarget(kind, 0.5 * stat, k=k)
            result = solve_exponent(mu, target)
            assert result.achieved <= target.bound
            assert 0 < result.iterations <= 10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(67)
        w = random_simplex(rng, 40)
        mu = wv(w)
        target = CalibrationTarget("top_k_sum", 0.45, k=6)
        base = solve_exponent(mu, target)
        for _ in range(5):
            perm = rng.permutation(40)
            shuffled = wv(w[perm], ids=tuple(f"C{i:03d}" for i in perm))
            other = solve_exponent(shuffled, target)
            assert abs(other.p_star - base.p_star) <= 2e-10

    def test_deterministic(self):
        mu = wv([0.5, 0.2, 0.2, 0.1])
        target = CalibrationTarget("max_weight", 0.4)
        a = solve_exponent(mu, target)
        b = solve_exponent(mu, target)
        assert a == b

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError, match="tol"):
            solve_exponent(wv([0.7, 0.3]), CalibrationTarget("max_weight", 0.6), 0.0)
