import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerindex import (
    CalibrationTarget,
    InfeasibleError,
    RebalanceError,
    WeightVector,
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

    def test_k_must_be_a_positive_integer(self):
        for k in (2.7, True, False, 0, -3, float("nan"), float("inf"), "3"):
            message = f"k must be a positive integer, got {k!r}"
            with pytest.raises(ValueError, match=whole(message)):
                CalibrationTarget("top_k_sum", 0.5, k=k)
        for k in (6, 6.0, np.int64(6), np.float64(6.0)):
            target = CalibrationTarget("top_k_sum", 0.5, k=k)
            assert target.k == 6 and type(target.k) is int


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
        # A k at or above the size sums every weight, as top_k_sum does.
        rng = np.random.default_rng(73)
        cases = [np.array([0.5, 0.5]), np.array([0.0, 1.0, 0.0])]
        cases += [random_simplex(rng, n, zeros=True, ties=True) for n in (5, 40)]
        for w in cases:
            mu, n = wv(w), w.size
            for k in (n, n + 1, 3 * n):
                stat = concentration_statistic(
                    mu, CalibrationTarget("top_k_sum", 0.9, k=k)
                )
                assert stat == top_k_sum(mu.weights, k)

    def test_top_k_sum_helper_validates_k(self):
        with pytest.raises(ValueError):
            top_k_sum(np.array([0.5, 0.5]), 0)

    def test_top_k_sum_rejects_a_k_that_is_not_integral(self):
        w = np.array([0.5, 0.3, 0.2])
        for k in (1.9, True, np.bool_(True), 0.5):
            message = f"k must be a positive integer, got {k!r}"
            with pytest.raises(ValueError, match=whole(message)):
                top_k_sum(w, k)
        assert top_k_sum(w, 2.0) == top_k_sum(w, np.int32(2)) == top_k_sum(w, 2)

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
        # No values, and a max of -0.0: the sorted tail's sum, bit for bit.
        for w in (np.array([]), np.array([-0.0, -0.0])):
            expected = np.float64(np.sort(w)[-1:].sum()).tobytes()
            assert np.float64(top_k_sum(w, 1)).tobytes() == expected


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

    def test_root_below_tol_on_a_statistic_flat_to_rounding(self):
        # One ulp above the equal-weight floor the statistic is flat to
        # rounding, and its root, near 1.7e-15, lies below TOL: Newton's
        # steps give way to midpoints, which close the bracket at zero.
        mu = WeightVector(("a", "b"), [0.42628487023756373, 0.5737151297624362])
        target = CalibrationTarget("max_weight", 0.5000000000000001)
        result = solve_exponent(mu, target)
        lo, hi = result.bracket
        assert result.p_star == lo and hi - lo < calibration.TOL
        assert result.achieved <= target.bound
        assert concentration_statistic(power_rebalance(mu, hi), target) > target.bound
        assert result.iterations <= 24

    def test_infeasible_bound(self):
        with pytest.raises(InfeasibleError):
            solve_exponent(wv([0.7, 0.3]), CalibrationTarget("max_weight", 0.40))

    def test_infeasible_top_k(self):
        # Equal-weight floor for top-2 of 4 names is 0.5.
        with pytest.raises(InfeasibleError):
            solve_exponent(
                wv([0.4, 0.3, 0.2, 0.1]), CalibrationTarget("top_k_sum", 0.45, k=2)
            )

    def test_k_above_the_size_is_infeasible(self):
        # One rule for every k at or above the m positive weights: the top k
        # hold them all, however far k runs past the size.
        mu = wv([0.5, 0.3, 0.2])
        for k in (3, 4, 10):
            message = (
                f"the top {k} weights hold all 3 positive ones, so the "
                "statistic is 1 for every p, above the bound 0.9"
            )
            with pytest.raises(InfeasibleError, match=whole(message)):
                solve_exponent(mu, CalibrationTarget("top_k_sum", 0.9, k=k))

    def test_bound_is_read_as_a_builtin_float(self):
        # Kept as a float32, a bound would be compared in float32 under
        # numpy 2, and the p returned could breach it as a double.
        rng = np.random.default_rng(0)
        for _ in range(20):
            caps = rng.pareto(1.2, 50) + 1.0
            mu = wv(caps / caps.sum())
            for kind, k in (("max_weight", None), ("top_k_sum", 6)):
                stat = concentration_statistic(mu, CalibrationTarget(kind, 0.5, k))
                between = 0.5 * (stat + (k or 1) / 50)
                for bound in (
                    np.float32(between),
                    np.float16(between),
                    np.float64(between),
                    Fraction(between).limit_denominator(10**6),
                    Decimal(repr(between)),
                ):
                    target = CalibrationTarget(kind, bound, k)
                    assert type(target.bound) is float
                    result = solve_exponent(mu, target)
                    plain = solve_exponent(
                        mu, CalibrationTarget(kind, float(bound), k)
                    )
                    assert (result.p_star, result.achieved, result.iterations) == (
                        plain.p_star, plain.achieved, plain.iterations
                    )
                    assert result.achieved <= float(bound)

    def test_infeasible_floor_is_the_statistic_with_zeros_in_the_top_set(self):
        # With k at or above the number m of positive weights, zeros join
        # the top set and the statistic is 1 for every p; the error names
        # k and m.
        rng = np.random.default_rng(71)
        for _ in range(40):
            n = int(rng.integers(12, 200))
            mu = wv(random_simplex(rng, n, zeros=True))
            m = int(np.count_nonzero(mu.weights))
            k = int(rng.integers(m, n))
            target = CalibrationTarget("top_k_sum", 0.5, k=k)
            message = (
                f"the top {k} weights hold all {m} positive ones, so the "
                "statistic is 1 for every p, above the bound 0.5"
            )
            with pytest.raises(InfeasibleError, match=whole(message)):
                solve_exponent(mu, target)

    def test_top_set_holding_every_positive_weight_is_infeasible(self):
        # Rounding puts that statistic at 1 - 2**-53, 1 or 1 + 2**-52, so a
        # bound one ulp below 1 once passed the floor check and bisected to
        # an arbitrary p.
        rng = np.random.default_rng(72)
        bound = 0.9999999999999999
        for _ in range(30):
            n = int(rng.integers(12, 250))
            mu = wv(random_simplex(rng, n, zeros=True))
            m = int(np.count_nonzero(mu.weights))
            for k in range(m, n + 1):
                target = CalibrationTarget("top_k_sum", bound, k=k)
                with pytest.raises(InfeasibleError):
                    solve_exponent(mu, target)
        only = wv([0.0, 1.0, 0.0])
        with pytest.raises(InfeasibleError, match="^the top 1 weights hold all 1"):
            solve_exponent(only, CalibrationTarget("max_weight", bound))

    def test_floor_is_the_statistic_at_zero(self):
        # The solver's closed-form floor, k copies of 1/m summed, has the
        # bits of the statistic of power_rebalance(mu, 0): the error for a
        # bound one ulp below it names it, and the floor itself is feasible.
        rng = np.random.default_rng(73)
        checked = 0
        for case in range(120):
            n = int(rng.integers(2, 300))
            w = random_simplex(rng, n, zeros=case % 2 == 0, ties=case % 3 == 0)
            mu = wv(w)
            m = int(np.count_nonzero(w))
            for k in {1, 2, 5, 6, m // 2, m - 1} - {0}:
                if k >= m:
                    continue
                probe = CalibrationTarget("top_k_sum", 0.5, k=k)
                floor = concentration_statistic(power_rebalance(mu, 0.0), probe)
                below = math.nextafter(floor, 0.0)
                message = f"bound {below!r} lies below the fully diversified floor {floor!r}"
                with pytest.raises(InfeasibleError, match=whole(message)):
                    solve_exponent(mu, CalibrationTarget("top_k_sum", below, k=k))
                result = solve_exponent(mu, CalibrationTarget("top_k_sum", floor, k=k))
                assert result.achieved <= floor
                checked += 1
        assert checked > 400

    def test_floor_of_equal_weights_summing_below_one(self):
        # Three equal weights two ulps below 1/3: at every p the max stays
        # at the input's, below 1/3, so the floor is the statistic at p = 0
        # and a bound at the input's max is met at p = 1.
        x = 0.3333333333333332
        mu = wv([x, x, x])
        floor = float(power_rebalance(mu, 0.0).weights.max())
        assert floor <= x < 1.0 / 3.0
        assert solve_exponent(mu, CalibrationTarget("max_weight", x)).p_star == 1.0
        below = math.nextafter(floor, 0.0)
        message = f"bound {below!r} lies below the fully diversified floor {floor!r}"
        with pytest.raises(InfeasibleError, match=whole(message)):
            solve_exponent(mu, CalibrationTarget("max_weight", below))

    def test_bound_at_floor_is_feasible(self):
        result = solve_exponent(wv([0.7, 0.3]), CalibrationTarget("max_weight", 0.5))
        assert result.converged
        assert result.achieved <= 0.5 + 1e-8

    def test_largest_feasible_property_random(self):
        rng = np.random.default_rng(61)
        tol = calibration.TOL
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
            result = solve_exponent(mu, target)
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
        tol = calibration.TOL
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
            result = solve_exponent(mu, target)
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

    def test_same_bits_under_any_blas_thread_count(self):
        # At n = 50,000 a BLAS dot product split across two threads gave
        # p_star 0.85830769882691, and one thread 0.8583076988769099.
        code = (
            "import numpy as np\n"
            "from powerindex import *\n"
            "n = 50_000\n"
            "caps = np.random.default_rng([4, n]).pareto(1.2, n) + 1.0\n"
            "mu = WeightVector(tuple(f'N{i}' for i in range(n)), caps / caps.sum())\n"
            "stat = concentration_statistic(mu, CalibrationTarget('top_k_sum', 0.5, k=6))\n"
            "target = CalibrationTarget('top_k_sum', 0.5 * stat, k=6)\n"
            "print(repr(solve_exponent(mu, target).p_star))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[name] = threads
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout)
        assert printed[0] == printed[1]


@st.composite
def near_flat_weights(draw) -> np.ndarray:
    """Weights equal to within 10**-e, e in 6..16: 1 + U * 10**-e each, or
    ties with a bump of that size on one to three of them."""
    n = draw(st.integers(2, 300))
    scale = 10.0 ** -draw(st.integers(6, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        w = 1.0 + rng.uniform(size=n) * scale
    else:
        w = np.ones(n)
        bumped = rng.integers(0, n, draw(st.integers(1, 3)))
        w[bumped] += rng.uniform(1.0, 10.0, bumped.size) * scale
    return w / w.sum()


# The most iterations seen in 40,000 such solves was 82; a bisection from
# [0, 1] alone takes 34.
NEAR_FLAT_MAX_ITERATIONS = 100


@settings(max_examples=300, deadline=None)
@given(
    w=near_flat_weights(),
    k=st.integers(1, 7),
    where=st.sampled_from(["floor", "above the floor", "between"]),
    share=st.floats(0.0, 1.0),
)
# Two names a few ulps from a tie, the bound one ulp above the floor:
# Newton steps alone creep, and take more than 200 of them.
@example(
    w=np.array([0.4999999999999998, 0.5000000000000003]), k=1,
    where="above the floor", share=0.0,
)
def test_near_flat_weights_converge(w, k, where, share):
    """Where the statistic is flat to rounding, the solver still closes the
    bracket in few steps: the feasible end meets the bound and the other
    end breaches it."""
    k = min(k, w.size - 1)
    target = CalibrationTarget("top_k_sum", 0.5, k=k)
    mu = wv(w)
    floor = concentration_statistic(power_rebalance(mu, 0.0), target)
    ceil = concentration_statistic(power_rebalance(mu, 1.0), target)
    bound = {
        "floor": floor,
        "above the floor": math.nextafter(floor, 1.0),
        "between": floor + share * (ceil - floor),
    }[where]
    if not bound < ceil:
        return  # p = 1 already meets the bound
    target = CalibrationTarget("top_k_sum", bound, k=k)
    result = solve_exponent(mu, target)
    lo, hi = result.bracket
    assert result.achieved <= bound and lo == result.p_star
    assert hi - lo < calibration.TOL
    assert concentration_statistic(power_rebalance(mu, hi), target) > bound
    assert result.iterations <= NEAR_FLAT_MAX_ITERATIONS
