import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerindex import (
    CapRule,
    RebalanceError,
    LinearizedPowerRule,
    PowerRule,
    WeightVector,
    apply_rule,
    cap_rebalance,
    find_order_violations,
    linearized_power_rebalance,
    power_rebalance,
    top_k_sum,
)
from powerindex.diagnostics import MAX_INCREASE_TOL
from powerindex.transforms import power_curve

from helpers import random_simplex, whole, wv

# Frozen from an independent script: sqrt/pow entrywise, divide by the sum.
TWO_STOCK_HALF = (0.60435607626104, 0.39564392373895996)
TWO_STOCK_3Q = (0.6537294998824336, 0.3462705001175665)
LIN_EXAMPLE = (
    0.5362288126058093,
    0.32045800898793736,
    0.08598790704375199,
    0.05732527136250132,
)
# Hand-computed cap scale factors: 0.40/0.62 and 0.60/0.38 for instance 1,
# 0.40/0.046 and 0.60/0.954 for instance 2.
CAP1_MU = [0.20, 0.19, 0.18, 0.05] + [0.038] * 10
CAP2_MU = [0.046] + [0.018] * 53
DEGENERATE = (
    "weights above threshold sum to 1.0; no positive complement is left to "
    "absorb the redistributed mass"
)


def no_strict_inversions(mu: np.ndarray, eta: np.ndarray) -> bool:
    """Exhaustive pairwise check, independent of the library's scan."""
    lighter = mu[:, None] < mu[None, :]
    heavier_after = eta[:, None] > eta[None, :]
    return not np.any(lighter & heavier_after)


def ties_stay_tied(mu: np.ndarray, eta: np.ndarray, tol: float = 1e-14) -> bool:
    tied = mu[:, None] == mu[None, :]
    apart = np.abs(eta[:, None] - eta[None, :]) > tol
    return not np.any(tied & apart)


@st.composite
def hard_weights(draw):
    """Weights on the simplex built from runs: ties, zeros, runs of
    adjacent floats (up or down), values near and in the subnormal range,
    and runs from the default knot. One last entry takes the rest of the
    mass, so that the runs keep their exact values; order is shuffled."""
    values: list[float] = []
    for _ in range(draw(st.integers(1, 8))):
        x = draw(
            st.one_of(
                st.floats(1e-4, 0.012),
                st.floats(5e-324, 1e-300),
                st.sampled_from([0.0, 0.01, float(np.finfo(float).tiny)]),
            )
        )
        toward = draw(st.sampled_from([None, 0.0, 1.0]))
        for _ in range(draw(st.integers(1, 10))):
            values.append(x)
            if toward is not None:
                x = float(np.nextafter(x, toward))
    values.append(1.0 - sum(values))
    return np.array(draw(st.permutations(values)))


@settings(max_examples=300, deadline=None)
@given(
    w=hard_weights(),
    p=st.floats(0.0, 1.0),
    linearized=st.booleans(),
)
def test_power_guarantees_on_hard_vectors(w, p, linearized):
    def rebalance(mu):
        if linearized:
            return linearized_power_rebalance(mu, LinearizedPowerRule(p))
        return power_rebalance(mu, p)

    ids = tuple(f"C{i:03d}" for i in range(w.size))
    mu = WeightVector(ids, w)
    eta = rebalance(mu)
    # Within the tolerance of DiagnosticsReport.max_increased: at p = 1,
    # a sum a few ulps below one is rescaled, and the max moves up an ulp.
    assert eta.weights.max() <= mu.weights.max() + MAX_INCREASE_TOL
    assert len(find_order_violations(mu, eta)) == 0
    if w.size <= 50:
        assert no_strict_inversions(w, eta.weights)
    # One more name at weight zero: with no zero in w, the curve takes its
    # all-positive path on w and the masked path on w0, and every other
    # entry must come out bit-identical. The transform's weights may
    # differ only in rounding, because the total adds one more term.
    w0 = np.append(w, 0.0)
    raw = power_curve(w, w > 0.0, np.log(w[w > 0.0]), p)
    raw0 = power_curve(w0, w0 > 0.0, np.log(w0[w0 > 0.0]), p)
    assert raw0[:-1].tobytes() == raw.tobytes() and raw0[-1] == 0.0
    eta0 = rebalance(WeightVector(ids + ("ZERO",), w0))
    assert eta0.weights[-1] == 0.0
    np.testing.assert_allclose(eta0.weights[:-1], eta.weights, rtol=1e-14, atol=1e-321)


class TestPowerRebalance:
    def test_two_stock_p_half(self):
        eta = power_rebalance(wv([0.7, 0.3]), PowerRule(0.5))
        np.testing.assert_allclose(eta.weights, TWO_STOCK_HALF, rtol=0, atol=1e-12)
        # Matches the published two-decimal rounding.
        np.testing.assert_allclose(eta.weights, [0.60, 0.40], rtol=0, atol=0.005)

    def test_two_stock_p_three_quarters(self):
        eta = power_rebalance(wv([0.7, 0.3]), PowerRule(0.75))
        np.testing.assert_allclose(eta.weights, TWO_STOCK_3Q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(eta.weights, [0.65, 0.35], rtol=0, atol=0.005)

    def test_p_one_is_identity(self):
        rng = np.random.default_rng(23)
        for n in (2, 7, 100):
            mu = wv(random_simplex(rng, n))
            eta = power_rebalance(mu, 1.0)
            assert np.max(np.abs(eta.weights - mu.weights)) <= 1e-15

    def test_p_zero_equal_weights_positive_entries_only(self):
        eta = power_rebalance(wv([0.7, 0.2, 0.1, 0.0]), PowerRule(0.0))
        np.testing.assert_allclose(
            eta.weights, [1 / 3, 1 / 3, 1 / 3, 0.0], rtol=0, atol=1e-15
        )

    def test_zero_weights_stay_zero_for_every_p(self):
        mu = wv([0.5, 0.0, 0.3, 0.2])
        for p in (0.0, 0.3, 0.5, 1.0):
            assert power_rebalance(mu, p).weights[1] == 0.0

    def test_float_shorthand_matches_rule(self):
        mu = wv([0.6, 0.4])
        a = power_rebalance(mu, 0.37)
        b = power_rebalance(mu, PowerRule(0.37))
        assert np.array_equal(a.weights, b.weights)

    def test_identifier_order_preserved(self):
        eta = power_rebalance(wv([0.7, 0.3], ids=("X", "Y")), 0.5)
        assert eta.identifiers == ("X", "Y")

    def test_guarantees_on_random_grid(self):
        rng = np.random.default_rng(31)
        grid = [i / 10 for i in range(11)] + list(rng.uniform(0.0, 1.0, 4))
        for case in range(120):
            n = int(rng.integers(2, 101))
            mu_w = random_simplex(
                rng, n, zeros=(case % 3 == 0), ties=(case % 4 == 0)
            )
            mu = wv(mu_w)
            for p in grid:
                eta = power_rebalance(mu, p)
                assert abs(eta.weights.sum() - 1.0) <= 1e-12
                assert eta.weights.max() <= mu_w.max() + 1e-12
                pos = mu_w > 0
                assert eta.weights[pos].min() >= mu_w[pos].min() - 1e-12
                assert no_strict_inversions(mu_w, eta.weights)
                assert ties_stay_tied(mu_w, eta.weights)

    def test_composition_equals_product_exponent(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            mu = wv(random_simplex(rng, int(rng.integers(2, 101))))
            p, q = rng.uniform(0.0, 1.0, size=2)
            chained = power_rebalance(power_rebalance(mu, p), q)
            direct = power_rebalance(mu, p * q)
            assert np.max(np.abs(chained.weights - direct.weights)) <= 1e-12

    def test_concentration_nondecreasing_in_p(self):
        rng = np.random.default_rng(41)
        grid = np.linspace(0.0, 1.0, 101)
        for _ in range(20):
            n = int(rng.integers(6, 101))
            mu = wv(random_simplex(rng, n))
            maxes, top6 = [], []
            for p in grid:
                eta = power_rebalance(mu, p)
                maxes.append(eta.weights.max())
                top6.append(top_k_sum(eta.weights, 6))
            assert all(b >= a - 1e-12 for a, b in zip(maxes, maxes[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(top6, top6[1:]))

    def test_rejects_out_of_range_exponent(self):
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                PowerRule(p)


class TestLinearizedPowerRebalance:
    def test_four_stock_example(self):
        mu = wv([0.7, 0.25, 0.03, 0.02])
        eta = linearized_power_rebalance(mu, LinearizedPowerRule(0.5, knot=0.05))
        np.testing.assert_allclose(eta.weights, LIN_EXAMPLE, rtol=0, atol=1e-12)

    def test_below_knot_ratios_preserved(self):
        mu = wv([0.7, 0.25, 0.03, 0.02])
        eta = linearized_power_rebalance(mu, LinearizedPowerRule(0.5, knot=0.05))
        assert abs(eta.weights[2] / eta.weights[3] - 1.5) <= 1e-12 * 1.5

    def test_below_knot_ratios_preserved_random(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            small = rng.uniform(1e-4, 0.009, size=6)
            big = rng.uniform(0.05, 0.4, size=3)
            w = np.concatenate([big, small])
            mu = wv(w / w.sum())
            eta = linearized_power_rebalance(mu, LinearizedPowerRule(0.6, knot=0.01))
            m, e = mu.weights, eta.weights
            for a in range(3, 9):
                for b in range(a + 1, 9):
                    if m[a] < 0.01 and m[b] < 0.01:
                        want = m[a] / m[b]
                        got = e[a] / e[b]
                        assert abs(got - want) <= 1e-12 * abs(want)

    def test_p_one_is_identity(self):
        rng = np.random.default_rng(47)
        mu = wv(random_simplex(rng, 30))
        for knot in (0.005, 0.01, 0.05, 0.9):
            eta = linearized_power_rebalance(mu, LinearizedPowerRule(1.0, knot))
            assert np.max(np.abs(eta.weights - mu.weights)) <= 1e-15

    def test_matches_power_when_all_entries_above_knot(self):
        mu = wv([0.4, 0.35, 0.25])
        lin = linearized_power_rebalance(mu, LinearizedPowerRule(0.5, knot=0.01))
        pow_ = power_rebalance(mu, 0.5)
        assert np.max(np.abs(lin.weights - pow_.weights)) <= 1e-15

    def test_zero_weights_stay_zero(self):
        mu = wv([0.6, 0.0, 0.4])
        eta = linearized_power_rebalance(mu, LinearizedPowerRule(0.5, 0.05))
        assert eta.weights[1] == 0.0

    def test_guarantees_on_random_grid(self):
        rng = np.random.default_rng(53)
        for knot in (0.005, 0.01, 0.05):
            for _ in range(40):
                n = int(rng.integers(2, 101))
                mu_w = random_simplex(rng, n, zeros=True)
                mu = wv(mu_w)
                for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                    eta = linearized_power_rebalance(
                        mu, LinearizedPowerRule(p, knot)
                    )
                    assert abs(eta.weights.sum() - 1.0) <= 1e-12
                    assert eta.weights.max() <= mu_w.max() + 1e-12
                    assert no_strict_inversions(mu_w, eta.weights)

    def test_default_knot(self):
        assert LinearizedPowerRule(0.5).knot == 0.01

    def test_rejects_bad_knot(self):
        for knot in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="knot"):
                LinearizedPowerRule(0.5, knot)


class TestCapRebalance:
    def test_instance_one_order_flip(self):
        mu = wv(CAP1_MU)
        eta = cap_rebalance(mu, CapRule())
        cap_scale = 0.40 / 0.62
        un_scale = 0.60 / 0.38
        expected = np.array(
            [w * (cap_scale if w > 0.045 else un_scale) for w in CAP1_MU]
        )
        np.testing.assert_allclose(eta.weights, expected, rtol=0, atol=1e-12)
        # The 0.05 name lands below every 0.038 name.
        assert eta.weights[3] < eta.weights[4]
        # Uncapped names rise above the threshold.
        assert eta.weights[4] > 0.045

    def test_instance_two_max_weight_grows(self):
        mu = wv(CAP2_MU)
        eta = cap_rebalance(mu, CapRule())
        assert abs(eta.weights[0] - 0.40) <= 1e-12
        np.testing.assert_allclose(
            eta.weights[1:], [0.018 * 0.60 / 0.954] * 53, rtol=0, atol=1e-12
        )
        assert eta.weights.max() > mu.weights.max()

    def test_unchanged_when_nothing_exceeds_threshold(self):
        tail = [0.93 / 31] * 31
        mu = wv([0.04, 0.03] + tail)
        eta = cap_rebalance(mu, CapRule())
        assert np.max(np.abs(eta.weights - mu.weights)) <= 1e-15
        assert eta.identifiers == mu.identifiers

    def test_exact_threshold_is_not_capped(self):
        mu = wv([0.045, 0.045, 0.91])
        eta = cap_rebalance(mu, CapRule())
        np.testing.assert_allclose(eta.weights, [0.3, 0.3, 0.4], rtol=0, atol=1e-12)

    def test_degenerate_complement(self):
        with pytest.raises(RebalanceError, match=whole(DEGENERATE)):
            cap_rebalance(wv([0.5, 0.5]), CapRule())

    def test_degenerate_complement_with_zero_tail(self):
        with pytest.raises(RebalanceError, match=whole(DEGENERATE)):
            cap_rebalance(wv([0.5, 0.5, 0.0]), CapRule())

    def test_default_rule_values(self):
        rule = CapRule()
        assert rule.threshold == 0.045
        assert rule.target_aggregate == 0.40

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CapRule(threshold=0.5, target_aggregate=0.4)
        with pytest.raises(ValueError):
            CapRule(threshold=0.0)
        with pytest.raises(ValueError):
            CapRule(target_aggregate=1.0)

    def test_sum_still_one(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            mu = wv(random_simplex(rng, int(rng.integers(5, 80))))
            try:
                eta = cap_rebalance(mu, CapRule())
            except RebalanceError:
                continue
            assert abs(eta.weights.sum() - 1.0) <= 1e-12


class TestApplyRule:
    def test_dispatch(self):
        mu = wv([0.7, 0.3])
        assert np.array_equal(
            apply_rule(mu, PowerRule(0.5)).weights,
            power_rebalance(mu, 0.5).weights,
        )
        assert np.array_equal(
            apply_rule(mu, LinearizedPowerRule(0.5, 0.05)).weights,
            linearized_power_rebalance(mu, LinearizedPowerRule(0.5, 0.05)).weights,
        )
        mu14 = wv(CAP1_MU)
        assert np.array_equal(
            apply_rule(mu14, CapRule()).weights, cap_rebalance(mu14).weights
        )

    def test_unknown_rule_type(self):
        with pytest.raises(TypeError):
            apply_rule(wv([0.7, 0.3]), "power")
