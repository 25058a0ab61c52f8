import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerindex import (
    CalibrationTarget,
    CapRule,
    RebalanceError,
    LinearizedPowerRule,
    PowerRule,
    WeightVector,
    apply_rule,
    cap_rebalance,
    concentration_statistic,
    find_order_violations,
    linearized_power_rebalance,
    power_rebalance,
    solve_exponent,
    top_k_sum,
)
from powerindex.transforms import power_weights

from helpers import (
    exact_power,
    hard_weights,
    random_simplex,
    reference_power,
    scaled,
    ulps_off,
    whole,
    wv,
)

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


# A dominant weight whose sum with the rest is a few ulps below one: at
# p = 1, dividing by the plain sum raised its max by one ulp.
P_ONE_MAX = [
    0.9982196483292887, 4.0900576654399956e-05, 1.649821052500297e-05,
    0.0008118223321711723, 0.0009111305513607642,
]
# A weight one ulp below the knot: with the chord's slope rounded on its
# own, it came out above the weight at the knot.
KNOT_FLIP = [0.049999999999999996, 0.05, 0.9]


@settings(max_examples=300, deadline=None)
@given(case=hard_weights(), p=st.floats(0.0, 1.0), linearized=st.booleans())
@example(case=(np.array(P_ONE_MAX), 0.01), p=1.0, linearized=False)
@example(case=(np.array(KNOT_FLIP), 0.05), p=0.895448239414126, linearized=True)
def test_power_guarantees_on_hard_vectors(case, p, linearized):
    w, knot = case
    knot = knot if linearized else 0.0

    def rebalance(mu):
        if linearized:
            return linearized_power_rebalance(mu, LinearizedPowerRule(p, knot))
        return power_rebalance(mu, p)

    ids = tuple(f"C{i:03d}" for i in range(w.size))
    mu = WeightVector(ids, w)
    eta = rebalance(mu)
    assert eta.weights.max() <= mu.weights.max()
    assert len(find_order_violations(mu, eta)) == 0
    if w.size <= 50:
        assert no_strict_inversions(w, eta.weights)
    # One more name at weight zero: with no zero in w, the curve takes its
    # all-positive path on w and the masked path on w0, and each must give
    # the plain formula bit for bit. The transform's weights may differ
    # only in rounding, because the total adds one more term.
    w0 = np.append(w, 0.0)
    for v in (w, w0):
        expected = reference_power(v, p, knot).tobytes()
        assert power_weights(v, p, knot).tobytes() == expected
    eta0 = rebalance(WeightVector(ids + ("ZERO",), w0))
    assert eta0.weights[-1] == 0.0
    np.testing.assert_allclose(eta0.weights[:-1], eta.weights, rtol=1e-14, atol=1e-321)


def test_p_one_returns_the_weights_bit_for_bit():
    """At p = 1 both power rules return a copy of the input weights, where
    the plain formula w / sum w changed most of them in the last bits; a
    solve whose bound the input meets returns p = 1 and the statistic of
    the weights themselves."""
    rng = np.random.default_rng(29)
    caps = rng.pareto(1.2, 10_000) + 1.0
    cases = [np.array(P_ONE_MAX), caps / caps.sum()]
    for case in range(40):
        n = int(rng.integers(2, 300))
        cases.append(random_simplex(rng, n, zeros=case % 2 == 0, ties=True))
    for w in cases:
        mu = wv(w)
        etas = [power_rebalance(mu, 1.0), power_rebalance(mu, PowerRule(1.0))]
        etas += [
            linearized_power_rebalance(mu, LinearizedPowerRule(1.0, knot))
            for knot in (1e-4, 0.01, 0.5)
        ]
        for eta in etas:
            assert eta.weights.tobytes() == mu.weights.tobytes()
            assert eta.weights is not mu.weights
        m = int(np.count_nonzero(w))
        for k in {1, 6, m - 1} - {0}:
            if k >= m:
                continue
            stat = top_k_sum(mu.weights, k)
            target = CalibrationTarget("top_k_sum", stat, k=k)
            result = solve_exponent(mu, target)
            assert (result.p_star, result.iterations, result.bracket) == (1.0, 0, (1.0, 1.0))
            assert result.achieved == stat
            assert concentration_statistic(power_rebalance(mu, 1.0), target) == stat


# power_weights is within ERROR_ULPS[0] + ERROR_ULPS[1] * max|p * log w|
# ulps of the exact quotient, as README states. Over 23,200 random vectors
# of the three shapes below, no error exceeded 4.1 + 2 * max|p * log w|:
# exp turns the absolute rounding error of p * log w, which grows with
# |p * log w|, into a relative error of its result.
ERROR_ULPS = (8.0, 2.0)
GEOMSPACE_TO_1E300 = scaled(np.geomspace(1e-300, 1.0, 64))


@st.composite
def shaped_weights(draw):
    """Pareto(1.2), geomspace down to as far as 1e-300, or near-flat
    weights, of 2 to 64 names."""
    n = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["pareto", "geomspace", "near-flat"]))
    if shape == "pareto":
        caps = rng.pareto(1.2, n) + 1.0
    elif shape == "geomspace":
        caps = np.geomspace(10.0 ** -draw(st.floats(1.0, 300.0)), 1.0, n)
    else:
        caps = 1.0 + rng.uniform(0.0, 1.0, n) * 10.0 ** -draw(st.floats(1.0, 15.0))
    return scaled(caps)


@settings(max_examples=300, deadline=None)
@given(
    w=shaped_weights(),
    p=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.99, 1.0])),
    knot=st.one_of(st.just(0.0), st.floats(1e-3, 0.1)),
)
@example(w=GEOMSPACE_TO_1E300, p=0.99, knot=0.0)
@example(w=np.array(P_ONE_MAX), p=1.0, knot=0.0)
@example(w=np.array(KNOT_FLIP), p=0.895448239414126, knot=0.05)
def test_power_weights_within_its_error_bound_of_the_exact_quotient(w, p, knot):
    reach = float(np.max(np.abs(p * np.log(w[w > 0.0]))))
    error = ulps_off(power_weights(w, p, knot), exact_power(w, p, knot))
    assert error <= ERROR_ULPS[0] + ERROR_ULPS[1] * reach


def test_exp_and_log_keep_order_and_bits_alone_or_in_arrays():
    """The premise of the chord: on adjacent floats numpy's exp and log
    never reverse the order, and a value alone gets the bits it gets
    inside an array, at any position."""
    rng = np.random.default_rng(61)
    x = np.sort(10.0 ** rng.uniform(-300.0, 0.0, 20_000))
    for f, arg in ((np.log, x), (np.exp, np.log(x) * rng.uniform(0.0, 1.0))):
        up = np.nextafter(arg, np.inf)
        assert (f(arg) <= f(up)).all()
        both = f(np.concatenate([arg, up]))
        assert both.tobytes() == np.concatenate([f(arg), f(up)]).tobytes()
        alone = np.array([f(v) for v in arg[::97].tolist()])
        assert alone.tobytes() == f(arg)[::97].tobytes()


def test_exp_and_log_are_nondecreasing_where_the_transform_uses_them():
    """The premise of the order guarantee, scanned on the numpy at hand:
    log on weights in (0, 1], subnormals included, and exp on exponents
    p * log w down to where it underflows to zero, each along sorted
    random doubles and along runs of 100 adjacent floats."""
    rng = np.random.default_rng(83)
    weights = np.concatenate(
        [10.0 ** rng.uniform(-323.5, 0.0, 200_000), rng.uniform(0.0, 1.0, 50_000)]
    )
    exponents = np.concatenate(
        [rng.uniform(-746.0, 0.0, 200_000), -(10.0 ** rng.uniform(-20.0, 0.0, 50_000))]
    )
    for f, x in ((np.log, np.sort(weights[weights > 0.0])), (np.exp, np.sort(exponents))):
        assert (np.diff(f(x)) >= 0.0).all()
        run = [x[rng.integers(0, x.size, 2_000)]]
        for _ in range(99):
            run.append(np.nextafter(run[-1], np.inf))
        assert (np.diff(f(np.stack(run, axis=1)), axis=1) >= 0.0).all()


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
                assert eta.weights.max() <= mu_w.max()
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
                    assert eta.weights.max() <= mu_w.max()
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
