import numpy as np
import pytest

from powerindex import (
    Constituent,
    RebalanceError,
    WeightVector,
    normalize,
    weights_from_market_caps,
)

from helpers import make_ids, random_simplex, whole, wv


class TestConstituent:
    def test_direct_market_cap(self):
        c = Constituent("AAA", market_cap=70.0)
        assert c.market_cap == 70.0

    def test_price_times_shares(self):
        c = Constituent("AAA", price=10.0, shares_outstanding=7.0)
        assert c.market_cap == 70.0

    def test_zero_market_cap_allowed(self):
        assert Constituent("AAA", market_cap=0.0).market_cap == 0.0

    def test_missing_inputs_rejected(self):
        with pytest.raises(ValueError, match="supply market_cap"):
            Constituent("AAA", price=10.0)

    def test_negative_market_cap_rejected(self):
        with pytest.raises(RebalanceError, match=whole("AAA: market_cap -1.0 is negative")):
            Constituent("AAA", market_cap=-1.0)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError, match="price"):
            Constituent("AAA", price=0.0, shares_outstanding=7.0)
        with pytest.raises(ValueError, match="shares"):
            Constituent("AAA", price=10.0, shares_outstanding=-2.0)

    def test_empty_identifier_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Constituent("", market_cap=1.0)

    def test_nonfinite_cap_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Constituent("AAA", market_cap=float("inf"))


class TestWeightsFromMarketCaps:
    def test_proportionality(self):
        out = weights_from_market_caps(
            [Constituent("AAA", 70.0), Constituent("BBB", 30.0)]
        )
        np.testing.assert_allclose(out.weights, [0.7, 0.3], rtol=0, atol=1e-15)
        assert out.identifiers == ("AAA", "BBB")

    def test_symmetry(self):
        out = weights_from_market_caps(
            [Constituent(f"S{i}", 5.0) for i in range(4)]
        )
        np.testing.assert_allclose(out.weights, [0.25] * 4, rtol=0, atol=1e-15)

    def test_zero_cap_kept_at_zero_weight(self):
        out = weights_from_market_caps(
            [Constituent("A", 3.0), Constituent("B", 0.0), Constituent("C", 1.0)]
        )
        np.testing.assert_allclose(out.weights, [0.75, 0.0, 0.25], rtol=0, atol=1e-15)
        assert out.weights[1] == 0.0

    def test_empty_universe(self):
        with pytest.raises(RebalanceError, match=whole("universe is empty")):
            weights_from_market_caps([])

    def test_all_zero_caps(self):
        with pytest.raises(RebalanceError, match=whole("all market caps are zero")):
            weights_from_market_caps([Constituent("A", 0.0), Constituent("B", 0.0)])

    def test_duplicate_identifiers(self):
        with pytest.raises(RebalanceError, match=whole("duplicate identifiers: ['AAA']")):
            weights_from_market_caps(
                [Constituent("AAA", 1.0), Constituent("AAA", 2.0)]
            )

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        caps = rng.uniform(0.1, 500.0, size=40)
        base = weights_from_market_caps(
            [Constituent(i, c) for i, c in zip(make_ids(40), caps)]
        )
        for scale in (1e-6, 3.7, 1e9):
            scaled = weights_from_market_caps(
                [Constituent(i, c * scale) for i, c in zip(make_ids(40), caps)]
            )
            assert np.max(np.abs(scaled.weights - base.weights)) <= 1e-12


class TestNormalize:
    def test_symmetry(self):
        np.testing.assert_allclose(normalize([2.0, 2.0]), [0.5, 0.5], rtol=0, atol=0)

    def test_proportionality_with_zero(self):
        np.testing.assert_allclose(
            normalize([1.0, 0.0, 3.0]), [0.25, 0.0, 0.75], rtol=0, atol=1e-16
        )

    def test_two_entry_example(self):
        # Frozen from dividing each entry by their sum in a separate script.
        out = normalize([0.83666, 0.547723])
        np.testing.assert_allclose(
            out, [0.6043558755055501, 0.39564412449444986], rtol=0, atol=1e-15
        )

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 17, 300):
            raw = rng.uniform(0.0, 10.0, size=n)
            raw[0] = 1.0
            once = normalize(raw)
            twice = normalize(once)
            assert np.max(np.abs(twice - once)) <= 1e-15

    def test_output_sums_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            out = normalize(rng.uniform(0.0, 5.0, size=rng.integers(1, 200)) + 1e-9)
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_negative_entry(self):
        message = f"entry 1 is negative: {np.float64(-0.5)!r}"
        with pytest.raises(RebalanceError, match=whole(message)):
            normalize([1.0, -0.5])

    def test_zero_sum(self):
        with pytest.raises(
            RebalanceError, match=whole("entries sum to zero; nothing to normalize")
        ):
            normalize([0.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            normalize([1.0, float("nan")])

    def test_sum_that_overflows(self):
        out = normalize([1e308, 1e308, 5e307])
        np.testing.assert_allclose(out, [0.4, 0.4, 0.2], rtol=0, atol=1e-16)


class TestWeightVector:
    def test_valid_roundtrip(self):
        v = wv([0.7, 0.3], ids=("A", "B"))
        assert v.n == 2
        assert len(v) == 2
        assert v.entries == [("A", 0.7), ("B", 0.3)]
        assert v.as_dict() == {"A": 0.7, "B": 0.3}

    def test_order_is_stable(self):
        ids = ("Z", "A", "M")
        v = wv([0.2, 0.5, 0.3], ids=ids)
        assert v.identifiers == ids

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            wv([0.7, 0.2])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            wv([1.2, -0.2])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(RebalanceError, match=whole("duplicate identifiers: ['A']")):
            wv([0.5, 0.5], ids=("A", "A"))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            WeightVector(("A",), np.array([0.5, 0.5]))

    def test_rejects_empty(self):
        with pytest.raises(RebalanceError, match=whole("weight vector has no entries")):
            WeightVector((), np.array([]))

    def test_weights_are_read_only(self):
        v = wv([0.6, 0.4])
        with pytest.raises(ValueError):
            v.weights[0] = 0.5

    def test_accepts_tolerable_rounding(self):
        # 14 entries summing to 1 + 4e-16 style noise must still validate.
        v = wv([0.20, 0.19, 0.18, 0.05] + [0.038] * 10)
        assert abs(v.weights.sum() - 1.0) <= 1e-12

    def test_random_simplex_helper_is_valid(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 10, 100):
            for zeros in (False, True):
                for ties in (False, True):
                    v = wv(random_simplex(rng, n, zeros=zeros, ties=ties))
                    assert abs(v.weights.sum() - 1.0) <= 1e-12
