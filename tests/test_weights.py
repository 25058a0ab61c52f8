import io
import pickle

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerindex import (
    CapRule,
    Constituent,
    LinearizedPowerRule,
    PowerRule,
    RebalanceError,
    Universe,
    WeightVector,
    apply_rule,
    concentration_metrics,
    diagnostics,
    find_order_violations,
    parse_universe,
    read_weight_file,
    weights,
    weights_from_market_caps,
)
from powerindex.io import RENORMALIZE_WINDOW
from powerindex.weights import SUM_TOL

from helpers import hard_weights, make_ids, random_simplex, scaled, whole, wv


class TestConstituent:
    def test_direct_market_cap(self):
        c = Constituent("AAA", market_cap=70.0)
        assert c.market_cap == 70.0

    def test_zero_market_cap_allowed(self):
        assert Constituent("AAA", market_cap=0.0).market_cap == 0.0

    def test_missing_inputs_rejected(self):
        # A cap is the one input: a price and a share count do not make one.
        with pytest.raises(TypeError):
            Constituent("AAA", price=10.0, shares_outstanding=7.0)

    def test_negative_market_cap_rejected(self):
        with pytest.raises(RebalanceError, match=whole("AAA: market_cap -1.0 is negative")):
            Constituent("AAA", market_cap=-1.0)

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

    def test_caps_whose_sum_overflows(self):
        # Warnings are errors here, so this also shows the guard leaks none.
        out = weights_from_market_caps(Universe(("A", "B"), [1e308, 1e308]))
        assert out.weights.tolist() == [0.5, 0.5]

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


class TestWeightVector:
    def test_valid_roundtrip(self):
        v = wv([0.7, 0.3], ids=("A", "B"))
        assert v.n == 2
        assert len(v) == 2
        assert v.identifiers == ("A", "B") and v.weights.tolist() == [0.7, 0.3]

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

    def test_rejects_nonfinite_weight(self):
        with pytest.raises(ValueError, match=whole("weights must be finite")):
            WeightVector(("A", "B"), [float("nan"), 1.0])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(RebalanceError, match=whole("duplicate identifiers: ['A']")):
            wv([0.5, 0.5], ids=("A", "A"))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            WeightVector(("A",), np.array([0.5, 0.5]))

    def test_rejects_empty_identifier(self):
        message = "constituent identifier must be nonempty"
        with pytest.raises(ValueError, match=whole(message)):
            WeightVector(("", "B"), [0.5, 0.5])

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

    def test_equality_compares_weights_by_value(self):
        v = wv([0.5, 0.3, 0.2], ids=("A", "B", "C"))
        twin = WeightVector(v.identifiers, v.weights)
        assert twin.weights is not v.weights
        concentration_metrics(v)
        for same in (twin, pickle.loads(pickle.dumps(v))):
            assert v == same and same == v
        assert v != wv([0.5, 0.2, 0.3], ids=("A", "B", "C"))
        assert v != wv([0.5, 0.3, 0.2], ids=("A", "B", "D"))
        assert v != (v.identifiers, v.weights)

    def test_random_simplex_helper_is_valid(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 10, 100):
            for zeros in (False, True):
                for ties in (False, True):
                    v = wv(random_simplex(rng, n, zeros=zeros, ties=ties))
                    assert abs(v.weights.sum() - 1.0) <= 1e-12


def test_parsed_values_are_checked_once_by_the_reader(monkeypatch):
    """A parsed universe, a read weight file and a transform's output are
    scaled to one without ``WeightVector``'s checks, with the same bits."""
    caps = [70.0, 0.0, 30.0, 12.5]
    ids = ("AAA", "BBB", "CCC", "DDD")
    text = "id,market_cap\n" + "".join(f"{i},{c!r}\n" for i, c in zip(ids, caps))
    rules = (PowerRule(0.5), LinearizedPowerRule(0.5, knot=0.2), CapRule(0.2, 0.3))
    mu = weights_from_market_caps([Constituent(i, c) for i, c in zip(ids, caps)])
    expected = [mu, *(apply_rule(mu, rule) for rule in rules)]

    def refuse(w):
        raise AssertionError("weights checked again after the reader")

    monkeypatch.setattr(weights, "_check_weights", refuse)
    parsed = weights_from_market_caps(parse_universe(io.StringIO(text)))
    assert [parsed, *(apply_rule(parsed, rule) for rule in rules)] == expected
    weight_text = "id,weight\n" + "".join(
        f"{i},{w!r}\n" for i, w in zip(mu.identifiers, mu.weights.tolist())
    )
    assert read_weight_file(io.StringIO(weight_text)) == mu


# Universes built by hand: identifiers, caps, and the class and message
# of the error, or None where the universe is valid.
NAN, INF = float("nan"), float("inf")
HAND_BUILT = {
    "list caps": (("A", "B", "C", "D"), [70.0, 0.0, 30.0, 12.5], None, None),
    "int ids": ((1, 2, 3), [3.0, 1.0, 2.0], None, None),
    "nan cap": (("A", "B"), [1.0, NAN], ValueError, "B: market_cap must be finite"),
    "inf cap": (("A", "B"), [INF, 1.0], ValueError, "A: market_cap must be finite"),
    "negative cap": (
        ("A", "B", "C"), [1.0, -1.0, -2.0], RebalanceError,
        "B: market_cap -1.0 is negative",
    ),
    "length mismatch": (
        ("A", "B"), [1.0], ValueError, "identifiers and market caps must match in length"
    ),
    "duplicate id": (
        ("A", "B", "A"), [1.0, 2.0, 3.0], RebalanceError, "duplicate identifiers: ['A']"
    ),
    "empty id": (
        ("", "B"), [1.0, 2.0], ValueError, "constituent identifier must be nonempty"
    ),
    "empty universe": ((), [], RebalanceError, "universe is empty"),
}


@pytest.mark.parametrize(
    "ids, caps, error, message", HAND_BUILT.values(), ids=list(HAND_BUILT)
)
def test_hand_built_universe_is_checked_where_it_is_built(ids, caps, error, message):
    """``Universe(...)`` checks its columns as the parse checks a file's;
    only an empty universe is left for ``weights_from_market_caps`` to
    reject. A valid one weighs to the bits of the same file parsed."""
    if error is not None:
        with pytest.raises(error, match=whole(message)):
            u = Universe(ids, caps)
            if not ids:
                weights_from_market_caps(u)
        return
    u = Universe(ids, caps)
    mu = weights_from_market_caps(u)
    assert u.identifiers == mu.identifiers == tuple(map(str, ids))
    assert u.market_caps.tolist() == caps
    text = "id,market_cap\n" + "".join(f"{i},{c!r}\n" for i, c in zip(ids, caps))
    parsed = weights_from_market_caps(parse_universe(io.StringIO(text)))
    assert mu.identifiers == parsed.identifiers
    assert mu.weights.tobytes() == parsed.weights.tobytes()


def cap_violations():
    """The order violations of a cap rebalance of 40 near-equal weights."""
    rng = np.random.default_rng(5)
    mu = wv(scaled(1.0 + 1e-3 * rng.random(40)))
    return find_order_violations(mu, apply_rule(mu, CapRule(1.0 / 40, 0.3)))


SEQUENCE_KEYS = (
    0, 3, -1, -21, slice(None, 20), slice(2, 9, 3), slice(-5, None),
    slice(None, None, -1), slice(-2, 1, -3), slice(5, 5), slice(5, 5, -1),
)


@pytest.mark.parametrize("build", [cap_violations])
def test_lazy_sequence_protocol(build):
    """``OrderViolations`` indexes, compares and prints as the list of its
    items does."""
    seq = build()
    items = list(seq)
    n = len(seq)
    assert n == len(items) > 21
    for key in SEQUENCE_KEYS:
        assert seq[key] == items[key], key
    for key in (n, -n - 1):
        with pytest.raises(IndexError):
            seq[key]
    assert seq == items and seq == tuple(items) and items == seq
    assert seq != items[:-1] and seq != items[::-1]
    assert seq.__eq__(5) is NotImplemented and seq != 5
    assert repr(seq) == f"{type(seq).__name__}(n={n}, first={items[:3]!r})"


def test_order_violations_build_only_what_is_read(monkeypatch):
    violations = cap_violations()
    built = []

    def counted(cls, *values):
        built.append(values)
        return real(*values)

    real = diagnostics.OrderViolation._of
    monkeypatch.setattr(diagnostics.OrderViolation, "_of", classmethod(counted))
    for key, count in ((slice(None, 20), 20), (slice(-1, -20, -9), 3), (7, 1), (-1, 1)):
        built.clear()
        out = violations[key]
        assert len(built) == count, key
        if isinstance(key, slice):
            assert len(out) == count
        else:
            assert out == diagnostics.OrderViolation(*built[0])


def assert_derived(eta: WeightVector, ids: tuple[str, ...], *inputs: np.ndarray) -> None:
    """What the constructor would check of a vector the package derived,
    and that its weights are its own."""
    w = eta.weights
    assert eta.identifiers == ids and w.shape == (len(ids),) and w.dtype == float
    assert np.isfinite(w).all() and (w >= 0.0).all() and (w <= 1.0).all()
    assert abs(float(w.sum()) - 1.0) <= SUM_TOL
    assert not w.flags.writeable
    assert not any(np.shares_memory(w, x) for x in inputs)


@settings(max_examples=150, deadline=None)
@given(
    case=hard_weights(),
    p=st.floats(0.0, 1.0),
    scale=st.sampled_from([1.0, 1e-300, 1e300, "overflow"]),
    drift=st.floats(-0.9 * RENORMALIZE_WINDOW, 0.9 * RENORMALIZE_WINDOW),
    as_json=st.booleans(),
)
def test_derived_vectors_need_no_check(case, p, scale, drift, as_json):
    """Vectors derived from checked input skip the constructor's checks:
    each transform's output, cap weights (zeros, ties, runs at a knot, caps
    whose sum overflows) and a weight file that drifts inside the
    renormalize window all hold what those checks would ask."""
    w, knot = case
    ids = make_ids(w.size)
    mu = WeightVector(ids, w)
    rules = (PowerRule(p), LinearizedPowerRule(p, knot), CapRule(knot, 0.4))
    for rule in rules:
        try:
            assert_derived(apply_rule(mu, rule), ids, mu.weights)
        except RebalanceError:  # the cap rule, with nothing left to absorb
            assert isinstance(rule, CapRule)
    # The largest cap near the largest float: caps sum past it unless it
    # holds nine tenths of the weight.
    if scale == "overflow":
        caps = w / w.max() * (0.9 * np.finfo(float).max)
    else:
        caps = w * scale
    universe = Universe(ids, caps)
    assert_derived(weights_from_market_caps(universe), ids, universe.market_caps)
    values = (w * (1.0 + drift)).tolist()
    if as_json:
        rows = [{"id": i, "weight_after": v} for i, v in zip(ids, values)]
        text = json.dumps({"rows": rows})
    else:
        text = "id,weight\n" + "".join(f"{i},{v!r}\n" for i, v in zip(ids, values))
    assert_derived(read_weight_file(io.StringIO(text)), ids)
