"""The fast paths against the plain numpy formulas they must match.

The paper loop calls numpy's reductions directly, sorts fresh copies in
place and divides transform outputs by an unguarded sum. Each of these is
compared, bit for bit, with the plain formula it must equal, on vectors
with zeros and ties, 1 to 300 entries, and k up to past the size.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powerindex import (
    CalibrationTarget,
    CapRule,
    ConcentrationMetrics,
    InfeasibleError,
    PowerRule,
    Universe,
    WeightVector,
    cap_rebalance,
    concentration_metrics,
    concentration_statistic,
    diagnostics_report,
    find_order_violations,
    power_rebalance,
    solve_exponent,
    top_k_sum,
    turnover,
    weights_from_market_caps,
)
from powerindex.calibration import _top_k_sums
from powerindex.diagnostics import DEFAULT_REPORTING_P, DEFAULT_TOP_KS
from powerindex.transforms import power_curve
from powerindex.weights import scale_to_one

from helpers import make_ids


@st.composite
def simplex(draw, min_value=1e-6):
    """Nonnegative values summing to one, 1 to 300 of them. A drawn share
    comes from a pool of at most five values, one of them zero, so that
    ties and zeros are common; the rest spread log-uniformly from
    ``min_value`` to one."""
    n = draw(st.integers(1, 300))
    pool = [0.0, *draw(st.lists(st.floats(min_value, 1.0), min_size=1, max_size=4))]
    pooled = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    free = 10.0 ** rng.uniform(math.log10(min_value), 0.0, n)
    raw = np.where(rng.random(n) < pooled, rng.choice(pool, n), free)
    assume(raw.sum() > 0.0)
    return raw / raw.sum()


def reference_top_k(w: np.ndarray, k: int) -> float:
    return float(np.sort(w)[-k:].sum()) if k < w.size else float(w.sum())


def reference_scale(arr: np.ndarray) -> np.ndarray:
    return arr / float(arr.sum())


@settings(max_examples=100, deadline=None)
@given(w=simplex(), p=st.floats(0.0, 1.0), extra_k=st.integers(0, 3), data=st.data())
def test_fast_paths_match_the_plain_formulas(w, p, extra_k, data):
    n = w.size
    mu = WeightVector(make_ids(n), w)
    # Every k from 1 to past the size, for the top-k sums.
    ks = tuple(range(1, n + 1 + extra_k))
    sums = _top_k_sums(w, ks)
    assert sums == {k: reference_top_k(w, k) for k in ks}
    for k in (1, n, n + extra_k, data.draw(st.integers(1, n + 3))):
        assert top_k_sum(w, k) == reference_top_k(w, k)

    # The transform outputs, divided by a plain sum.
    positive = w > 0.0
    raw = power_curve(w, positive, np.log(w[positive]), p)
    assert scale_to_one(raw).tobytes() == reference_scale(raw).tobytes()
    assert power_rebalance(mu, p).weights.tobytes() == reference_scale(raw).tobytes()
    caps = w * 1e12
    cap_weighted = weights_from_market_caps(Universe(mu.identifiers, caps))
    assert cap_weighted.weights.tobytes() == reference_scale(caps).tobytes()
    rule = CapRule()
    capped = w > rule.threshold
    if capped.any() and (w[~capped] > 0.0).any():
        s = float(w[capped].sum())
        out = np.where(
            capped,
            w * (rule.target_aggregate / s),
            w * ((1.0 - rule.target_aggregate) / (1.0 - s)),
        )
        eta = cap_rebalance(mu, rule)
        assert eta.weights.tobytes() == reference_scale(out).tobytes()

    # Concentration metrics of a fresh vector, with the default top ks.
    fresh = WeightVector(mu.identifiers, w)
    assert concentration_metrics(fresh) == ConcentrationMetrics(
        float((w * w).sum()),
        {k: reference_top_k(w, k) for k in DEFAULT_TOP_KS},
        float((w**DEFAULT_REPORTING_P).sum() ** (1.0 / DEFAULT_REPORTING_P)),
    )


@st.composite
def overlapping_pairs(draw):
    """Two vectors over partly overlapping identifiers: eta holds some of
    mu's ids, maybe reordered, and maybe ids mu lacks."""
    mu_w = draw(simplex())
    mu_ids = make_ids(mu_w.size)
    shared = draw(st.integers(0, mu_w.size))
    ids = list(mu_ids[:shared]) + [f"X{i}" for i in range(draw(st.integers(0, 5)))]
    assume(ids)
    if draw(st.booleans()):
        ids = draw(st.permutations(ids))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random(len(ids))
    return WeightVector(mu_ids, mu_w), WeightVector(tuple(ids), raw / raw.sum())


def reference_turnover(mu: WeightVector, eta: WeightVector) -> float:
    """Half the L1 distance over the union, added in a plain loop: mu's ids
    in mu's order, then the ids only eta holds in eta's order."""
    rest = dict(zip(eta.identifiers, eta.weights.tolist()))
    total = 0.0
    for ident, weight in zip(mu.identifiers, mu.weights.tolist()):
        total += abs(rest.pop(ident, 0.0) - weight)
    for weight in rest.values():
        total += weight
    return 0.5 * total


@settings(max_examples=100, deadline=None)
@given(pair=overlapping_pairs())
def test_turnover_matches_a_plain_loop(pair):
    mu, eta = pair
    expected = reference_turnover(mu, eta)
    assert turnover(mu, eta) == expected
    assert diagnostics_report(mu, eta).turnover == expected
    # A vector's own transform shares its ids and takes the same-ids path.
    same = power_rebalance(mu, 0.5)
    assert turnover(mu, same) == reference_turnover(mu, same)


@settings(max_examples=100, deadline=None)
@given(w=simplex(), top=st.booleans(), where=st.floats(0.0, 1.0), data=st.data())
def test_solver_achieves_the_statistic_of_its_p_star(w, top, where, data):
    mu = WeightVector(make_ids(w.size), w)
    k = data.draw(st.integers(1, w.size)) if top else None
    kind = "top_k_sum" if top else "max_weight"
    probe = CalibrationTarget(kind, 0.5, k=k)
    floor = concentration_statistic(power_rebalance(mu, 0.0), probe)
    ceil = concentration_statistic(mu, probe)
    bound = floor + where * (ceil - floor)
    assume(0.0 < bound < 1.0)
    target = CalibrationTarget(kind, bound, k=k)
    try:
        result = solve_exponent(mu, target)
    except InfeasibleError:
        return
    eta = power_rebalance(mu, PowerRule(result.p_star))
    assert result.achieved == concentration_statistic(eta, target)
    assert result.achieved <= bound


# Both sides compute exp(p*q*log w_i) up to rounding. A rounding of
# relative size eps in an exponent x (a log, a product) moves exp(x) by a
# relative |x| * eps, and every exponent here is at most |log w_i| + log n,
# since each intermediate weight is at least w_i / n. With the few
# roundings of each exp and quotient, an entry carries at most
# 8 * eps * (1 + |log w_i| + log n) from the two sides together.
# Normalizing adds at most as much again, from the weighted mean of the
# other entries' errors; an error common to all entries, such as one in a
# sum, cancels. The test allows twice the total. Entries of at least 1e-100
# keep every intermediate weight normal; a subnormal one would lose its
# relative precision.
def composition_rtol(w: np.ndarray) -> float:
    logs = np.abs(np.log(w[w > 0.0]))
    return 32 * np.finfo(float).eps * (1.0 + float(logs.max()) + math.log(w.size))


@settings(max_examples=100, deadline=None)
@given(w=simplex(min_value=1e-100), p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
def test_chained_powers_compose_to_the_product(w, p, q):
    mu = WeightVector(make_ids(w.size), w)
    chained = power_rebalance(power_rebalance(mu, p), q)
    direct = power_rebalance(mu, p * q)
    zero = w == 0.0
    assert (chained.weights[zero] == 0.0).all() and (direct.weights[zero] == 0.0).all()
    np.testing.assert_allclose(
        chained.weights, direct.weights, rtol=composition_rtol(w), atol=0.0
    )
    assert len(find_order_violations(mu, chained)) == 0
