import copy
import pickle
import time

import numpy as np
import pytest

from powerindex import (
    CapRule,
    DiagnosticsReport,
    LinearizedPowerRule,
    OrderViolation,
    PowerRule,
    RebalanceError,
    cap_rebalance,
    compare_methods,
    concentration_metrics,
    diagnostics_report,
    find_order_violations,
    normalize,
    power_rebalance,
    top_k_sum,
    turnover,
    WeightVector,
)

from helpers import make_ids, random_simplex, whole, wv

CAP1_MU = [0.20, 0.19, 0.18, 0.05] + [0.038] * 10
CAP2_MU = [0.046] + [0.018] * 53


def brute_force_violations(mu, eta):
    """Independent oracle: plain double loop over unordered pairs, giving
    (id_low, id_high) in loop order."""
    after = eta.as_dict()
    pairs = []
    items = mu.entries
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            (id_a, mu_a), (id_b, mu_b) = items[a], items[b]
            if mu_a == mu_b:
                continue
            (id_lo, mu_lo), (id_hi, mu_hi) = (
                ((id_a, mu_a), (id_b, mu_b))
                if mu_a < mu_b
                else ((id_b, mu_b), (id_a, mu_a))
            )
            if after[id_lo] > after[id_hi]:
                pairs.append((id_lo, id_hi))
    return pairs


def pair_ids(violations):
    return [(v.identifier_low, v.identifier_high) for v in violations]


class TestFindOrderViolations:
    def test_power_rebalance_is_clean(self):
        mu = wv([0.7, 0.3])
        assert find_order_violations(mu, power_rebalance(mu, 0.5)) == []

    def test_identity_is_clean(self):
        mu = wv([0.4, 0.35, 0.25])
        assert find_order_violations(mu, mu) == []

    def test_cap_instance_flags_the_flipped_pairs(self):
        mu = wv(CAP1_MU)
        violations = find_order_violations(mu, cap_rebalance(mu))
        # The 0.05 name flipped below each of the ten 0.038 names.
        assert len(violations) == 10
        flipped = {(v.identifier_low, v.identifier_high) for v in violations}
        assert all(high == "C003" for _, high in flipped)
        sample = violations[0]
        assert sample.mu_low == pytest.approx(0.038, abs=1e-15)
        assert sample.mu_high == pytest.approx(0.05, abs=1e-15)
        assert sample.eta_low == pytest.approx(0.06, abs=1e-12)
        assert sample.eta_high == pytest.approx(0.05 * 0.40 / 0.62, abs=1e-12)

    def test_matches_brute_force_on_noisy_pairs(self):
        rng = np.random.default_rng(71)
        for case in range(25):
            n = int(rng.integers(3, 401))
            if case % 2:
                mu_w = random_simplex(rng, n, ties=True)
                eta_w = normalize(np.abs(mu_w + rng.normal(0.0, 0.02, size=n)))
            else:
                # Small integer levels: many ties and zeros, before and after.
                levels = rng.integers(0, 12, size=n).astype(float)
                levels[0] += 1.0
                moved = np.floor(levels * rng.uniform(0.5, 1.5, size=n))
                moved[0] += 1.0
                mu_w, eta_w = normalize(levels), normalize(moved)
            mu, eta = wv(mu_w), wv(eta_w)
            expected = brute_force_violations(mu, eta)
            violations = find_order_violations(mu, eta)
            assert len(violations) == len(expected)
            assert pair_ids(violations) == expected
            assert pair_ids(violations[:20]) == expected[:20]

    def test_exact_count_at_scale(self):
        n = 20_000
        rng = np.random.default_rng(107)
        mu = wv(normalize(1.0 + 1e-3 * rng.random(n)))
        eta = cap_rebalance(mu, CapRule(threshold=1.0 / n, target_aggregate=0.3))
        started = time.perf_counter()
        report = diagnostics_report(mu, eta)
        head = report.order_violations[:20]
        elapsed = time.perf_counter() - started

        m, e = mu.weights, eta.weights
        count = 0
        for lo in range(0, n, 1000):
            rows = slice(lo, lo + 1000)
            count += int(
                np.count_nonzero((m[rows, None] < m) & (e[rows, None] > e))
            )
        first = []
        for a in range(n):
            later_m, later_e = m[a + 1 :], e[a + 1 :]
            flipped = ((later_m > m[a]) & (later_e < e[a])) | (
                (later_m < m[a]) & (later_e > e[a])
            )
            for b in (np.flatnonzero(flipped) + a + 1).tolist():
                first.append((a, b) if m[a] < m[b] else (b, a))
            if len(first) >= 20:
                break
        ids = mu.identifiers
        assert count > 9e7
        assert len(report.order_violations) == count
        assert pair_ids(head) == [(ids[lo], ids[hi]) for lo, hi in first[:20]]
        assert elapsed < 5.0, f"report took {elapsed:.1f}s"

    def test_alignment_is_by_identifier_not_position(self):
        mu = wv([0.7, 0.3], ids=("A", "B"))
        eta = wv([0.4, 0.6], ids=("B", "A"))
        assert find_order_violations(mu, eta) == []

    def test_tied_weights_are_never_violations(self):
        mu = wv([0.4, 0.3, 0.3])
        eta = wv([0.4, 0.29, 0.31])
        assert find_order_violations(mu, eta) == []

    def test_identifier_mismatch(self):
        message = "weight vectors cover different identifiers: ['B', 'C']"
        with pytest.raises(RebalanceError, match=whole(message)):
            find_order_violations(
                wv([0.6, 0.4], ids=("A", "B")), wv([0.6, 0.4], ids=("A", "C"))
            )

    def test_violation_invariant_enforced(self):
        with pytest.raises(ValueError):
            OrderViolation("a", "b", mu_low=0.5, mu_high=0.4, eta_low=0.5, eta_high=0.4)


class TestTurnover:
    def test_zero_for_identity(self):
        mu = wv([0.7, 0.3])
        assert turnover(mu, mu) == 0.0

    def test_total_replacement(self):
        assert turnover(wv([1.0, 0.0]), wv([0.0, 1.0])) == pytest.approx(1.0, abs=0)

    def test_two_stock_power_half(self):
        mu = wv([0.7, 0.3])
        t = turnover(mu, power_rebalance(mu, 0.5))
        assert t == pytest.approx(0.09564392373895994, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(73)
        a = wv(random_simplex(rng, 30))
        b = wv(random_simplex(rng, 30))
        assert turnover(a, b) == turnover(b, a)

    def test_union_alignment_counts_full_weight(self):
        before = wv([0.6, 0.4], ids=("A", "B"))
        after = wv([0.6, 0.4], ids=("A", "C"))
        assert turnover(before, after) == pytest.approx(0.4, abs=1e-15)

    def test_bounds_and_triangle_inequality(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            x = wv(random_simplex(rng, n))
            y = wv(random_simplex(rng, n))
            z = wv(random_simplex(rng, n))
            txy, tyz, txz = turnover(x, y), turnover(y, z), turnover(x, z)
            for t in (txy, tyz, txz):
                assert 0.0 <= t <= 1.0
            assert txz <= txy + tyz + 1e-12

    def test_nonincreasing_in_p_and_zero_at_one(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            mu = wv(random_simplex(rng, int(rng.integers(3, 80))))
            values = [
                turnover(mu, power_rebalance(mu, p))
                for p in np.linspace(0.0, 1.0, 21)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] <= 1e-15


class TestConcentrationMetrics:
    def test_equal_weights_hhi(self):
        for n in (2, 10, 100):
            metrics = concentration_metrics(wv([1.0 / n] * n))
            assert metrics.hhi == pytest.approx(1.0 / n, abs=1e-12)

    def test_single_stock_corner(self):
        metrics = concentration_metrics(wv([1.0, 0.0, 0.0]))
        assert metrics.hhi == pytest.approx(1.0, abs=0)
        assert metrics.diversity == pytest.approx(1.0, abs=1e-12)

    def test_two_stock_diversity(self):
        metrics = concentration_metrics(wv([0.7, 0.3]))
        assert metrics.diversity == pytest.approx(1.9165151389911679, abs=1e-12)

    def test_top_k_clamps_to_n(self):
        metrics = concentration_metrics(wv([0.5, 0.3, 0.2]))
        assert metrics.top_k_sums[10] == pytest.approx(1.0, abs=1e-12)
        assert metrics.top_k_sums[1] == pytest.approx(0.5, abs=1e-15)

    def test_diversity_at_least_one(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            metrics = concentration_metrics(
                wv(random_simplex(rng, int(rng.integers(2, 100))))
            )
            assert metrics.diversity >= 1.0

    def test_top_k_sums_add_the_sorted_tail(self):
        rng = np.random.default_rng(103)
        for case in range(40):
            n = int(rng.integers(2, 300))
            w = random_simplex(rng, n, zeros=case % 2 == 0, ties=case % 3 == 0)
            ks = sorted({1, 5, 6, 10, n // 2, n - 1, n, n + 3} - {0})
            metrics = concentration_metrics(wv(w))
            for k in ks:
                expected = w.sum() if k >= n else np.sort(w)[-k:].sum()
                assert top_k_sum(w, k) == float(expected)
                if k in metrics.top_k_sums:
                    assert metrics.top_k_sums[k] == float(expected)

    def test_memo_holds_one_value(self):
        w = random_simplex(np.random.default_rng(107), 30, ties=True)
        mu = wv(w)
        first = concentration_metrics(mu)
        assert concentration_metrics(mu) is first
        assert vars(mu)["_metrics"] is first
        # A fresh vector with the same weights computes the same value.
        assert concentration_metrics(wv(w)) == first
        # Transform outputs are built without __init__ and memoize too.
        eta = power_rebalance(mu, 0.5)
        assert concentration_metrics(eta) is concentration_metrics(eta)

    def test_memo_leaves_eq_repr_and_pickle(self):
        mu = wv(CAP1_MU)
        twin, text = copy.copy(mu), repr(mu)
        plain = [pickle.dumps(mu, protocol=p) for p in range(6)]
        metrics = concentration_metrics(mu)
        assert mu == twin and twin == mu
        assert repr(mu) == text
        assert [pickle.dumps(mu, protocol=p) for p in range(6)] == plain
        back = pickle.loads(plain[-1])
        assert back.identifiers == mu.identifiers
        assert back.weights.tobytes() == mu.weights.tobytes()
        assert concentration_metrics(back) == metrics

    def test_rejects_nonpositive_k(self):
        w = np.array([0.7, 0.3])
        for k in (0, -1):
            message = f"k must be a positive integer, got {k}"
            with pytest.raises(ValueError, match=whole(message)):
                top_k_sum(w, k)
        assert top_k_sum(w, 1) == 0.7

    def test_hhi_weakly_decreases_under_power(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            mu = wv(random_simplex(rng, int(rng.integers(2, 100))))
            before = concentration_metrics(mu).hhi
            for p in (0.0, 0.3, 0.7, 0.95):
                after = concentration_metrics(power_rebalance(mu, p)).hhi
                assert after <= before + 1e-12

    def test_diversity_nondecreasing_under_power(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            mu = wv(random_simplex(rng, int(rng.integers(2, 100))))
            before = concentration_metrics(mu).diversity
            for p in (0.0, 0.3, 0.7, 0.95):
                after = concentration_metrics(power_rebalance(mu, p)).diversity
                assert after >= before - 1e-12


class TestDiagnosticsReport:
    def test_power_report_is_clean(self):
        mu = wv([0.7, 0.3])
        report = diagnostics_report(mu, power_rebalance(mu, 0.5))
        assert report.order_violations == []
        assert not report.max_increased
        assert not report.has_pathology
        assert report.max_before == pytest.approx(0.7, abs=0)
        assert report.max_after == pytest.approx(0.60435607626104, abs=1e-12)

    def test_cap_instance_two_reports_max_increase(self):
        mu = wv(CAP2_MU)
        report = diagnostics_report(mu, cap_rebalance(mu))
        assert report.max_increased
        assert report.has_pathology
        assert report.max_before == pytest.approx(0.046, abs=1e-15)
        assert report.max_after == pytest.approx(0.40, abs=1e-12)

    def test_max_increase_tolerance_boundary(self):
        mu = wv([0.5, 0.5])
        eta_above = wv([0.5 + 2e-12, 0.5 - 2e-12])
        eta_within = wv([0.5 + 5e-13, 0.5 - 5e-13])
        assert diagnostics_report(mu, eta_above).max_increased
        assert not diagnostics_report(mu, eta_within).max_increased

    def test_max_is_the_largest_weight(self):
        # The report reads the max from its top-1 sums; with zeros, ties
        # and a single name it is still w.max() bit for bit.
        rng = np.random.default_rng(113)
        cases = [np.array([1.0]), np.array([0.5, 0.5]), np.array([0.0, 1.0, 0.0])]
        for case in range(60):
            n = int(rng.integers(2, 300))
            cases.append(random_simplex(rng, n, zeros=case % 2 == 0, ties=True))
        for w in cases:
            mu = wv(w)
            for eta in (power_rebalance(mu, 0.0), power_rebalance(mu, 0.3), mu):
                report = diagnostics_report(mu, eta)
                assert report.max_before == float(w.max())
                assert report.max_after == float(eta.weights.max())

    def test_top_k_pairs(self):
        mu = wv(CAP1_MU)
        report = diagnostics_report(mu, cap_rebalance(mu))
        assert set(report.top_k_sums) == {1, 5, 6, 10}
        before_top1, after_top1 = report.top_k_sums[1]
        assert before_top1 == pytest.approx(0.20, abs=1e-15)
        assert after_top1 == pytest.approx(0.20 * 0.40 / 0.62, abs=1e-12)

    def test_permuted_eta_gives_the_same_report(self):
        # Same ids in the same order take the path without alignment; a
        # permuted eta takes the general one. Only the sums over eta's
        # own order (HHI, diversity) may round differently.
        rng = np.random.default_rng(109)
        caps = rng.pareto(1.2, 300)
        cases = (
            (CAP1_MU + [0.0] * 3, CapRule(), 10),
            (caps / caps.sum(), CapRule(0.01, 0.3), 401),
        )
        for mu_w, rule, count in cases:
            mu = wv(mu_w)
            eta = cap_rebalance(mu, rule)
            perm = rng.permutation(mu.n)
            shuffled = WeightVector(
                tuple(eta.identifiers[i] for i in perm), eta.weights[perm]
            )
            same = diagnostics_report(mu, eta)
            other = diagnostics_report(mu, shuffled)
            assert len(same.order_violations) == count
            assert list(same.order_violations) == list(other.order_violations)
            for name in DiagnosticsReport._fields:
                a, b = getattr(same, name), getattr(other, name)
                if name in ("hhi_after", "diversity_after"):
                    assert a == pytest.approx(b, rel=1e-15, abs=0)
                elif name != "order_violations":
                    assert a == b, name

    def test_report_across_different_universes(self):
        before = wv([0.6, 0.4], ids=("A", "B"))
        after = wv([0.2, 0.8], ids=("A", "C"))
        report = diagnostics_report(before, after)
        assert report.order_violations == []
        assert report.turnover == pytest.approx(0.5 * (0.4 + 0.4 + 0.8), abs=1e-15)
        assert report.max_increased


def paired_vectors(kind, seed):
    """mu and eta over the same ids, the same ids permuted, or partly
    overlapping ids: 25 shared, 15 only in mu and 15 only in eta."""
    rng = np.random.default_rng(seed)
    mu_ids = eta_ids = make_ids(40)
    if kind == "overlapping":
        eta_ids = make_ids(55)[15:]
    mu = wv(random_simplex(rng, len(mu_ids), zeros=True, ties=True), mu_ids)
    eta_w = random_simplex(rng, len(eta_ids), ties=True)
    if kind == "same":
        return mu, wv(eta_w, eta_ids)
    mu_order, eta_order = rng.permutation(mu.n), rng.permutation(eta_w.size)
    return (
        WeightVector([mu_ids[i] for i in mu_order], mu.weights[mu_order]),
        wv(eta_w[eta_order], [eta_ids[i] for i in eta_order]),
    )


@pytest.mark.parametrize("kind", ["same", "permuted", "overlapping"])
@pytest.mark.parametrize("seed", range(4))
def test_pairing_matches_a_loop_over_the_identifiers(kind, seed):
    mu, eta = paired_vectors(kind, seed)
    before, after = mu.as_dict(), eta.as_dict()
    moves = [abs(after.get(ident, 0.0) - w) for ident, w in mu.entries]
    moves += [w for ident, w in eta.entries if ident not in before]
    total = 0.0
    for move in moves:  # a plain loop: builtin sum compensates from 3.12 on
        total += move
    expected = 0.5 * total
    report = diagnostics_report(mu, eta)
    assert turnover(mu, eta) == expected
    assert report.turnover == expected

    # Scaling the common ids' weights to one moves no tie or order.
    common = [ident for ident in mu.identifiers if ident in after]
    sub_mu, sub_eta = (
        WeightVector(common, normalize([v[i] for i in common])) for v in (before, after)
    )
    violations = [
        OrderViolation(lo, hi, before[lo], before[hi], after[lo], after[hi])
        for lo, hi in pair_ids(find_order_violations(sub_mu, sub_eta))
    ]
    assert len(violations) > 0
    assert list(report.order_violations) == violations
    if kind != "overlapping":
        assert list(find_order_violations(mu, eta)) == violations


class TestCompareMethods:
    def test_two_stock_both_exponents(self):
        mu = wv([0.7, 0.3])
        results = compare_methods(mu, [PowerRule(0.5), PowerRule(0.75)])
        assert len(results) == 2
        (rule_a, rep_a), (rule_b, rep_b) = results
        assert rule_a.p == 0.5 and rule_b.p == 0.75
        assert rep_a.max_after == pytest.approx(0.60, abs=0.005)
        assert rep_b.max_after == pytest.approx(0.65, abs=0.005)
        assert rep_a.order_violations == []
        assert rep_b.order_violations == []

    def test_cap_pathology_instance(self):
        results = compare_methods(wv(CAP2_MU), [CapRule()])
        _, report = results[0]
        assert report.max_increased

    def test_empty_rule_list(self):
        assert compare_methods(wv([0.7, 0.3]), []) == []

    def test_error_carries_rule_position(self):
        mu = wv([0.5, 0.5])
        rules = [PowerRule(0.5), CapRule()]
        message = (
            "rule 1 (CapRule): weights above threshold sum to 1.0; no positive "
            "complement is left to absorb the redistributed mass"
        )
        with pytest.raises(RebalanceError, match=whole(message)):
            compare_methods(mu, rules)

    def test_order_matches_input(self):
        mu = wv([0.7, 0.3])
        rules = [PowerRule(0.9), LinearizedPowerRule(0.5, 0.05), PowerRule(0.1)]
        results = compare_methods(mu, rules)
        assert [r for r, _ in results] == rules
