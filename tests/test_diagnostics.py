import math

import numpy as np
import pytest

from multiggm import (
    DataFormatError,
    PenaltyPair,
    PrecisionSet,
    check_between_group,
    check_irrepresentability,
    chain_precision,
    diagnostics_report,
    edge_set,
    graph_stats,
    rate_delta,
    restricted_hessian,
    star_precision,
)
from multiggm import diagnostics
from multiggm.diagnostics import between_group_sufficient, support_indices

from oracles import dense_alpha, dense_between_group_lhs, random_covariance_set

# Values pinned by the dense p^2 x p^2 Kronecker oracle (asserted below).
CHAIN5_ALPHA = 0.5399305555555556
CHAIN5_PAIR_LHS = 1.0616732382990832


class TestEdgeSet:
    def test_diagonal_matrix_empty(self):
        assert len(edge_set(np.diag([1.0, 2.0, 3.0]))) == 0

    def test_chain_support(self):
        es = edge_set(chain_precision(4, 0.2))
        assert es.pairs == {(0, 1), (1, 2), (2, 3)}

    def test_star_support_contains_hub(self):
        m, hub, spokes = star_precision(12, 4, 2.0, 0.3, hub_seed=5)
        es = edge_set(m)
        assert len(es) == 4
        assert all(hub in pair for pair in es.pairs)


class TestGraphStats:
    def test_identity(self):
        stats = graph_stats(np.eye(5))
        assert stats.max_degree == 0
        assert stats.edge_total == 0
        assert stats.omega_min is None
        assert stats.eigen_bounds == (1.0, 1.0)

    def test_chain_p50(self):
        stats = graph_stats(chain_precision(50, 0.2))
        assert stats.max_degree == 2
        assert stats.edge_total == 49
        assert stats.omega_min == pytest.approx(0.2)

    def test_star_p100_d25(self):
        m, _, _ = star_precision(100, 25, 2.0, 0.3, hub_seed=1)
        stats = graph_stats(m)
        assert stats.max_degree == 25
        assert stats.edge_total == 25

    def test_degree_sum_equals_twice_edges(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = int(rng.integers(2, 12))
            m = np.eye(p)
            for _ in range(int(rng.integers(0, p))):
                i, j = rng.integers(0, p, size=2)
                if i != j:
                    m[i, j] = m[j, i] = 0.1
            off = np.abs(m) > 1e-12
            np.fill_diagonal(off, False)
            stats = graph_stats(m)
            assert off.sum(axis=1).sum() == 2 * stats.edge_total


class TestRestrictedHessian:
    def test_identity_covariance(self):
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        out = restricted_hessian(np.eye(2), pairs)
        assert np.array_equal(out, np.eye(4))

    def test_single_pair_formula(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        out = restricted_hessian(sigma, [(0, 1)])
        assert out.shape == (1, 1)
        assert out[0, 0] == sigma[0, 0] * sigma[1, 1]

    def test_exact_match_with_dense_kron(self):
        rng = np.random.default_rng(44)
        for p in range(2, 7):
            for _ in range(20):
                sigma = random_covariance_set(rng, p, 1)[0]
                gamma = np.kron(sigma, sigma)
                pairs = [
                    (a, b)
                    for a in range(p)
                    for b in range(p)
                    if rng.random() < 0.6
                ] or [(0, 0)]
                sub = restricted_hessian(sigma, pairs)
                idx = [a * p + b for a, b in pairs]
                assert np.array_equal(sub, gamma[np.ix_(idx, idx)])

    def test_size_guard(self):
        with pytest.raises(DataFormatError):
            restricted_hessian(np.eye(200), [(0, 0)] * 20001)


class TestIrrepresentability:
    def test_identity_has_full_slack(self):
        assert check_irrepresentability(np.eye(6)) == pytest.approx(1.0)

    def test_scaled_identity_invariant(self):
        for c in (0.5, 1.0, 7.0):
            assert check_irrepresentability(c * np.eye(5)) == pytest.approx(1.0)

    def test_chain_p5_matches_dense_oracle(self):
        m = chain_precision(5, 0.2)
        alpha = check_irrepresentability(m)
        assert alpha == pytest.approx(dense_alpha(m), abs=1e-10)
        assert alpha == pytest.approx(CHAIN5_ALPHA, abs=1e-10)
        assert alpha > 0

    def test_star_matches_dense_oracle(self):
        m, _, _ = star_precision(10, 3, 2.0, 0.3, hub_seed=0)
        alpha = check_irrepresentability(m)
        assert alpha == pytest.approx(dense_alpha(m), abs=1e-10)
        assert alpha > 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        m = chain_precision(6, 0.25)
        perm = rng.permutation(6)
        pm = np.eye(6)[perm]
        assert check_irrepresentability(pm @ m @ pm.T) == pytest.approx(
            check_irrepresentability(m), abs=1e-10
        )

    def test_literal_offdiagonal_index_set(self):
        m = chain_precision(5, 0.2)
        alpha = check_irrepresentability(m, augment_diagonal=False)
        assert alpha == pytest.approx(dense_alpha(m, augment=False), abs=1e-10)


class TestBetweenGroup:
    def test_identity_single_population(self):
        prec = PrecisionSet([np.eye(4)], positive_definite=True)
        lhs, rhs, holds = check_between_group(prec, PenaltyPair(0.1, 0.1), 0.5, 1.0)
        assert lhs == 0.0
        assert holds == (rhs > 0)

    def test_chain_pair_matches_dense_oracle(self):
        mats = [chain_precision(5, 0.2), chain_precision(5, 0.35)]
        prec = PrecisionSet(mats, positive_definite=True)
        alpha = min(check_irrepresentability(m) for m in mats)
        lhs, rhs, holds = check_between_group(prec, PenaltyPair(0.1, 0.1), 0.5, alpha)
        assert lhs == pytest.approx(dense_between_group_lhs(mats), abs=1e-10)
        assert lhs == pytest.approx(CHAIN5_PAIR_LHS, abs=1e-10)
        assert holds == (lhs < rhs)

    def test_sufficiency_shortcut_implies_condition(self):
        # Whenever the scalar shortcut holds, the aggregate condition must
        # hold for any matrices satisfying the single-population condition.
        rng = np.random.default_rng(18)
        for _ in range(10):
            rho_val = float(rng.uniform(0.5, 3.0))
            pen = PenaltyPair(float(rng.uniform(0.0, 0.2)), rho_val)
            psi = float(rng.uniform(0.05, 0.3))
            mats = [chain_precision(4, 0.2), chain_precision(4, 0.2)]
            alpha = min(check_irrepresentability(m) for m in mats)
            if not between_group_sufficient(pen, psi, alpha, K=2):
                continue
            lhs, rhs, holds = check_between_group(
                PrecisionSet(mats, positive_definite=True), pen, psi, alpha
            )
            assert holds

    def test_differing_supports_rejected(self):
        m1 = chain_precision(4, 0.2)
        m2 = np.eye(4)
        prec = PrecisionSet([m1, m2], positive_definite=True)
        with pytest.raises(DataFormatError):
            check_between_group(prec, PenaltyPair(0.1, 0.1), 0.5, 0.5)


@pytest.mark.parametrize("entries", [1, 37, 2**19])
def test_complement_chunks_match_the_dense_oracle(monkeypatch, entries):
    # One complement pair per chunk, ragged chunks, and one chunk for all.
    monkeypatch.setattr(diagnostics, "COMPLEMENT_CHUNK_ENTRIES", entries)
    mats = [star_precision(10, 3, d, o, hub_seed=0)[0] for d, o in ((2.0, 0.3), (2.5, 0.45))]
    for m in mats:
        assert check_irrepresentability(m) == pytest.approx(dense_alpha(m), abs=1e-10)
    prec = PrecisionSet(mats, positive_definite=True)
    lhs, _, _ = check_between_group(prec, PenaltyPair(0.1, 0.1), 0.5, 0.5)
    assert lhs == pytest.approx(dense_between_group_lhs(mats), abs=1e-10)


class TestRateDelta:
    def test_vanishes_with_sample_size(self):
        small = rate_delta(10**12, 50, 2.5, 1.0, 1.0)
        assert small < 1e-3
        assert rate_delta(100, 50, 2.5, 1.0, 1.0) > small

    def test_scaling_identity(self):
        # Doubling both log(4 p^gamma) and n leaves delta unchanged:
        # log(4 p^(2 gamma + shift)) = 2 log(4 p^gamma) when 4 p^shift = (4)^2 ...
        # pick gamma2 so that log(4 p^gamma2) = 2 log(4 p^gamma1).
        p, gamma1, n = 50, 2.5, 600
        target = 2 * math.log(4 * p**gamma1)
        gamma2 = (target - math.log(4)) / math.log(p)
        d1 = rate_delta(n, p, gamma1, 1.0, 1.0)
        d2 = rate_delta(2 * n, p, gamma2, 1.0, 1.0)
        assert d2 == pytest.approx(d1, rel=1e-12)

    def test_pinned_arithmetic(self):
        # 8 (1 + 12) sqrt(2 log(4 * 50^2.5) / 600)
        expected = 104.0 * math.sqrt(2.0 * math.log(4.0 * 50**2.5) / 600.0)
        assert rate_delta(600, 50, 2.5, 1.0, 1.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(20.06450, abs=1e-4)

    def test_gamma_guard(self):
        with pytest.raises(DataFormatError):
            rate_delta(100, 50, 2.0, 1.0, 1.0)


class TestReport:
    def test_chain_pair_report_roundtrips_to_json(self):
        import json

        mats = [chain_precision(6, 0.2), chain_precision(6, 0.35)]
        prec = PrecisionSet(mats, positive_definite=True)
        report = diagnostics_report(
            prec, PenaltyPair(0.1, 0.1), psi=0.5, sample_sizes=(600, 700),
            eigen_bound_l=0.1,
        )
        obj = json.loads(report.to_json())
        assert obj["assumptions_hold"]["irrepresentability"]
        assert obj["assumptions_hold"]["bounded_eigenvalues"]
        assert obj["assumptions_hold"]["sample_size_ratio"]
        assert len(obj["populations"]) == 2
        assert obj["populations"][0]["max_degree"] == 2
        assert obj["sample_size_ratios"] == [1.0, 600 / 700]

    @pytest.mark.parametrize("sizes", [(0, 600), (-5, 600)])
    def test_nonpositive_sample_size_is_a_data_error(self, sizes):
        prec = PrecisionSet([chain_precision(4, 0.2)] * 2, positive_definite=True)
        with pytest.raises(DataFormatError, match="sample sizes must be positive"):
            diagnostics_report(prec, PenaltyPair(0.1, 0.1), sample_sizes=sizes)

    def test_support_indices_augmentation(self):
        es = edge_set(chain_precision(3, 0.2))
        assert support_indices(es, augment_diagonal=True) == [
            (0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1),
        ]
        assert support_indices(es, augment_diagonal=False) == [
            (0, 1), (1, 0), (1, 2), (2, 1),
        ]
