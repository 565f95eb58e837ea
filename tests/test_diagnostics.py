import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiggm import (
    DataFormatError,
    PenaltyPair,
    PrecisionSet,
    check_between_group,
    check_irrepresentability,
    chain_precision,
    diagnostics_report,
    edge_mask,
    graph_stats,
    rate_delta,
    restricted_hessian,
    star_precision,
)
from multiggm import diagnostics, experiments
from multiggm.core import EDGE_TOL
from multiggm.diagnostics import between_group_sufficient
from multiggm.selection import edge_count

from oracles import dense_alpha, dense_between_group_lhs, random_covariance_set

# Values pinned by the dense p^2 x p^2 Kronecker oracle (asserted below).
CHAIN5_ALPHA = 0.5399305555555556
CHAIN5_PAIR_LHS = 1.0616732382990832


def support_edges(precision):
    """The unordered edges (i < j) in the diagnostics support of ``precision``."""
    return {(i, j) for i, j in diagnostics._population(precision).support.tolist() if i < j}


class TestEdgeSet:
    def test_diagonal_matrix_empty(self):
        m = np.diag([1.0, 2.0, 3.0])
        assert not edge_mask(m).any()
        assert support_edges(m) == set()

    def test_chain_support(self):
        assert support_edges(chain_precision(4, 0.2)) == {(0, 1), (1, 2), (2, 3)}

    def test_star_support_contains_hub(self):
        m, hub, spokes = star_precision(12, 4, 2.0, 0.3, hub_seed=5)
        edges = support_edges(m)
        assert len(edges) == int(edge_mask(m).sum()) == 4
        assert all(hub in pair for pair in edges)


# Entries on both sides of EDGE_TOL: it is not an edge, the next double up is.
STRADDLING = (0.0, EDGE_TOL, -EDGE_TOL, float(np.nextafter(EDGE_TOL, 1.0)),
              -float(np.nextafter(EDGE_TOL, 1.0)), 0.3, -0.3)


@st.composite
def straddling_precisions(draw):
    """Symmetric matrices with off-diagonal entries from ``STRADDLING`` and a
    diagonal that makes them strictly diagonally dominant, hence PD."""
    p = draw(st.integers(1, 6))
    m = np.eye(p) * (0.3 * p + 1.0)
    for i in range(p):
        for j in range(i + 1, p):
            m[i, j] = m[j, i] = draw(st.sampled_from(STRADDLING))
    return m


@settings(max_examples=80, deadline=None)
@given(straddling_precisions())
def test_one_edge_rule_across_the_package(m):
    p = m.shape[0]
    edges = [(i, j) for i in range(p) for j in range(i + 1, p) if abs(m[i, j]) > EDGE_TOL]
    assert edge_count(m) == len(edges)
    assert np.count_nonzero(experiments._signed_pattern(m)) == len(edges)
    stats = graph_stats(m)
    assert stats.edge_total == len(edges)
    assert stats.max_degree == max(sum(k in e for e in edges) for k in range(p))
    # Diagonal first, then both orientations of each edge, row-major.
    expected = [[k, k] for k in range(p)] + [
        pair for i, j in edges for pair in ([i, j], [j, i])
    ]
    assert diagnostics._population(m).support.tolist() == expected


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

    def test_differing_supports_leave_lhs_undefined(self):
        prec = PrecisionSet([chain_precision(4, 0.2), np.eye(4)], positive_definite=True)
        lhs, rhs, holds = check_between_group(prec, PenaltyPair(0.1, 0.1), 0.5, 0.5)
        assert math.isnan(lhs)
        assert rhs == pytest.approx((1.0 - 0.5 * math.sqrt(2) / 4) / (1 + 0.5 / 4))
        assert holds is False

    @pytest.mark.parametrize("penalty, psi, alpha", [
        (PenaltyPair(0.1, 0.1), 1.5, 0.5),
        (PenaltyPair(0.1, 0.1), 0.0, 0.5),
        (PenaltyPair(0.0, 0.0), 0.5, 0.5),
        (PenaltyPair(0.1, 0.1), 0.5, 0.0),
    ])
    def test_bad_settings_raise(self, penalty, psi, alpha):
        prec = PrecisionSet([chain_precision(4, 0.2)] * 2, positive_definite=True)
        with pytest.raises(DataFormatError):
            check_between_group(prec, penalty, psi, alpha)


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
        mats = [chain_precision(6, 0.2), chain_precision(6, 0.35)]
        prec = PrecisionSet(mats, positive_definite=True)
        report = diagnostics_report(
            prec, PenaltyPair(0.1, 0.1), psi=0.5, sample_sizes=(600, 700),
            eigen_bound_l=0.1,
        )
        obj = json.loads(json.dumps(report.to_jsonable()))
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

    @pytest.mark.parametrize("psi, lam_rho, sizes, gamma", [
        (1.5, (0.1, 0.1), None, 2.5),
        (0.0, (0.1, 0.1), None, 2.5),
        (0.5, (0.0, 0.0), None, 2.5),
        (0.5, (0.1, 0.1), (600, 600), 2.0),
    ])
    def test_bad_settings_raise_before_any_factorization(
        self, monkeypatch, psi, lam_rho, sizes, gamma
    ):
        def no_factorization(precision):
            raise AssertionError("factorized before the settings were checked")

        monkeypatch.setattr(diagnostics, "_population", no_factorization)
        prec = PrecisionSet([chain_precision(4, 0.2)] * 2, positive_definite=True)
        with pytest.raises(DataFormatError):
            diagnostics_report(prec, PenaltyPair(*lam_rho), psi=psi,
                               sample_sizes=sizes, gamma=gamma)

    def test_differing_supports_fail_with_lhs_nan_and_rhs_reported(self):
        prec = PrecisionSet([chain_precision(4, 0.2), np.eye(4)], positive_definite=True)
        report = diagnostics_report(prec, PenaltyPair(0.1, 0.1), psi=0.5)
        assert math.isnan(report.between_group_lhs)
        assert math.isfinite(report.between_group_rhs)
        assert report.assumptions_hold["between_group"] is False

    def test_support_indices_augmentation(self):
        # The support always holds the diagonal, ahead of the edges.
        support = diagnostics._population(chain_precision(3, 0.2)).support
        assert support.tolist() == [
            [0, 0], [1, 1], [2, 2], [0, 1], [1, 0], [1, 2], [2, 1],
        ]
