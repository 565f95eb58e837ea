import os
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiggm import (
    CovarianceSet,
    DataFormatError,
    NotPositiveDefiniteError,
    PenaltyPair,
    PrecisionSet,
    SolverOptions,
    derive_seed,
    draw_mvn_dataset,
    ggl_objective,
    invert_pd,
    kkt_residual,
    penalty_scale,
    prox_sparse_group,
    sample_covariance,
    solve_ggl,
    two_population_chain_spec,
)
from multiggm import solver
from multiggm.graphs import chain_precision

from oracles import (
    kkt_oracle,
    prox_grid_search,
    prox_inclusion_violation,
    prox_objective,
    pg_solve,
    random_covariance_set,
    relaxed_admm,
    stationarity_stack_oracle,
)


class TestProx:
    def test_zero_vector_stays_zero(self):
        assert np.array_equal(prox_sparse_group(np.zeros(2), 0.5, 0.5), np.zeros(2))

    def test_zero_thresholds_identity(self):
        v = np.array([0.3, -1.2, 0.0])
        assert np.array_equal(prox_sparse_group(v, 0.0, 0.0), v)

    def test_pinned_example_against_grid_oracle(self):
        # soft((1, -0.5), 0.2) = (0.8, -0.3); group scale 1 - 0.3/||.||.
        out = prox_sparse_group(np.array([1.0, -0.5]), 0.2, 0.3)
        assert out == pytest.approx([0.51911, -0.19466], abs=1e-4)
        oracle = prox_grid_search([1.0, -0.5], 0.2, 0.3)
        assert np.max(np.abs(out - oracle)) <= 1e-4

    def test_group_kill_when_norm_below_rho(self):
        out = prox_sparse_group(np.array([0.3, -0.2]), 0.1, 1.0)
        assert np.array_equal(out, np.zeros(2))

    def test_subgradient_inclusion_and_perturbation_optimality(self):
        rng = np.random.default_rng(314)
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            v = rng.standard_normal(k) * rng.uniform(0.1, 3.0)
            lam = float(rng.uniform(0, 1.5))
            rho = float(rng.uniform(0, 1.5))
            x = prox_sparse_group(v, lam, rho)
            assert prox_inclusion_violation(x, v, lam, rho) <= 1e-8
            # group-null consistency, both directions
            soft_norm = np.linalg.norm(np.sign(v) * np.maximum(np.abs(v) - lam, 0.0))
            if np.all(x == 0.0):
                assert soft_norm <= rho + 1e-12
            else:
                assert soft_norm > rho - 1e-12
        # beats random perturbations on the prox objective
        v = rng.standard_normal(3)
        x = prox_sparse_group(v, 0.4, 0.3)
        fx = prox_objective(x, v, 0.4, 0.3)
        for _ in range(1000):
            pert = x + rng.standard_normal(3) * rng.uniform(1e-6, 0.3)
            assert fx <= prox_objective(pert, v, 0.4, 0.3) + 1e-12


class TestSolveTrivial:
    def test_unpenalized_diagonal_mle(self):
        covs = CovarianceSet([np.diag([2.0, 0.5, 1.25])], [30])
        report = solve_ggl(covs, PenaltyPair(0.0, 0.0))
        assert report.converged
        assert np.max(np.abs(report.estimate.matrices[0] - np.diag([0.5, 2.0, 0.8]))) <= 1e-6

    def test_identity_fixed_point(self):
        covs = CovarianceSet([np.eye(4), np.eye(4)], [10, 12])
        for lam, rho in [(0.0, 0.0), (0.3, 0.0), (0.0, 0.4), (0.5, 0.7)]:
            report = solve_ggl(covs, PenaltyPair(lam, rho))
            assert report.converged
            for m in report.estimate.matrices:
                assert np.max(np.abs(m - np.eye(4))) <= 1e-8

    def test_zero_diagonal_is_hard_error(self):
        covs = CovarianceSet([np.diag([1.0, 0.0])], [10])
        with pytest.raises(DataFormatError):
            solve_ggl(covs, PenaltyPair(0.1, 0.1))

    @pytest.mark.parametrize("lam, rho", [
        (np.nan, 0.1), (0.1, np.nan), (np.inf, 0.1), (0.1, -np.inf), (-0.1, 0.1), (0.0, -1e-300),
    ])
    def test_penalty_must_be_finite_and_nonnegative(self, lam, rho):
        with pytest.raises(DataFormatError, match="finite and nonnegative"):
            PenaltyPair(lam, rho)

    def test_nonconvergence_returns_best_iterate(self):
        rng = np.random.default_rng(5)
        covs = CovarianceSet(random_covariance_set(rng, 6, 2), [40, 40])
        report = solve_ggl(covs, PenaltyPair(0.1, 0.1), SolverOptions(max_iter=2))
        assert not report.converged
        assert report.iterations == 2
        assert report.estimate.positive_definite


class TestSolveAgainstOracle:
    def test_pinned_seeded_instance(self):
        # p=3, K=2 seeded instance at lam=rho=0.1; oracle is proximal gradient
        # with step 1e-3 run to objective stall.
        rng = np.random.default_rng(42)
        mats = random_covariance_set(rng, 3, 2)
        covs = CovarianceSet(mats, [40, 40])
        pen = PenaltyPair(0.1, 0.1)
        report = solve_ggl(covs, pen, SolverOptions(tol_abs=1e-9))
        oracle, _ = pg_solve(mats, 0.1, 0.1, step=1e-3, stall=1e-12)
        for est, ref in zip(report.estimate.matrices, oracle):
            assert np.max(np.abs(est - ref)) <= 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_small_instances_match_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(2, 5))
        k = int(rng.integers(1, 3))
        lam = float(rng.choice([0.0, 0.05, 0.2]))
        rho = float(rng.choice([0.0, 0.05, 0.2]))
        mats = random_covariance_set(rng, p, k)
        covs = CovarianceSet(mats, [50] * k)
        report = solve_ggl(covs, PenaltyPair(lam, rho), SolverOptions(tol_abs=1e-9))
        oracle, _ = pg_solve(mats, lam, rho, adaptive=True, stall=1e-13)
        for est, ref in zip(report.estimate.matrices, oracle):
            assert np.max(np.abs(est - ref)) <= 1e-4
        assert abs(
            ggl_objective(oracle, covs, PenaltyPair(lam, rho)) - report.objective
        ) <= 1e-8


class TestKktResidual:
    def test_mle_is_stationary_without_penalty(self):
        rng = np.random.default_rng(21)
        mats = random_covariance_set(rng, 5, 1)
        covs = CovarianceSet(mats, [50])
        est = PrecisionSet([invert_pd(mats[0])], positive_definite=True)
        assert kkt_residual(est, covs, PenaltyPair(0.0, 0.0)) <= 1e-10

    def test_identity_is_stationary_for_any_penalty(self):
        covs = CovarianceSet([np.eye(3), np.eye(3)], [10, 10])
        est = PrecisionSet([np.eye(3), np.eye(3)], positive_definite=True)
        for lam, rho in [(0.0, 0.0), (0.2, 0.0), (0.0, 0.2), (0.5, 0.5)]:
            assert kkt_residual(est, covs, PenaltyPair(lam, rho)) == 0.0

    def test_solver_output_certified_on_random_instances(self):
        rng = np.random.default_rng(77)
        opts = SolverOptions()
        for _ in range(10):
            p = int(rng.integers(3, 12))
            k = int(rng.integers(1, 4))
            covs = CovarianceSet(random_covariance_set(rng, p, k), [60] * k)
            lam = float(rng.uniform(0.0, 0.3))
            rho = float(rng.uniform(0.0, 0.3))
            report = solve_ggl(covs, PenaltyPair(lam, rho), opts)
            assert report.converged
            assert report.kkt_violation <= 10 * opts.tol_abs

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 12), st.booleans())
    def test_matches_cho_solve_oracle(self, seed, K, p, definite):
        # Sparse symmetric estimates whose smallest eigenvalue is at least
        # 0.05 away from zero: PD, or indefinite in one population.
        rng = np.random.default_rng(seed)
        covs = random_covariance_set(rng, p, K)
        mask = rng.uniform(size=(p, p)) < 0.5
        mats = []
        for k in range(K):
            a = rng.standard_normal((p, p)) * (mask | mask.T)
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            shift = rng.uniform(0.05, 2.0)
            if definite or k < K - 1:
                mats.append(a + (shift - np.linalg.eigvalsh(a)[0]) * np.eye(p))
            else:
                mats.append(a - (shift + np.linalg.eigvalsh(a)[-1]) * np.eye(p))
        lam, rho = rng.uniform(0.0, 1.0, size=2)
        got = solver._stationarity_violation(np.stack(mats), covs, lam, rho)
        want = kkt_oracle(mats, covs, lam, rho)
        if not definite:
            assert got == want == np.inf
            with pytest.raises(NotPositiveDefiniteError):
                kkt_residual(PrecisionSet(mats), CovarianceSet(covs, [50] * K),
                             PenaltyPair(lam, rho))
        else:
            assert abs(got - want) <= 1e-12 * want

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 12),
           st.sampled_from(["dense", "sparse", "diagonal"]), st.booleans(), st.booleans(),
           st.sampled_from([1, 4, 7, solver._GROUP_CHUNK]))
    # A chunk holding one group at K = 3 (a two-vertex block), where numpy's
    # einsum and add.reduce sum the three squares in different orders.
    @example(445, 3, 2, "dense", True, True, 1)
    def test_bit_identical_to_the_batched_formula(
        self, seed, K, p, support, definite, lasso, chunk
    ):
        rng = np.random.default_rng(seed)
        covs = np.stack(random_covariance_set(rng, p, K))
        mask = {"dense": np.ones((p, p), dtype=bool),
                "sparse": rng.uniform(size=(p, p)) < 0.3,
                "diagonal": np.zeros((p, p), dtype=bool)}[support]
        mats = []
        for k in range(K):
            a = rng.standard_normal((p, p)) * (mask | mask.T)
            if support != "dense":  # some coordinates of an active group at zero
                a *= rng.uniform(size=(p, p)) < 0.7
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            low, high = np.linalg.eigvalsh(a)[[0, -1]]
            shift = rng.uniform(0.05, 2.0)
            pd = definite or k < K - 1
            mats.append(a + ((shift - low) if pd else -(shift + high)) * np.eye(p))
        omegas = np.stack(mats)
        lam = float(rng.uniform(0.0, 1.0)) if lasso else 0.0
        rho = float(rng.uniform(0.0, 1.0))
        want = stationarity_stack_oracle(omegas, covs, lam, rho, np.ones(K))
        # Small chunks split the groups of these small problems over passes.
        with mock.patch.object(solver, "_GROUP_CHUNK", chunk):
            assert solver._stationarity_violation(omegas, covs, lam, rho) == want
            assert solver._stationarity_violation(mats, list(covs), lam, rho) == want
        assert (want == np.inf) == (not definite)

    def test_bit_identical_to_the_batched_formula_at_solver_estimates(self):
        # Estimates of e-BIC cells on a p=100 chain draw, and the unconverged
        # iterates after 3 iterations: sparse, PD, some groups half zero.
        covs = sample_covariance(draw_mvn_dataset(two_population_chain_spec().build(100),
                                                  (600, 600), 5))
        s = np.stack(covs.matrices)
        w = np.ones(2)
        scale = penalty_scale(100, 600)
        for c1, c2 in [(0.25, 0.5), (0.5, 1.0), (1.0, 0.25)]:
            pen = PenaltyPair(c1 * scale, c2 * scale)
            for opts in (SolverOptions(), SolverOptions(max_iter=3)):
                omegas = np.stack(solve_ggl(covs, pen, opts).estimate.matrices)
                want = stationarity_stack_oracle(omegas, s, pen.lam, pen.rho, w)
                assert kkt_residual(PrecisionSet(list(omegas)), covs, pen) == want


class TestSolverProperties:
    def test_objective_never_worse_than_initialization(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            p = int(rng.integers(2, 10))
            k = int(rng.integers(1, 3))
            mats = random_covariance_set(rng, p, k)
            covs = CovarianceSet(mats, [50] * k)
            pen = PenaltyPair(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.4)))
            init = [np.diag(1.0 / np.diag(s)) for s in mats]
            report = solve_ggl(covs, pen)
            assert report.objective <= ggl_objective(init, covs, pen) + 1e-9

    def test_estimates_exactly_symmetric_and_pd(self):
        rng = np.random.default_rng(13)
        covs = CovarianceSet(random_covariance_set(rng, 7, 2), [40, 40])
        report = solve_ggl(covs, PenaltyPair(0.15, 0.1))
        for m in report.estimate.matrices:
            assert np.array_equal(m, m.T)
        assert report.estimate.positive_definite

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(55)
        mats = random_covariance_set(rng, 5, 2)
        perm = rng.permutation(5)
        p_mat = np.eye(5)[perm]
        covs = CovarianceSet(mats, [40, 40])
        permuted = CovarianceSet([p_mat @ s @ p_mat.T for s in mats], [40, 40])
        pen = PenaltyPair(0.12, 0.08)
        base = solve_ggl(covs, pen, SolverOptions(tol_abs=1e-8))
        reordered = solve_ggl(permuted, pen, SolverOptions(tol_abs=1e-8))
        for m_base, m_perm in zip(base.estimate.matrices, reordered.estimate.matrices):
            assert np.max(np.abs(p_mat @ m_base @ p_mat.T - m_perm)) <= 1e-6

    def test_group_prox_leaves_exact_zeros(self):
        truth = [chain_precision(12, 0.25), chain_precision(12, 0.25)]
        rng = np.random.default_rng(3)
        mats = []
        for t in truth:
            noise = rng.standard_normal((12, 12)) * 0.01
            s = invert_pd(t) + (noise + noise.T) / 2
            mats.append((s + s.T) / 2)
        covs = CovarianceSet(mats, [500, 500])
        report = solve_ggl(covs, PenaltyPair(0.08, 0.2))
        offdiag = report.estimate.matrices[0][np.triu_indices(12, 1)]
        assert np.any(offdiag == 0.0)



def split_instance(seed, K, blocks=(3, 2), singles=2):
    """Covariances that screening splits, with the penalty and solver options.

    Random PD blocks and single vertices are interleaved by a random
    permutation.  Every pair across two of them gets nonzero entries whose
    soft-thresholded group norm stays below ``rho``, so the pair is
    screened out without being zero in ``S``.
    """
    rng = np.random.default_rng(seed)
    lam = float(rng.choice([0.0, 0.05, 0.1]))
    rho = float(rng.choice([0.05, 0.1, 0.2]))
    parts = list(blocks) + [1] * singles
    p = sum(parts)
    order = rng.permutation(p)
    owner = np.repeat(np.arange(len(parts)), parts)[order]
    mats = np.zeros((K, p, p))
    for b, size in enumerate(parts):
        ix = np.flatnonzero(owner == b)
        for k, m in enumerate(random_covariance_set(rng, size, K)):
            mats[k][np.ix_(ix, ix)] = m
    for i in range(p):
        for j in range(i + 1, p):
            if owner[i] == owner[j]:
                continue
            t = rng.standard_normal(K)
            t *= 0.9 * rng.uniform() / np.linalg.norm(t)
            v = np.sign(t) * (lam + rho * np.abs(t))
            mats[:, i, j] = mats[:, j, i] = v
    for k in range(K):
        mats[k] += np.diag(np.abs(mats[k]).sum(axis=1) - np.abs(np.diag(mats[k])))
    covs = CovarianceSet(list(mats), [50] * K)
    return covs, PenaltyPair(lam, rho), SolverOptions()


def oracle_solve(covs, pen):
    """``pg_solve`` run until its objective stalls below 1e-15."""
    oracle, _ = pg_solve(list(covs.matrices), pen.lam, pen.rho, adaptive=True, stall=1e-15)
    return oracle


def screened_singles(covs, pen):
    """Vertices the screening rule separates from all others, checked pair by pair."""
    singles = []
    for i in range(covs.p):
        alone = True
        for j in range(covs.p):
            if i != j:
                g = np.array([m[i, j] for m in covs.matrices])
                soft = np.sign(g) * np.maximum(np.abs(g) - pen.lam, 0.0)
                alone = alone and np.linalg.norm(soft) <= pen.rho
        if alone:
            singles.append(i)
    return singles


instances = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))


def two_variable_pair(c, lam, rho):
    """One population with unit variances and covariance ``c``, at ``(lam, rho)``."""
    return CovarianceSet([np.array([[1.0, c], [c, 1.0]])], [50]), PenaltyPair(lam, rho)


@st.composite
def two_variable_instances(draw):
    """K = 1-3 two-variable covariances with powers of two on the diagonal,
    and a penalty at their scale that may have ``lam = 0`` or ``rho = 0``."""
    scale = 2.0 ** draw(st.integers(-10, 10))
    K = draw(st.integers(1, 3))
    mats = []
    for _ in range(K):
        a, b = (scale * 2.0 ** draw(st.integers(-3, 3)) for _ in range(2))
        c = draw(st.floats(-0.99, 0.99)) * np.sqrt(a * b)
        mats.append(np.array([[a, c], [c, b]]))
    lam, rho = (scale * draw(st.just(0.0) | st.floats(0.0, 2.0)) for _ in range(2))
    return CovarianceSet(mats, [50] * K), PenaltyPair(lam, rho)


class TestScreening:
    @settings(max_examples=25, deadline=None)
    @given(instances)
    def test_matches_oracle(self, instance):
        covs, pen, opts = split_instance(*instance)
        report = solve_ggl(covs, pen, SolverOptions(tol_abs=1e-9))
        assert report.converged and len(report.block_sizes) >= 3
        oracle = oracle_solve(covs, pen)
        for est, ref in zip(report.estimate.matrices, oracle):
            assert np.max(np.abs(est - ref)) <= 1e-4
        assert abs(ggl_objective(oracle, covs, pen) - report.objective) <= 1e-8

    @settings(max_examples=50, deadline=None)
    @given(instances)
    def test_objective_sums_over_blocks(self, instance):
        # solve_ggl adds the blocks' objectives and the single vertices'
        # closed forms; ggl_objective evaluates the full stack.
        covs, pen, opts = split_instance(*instance)
        report = solve_ggl(covs, pen, opts)
        full = ggl_objective(report.estimate.matrices, covs, pen)
        assert abs(report.objective - full) <= 1e-10 * abs(full)

    @settings(max_examples=50, deadline=None)
    @given(instances)
    def test_certificate_on_full_problem(self, instance):
        covs, pen, opts = split_instance(*instance)
        report = solve_ggl(covs, pen, opts)
        full = kkt_residual(report.estimate, covs, pen)
        assert report.converged
        assert full <= 10 * opts.tol_abs
        assert abs(full - report.kkt_violation) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(instances)
    def test_single_vertices_closed_form(self, instance):
        covs, pen, opts = split_instance(*instance)
        report = solve_ggl(covs, pen, opts)
        singles = screened_singles(covs, pen)
        assert len(singles) >= 2
        assert report.block_sizes.count(1) == len(singles)
        assert sum(report.block_sizes) == covs.p
        for est, s in zip(report.estimate.matrices, covs.matrices):
            for i in singles:
                assert est[i, i] == 1.0 / s[i, i]
                assert np.count_nonzero(est[i]) == 1

    @settings(max_examples=25, deadline=None)
    @given(instances, st.integers(0, 2**32 - 1))
    def test_permutation_equivariance(self, instance, perm_seed):
        covs, pen, opts = split_instance(*instance)
        perm = np.random.default_rng(perm_seed).permutation(covs.p)
        permuted = CovarianceSet(
            [s[np.ix_(perm, perm)] for s in covs.matrices], covs.sample_sizes
        )
        tight = SolverOptions(tol_abs=1e-11)
        base = solve_ggl(covs, pen, tight)
        moved = solve_ggl(permuted, pen, tight)
        assert sorted(base.block_sizes) == sorted(moved.block_sizes)
        for a, b in zip(base.estimate.matrices, moved.estimate.matrices):
            assert np.max(np.abs(a[np.ix_(perm, perm)] - b)) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(instances)
    def test_one_prox_call_per_counted_iteration(self, instance):
        covs, pen, opts = split_instance(*instance)
        calls = []
        prox = solver._prox_offdiag_stack

        def counting(*args):
            calls.append(args[0].shape)
            return prox(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_prox_offdiag_stack", counting)
            report = solve_ggl(covs, pen, opts)
        assert len(calls) == report.iterations
        assert {shape[1] for shape in calls} <= {n for n in report.block_sizes if n > 1}

    @settings(max_examples=25, deadline=None)
    @given(instances)
    def test_all_single_vertices(self, instance):
        covs, pen, opts = split_instance(*instance, blocks=(), singles=5)
        report = solve_ggl(covs, pen, opts)
        assert report.iterations == 0 and report.converged
        assert report.block_sizes == (1,) * 5
        for est, s in zip(report.estimate.matrices, covs.matrices):
            assert np.array_equal(est, np.diag(1.0 / np.diag(s)))
        assert kkt_residual(report.estimate, covs, pen) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(two_variable_instances())
    @example(two_variable_pair(0.5, 0.0, 0.5))  # a tie splits
    @example(two_variable_pair(0.5, 0.0, np.nextafter(0.5, 0.0)))  # one ulp over does not
    def test_one_group_test_for_screening_prox_and_certificate(self, instance):
        # With two variables the blocks are the adjacency.  The pair splits
        # exactly when the prox zeroes the group at the cold-start input -S,
        # and exactly when the certificate passes at the diagonal start
        # diag(1 / S_ii).  The diagonals are powers of two, so the start
        # inverts exactly and its certificate is the zero group's excess
        # alone; elsewhere an excess of 1e-68 hides below the diagonal's
        # rounding of 1e-13.
        covs, pen = instance
        s = np.stack(covs.matrices)
        split = len(solver._screened_blocks(s, pen.lam, pen.rho)) == 2
        assert split == np.all(solver._group_shrink(-s, pen.lam, pen.rho)[:, 0, 1] == 0.0)
        start = PrecisionSet([np.diag(1.0 / np.diag(m)) for m in covs.matrices])
        assert split == (kkt_residual(start, covs, pen) == 0.0)

    def test_one_block_when_nothing_splits(self):
        rng = np.random.default_rng(4)
        covs = CovarianceSet(random_covariance_set(rng, 6, 2), [50, 50])
        assert solve_ggl(covs, PenaltyPair(0.0, 0.0)).block_sizes == (6,)


class TestNormalizedProblem:
    """ADMM runs on the problem divided by s_bar; nothing depends on units."""

    @settings(max_examples=25, deadline=None)
    @given(instances, st.floats(-4.0, 4.0))
    def test_scaled_problem_gives_scaled_estimate(self, instance, log_c):
        # Data times c and penalties times c: the exact solution is W / c.
        c = 10.0**log_c
        covs, pen, opts = split_instance(*instance)
        scaled = CovarianceSet([c * s for s in covs.matrices], covs.sample_sizes)
        scaled_pen = PenaltyPair(c * pen.lam, c * pen.rho)
        base = solve_ggl(covs, pen, opts)
        moved = solve_ggl(scaled, scaled_pen, opts)
        assert base.converged and moved.converged
        # The certificate holds in the units of each problem.
        assert kkt_residual(moved.estimate, scaled, scaled_pen) <= 10 * opts.tol_abs
        oracle = oracle_solve(covs, pen)
        for a, b, ref in zip(base.estimate.matrices, moved.estimate.matrices, oracle):
            assert np.max(np.abs(c * b - a)) <= 1e-4
            assert np.max(np.abs(a - ref)) <= 1e-4


class TestAcceleration:
    """The Anderson-accelerated loop against the oracles."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.sampled_from([1, 2, 3]))
    def test_certified_and_matches_oracle(self, seed, p, K):
        rng = np.random.default_rng(seed)
        covs = CovarianceSet(random_covariance_set(rng, p, K), [50] * K)
        pen = PenaltyPair(*rng.uniform(0.0, 0.2, size=2))
        opts = SolverOptions(tol_abs=1e-9)
        report = solve_ggl(covs, pen, opts)
        assert report.converged
        assert kkt_residual(report.estimate, covs, pen) <= 10 * opts.tol_abs
        for est, ref in zip(report.estimate.matrices, oracle_solve(covs, pen)):
            assert np.max(np.abs(est - ref)) <= 1e-4

    def test_without_memory_the_loop_is_plain_admm(self, monkeypatch):
        # The fixed-point form with no extrapolation is the (Z, U) loop of
        # over-relaxed ADMM, bit for bit; 25 iterations before acceleration.
        rng = np.random.default_rng(2024)
        mats = random_covariance_set(rng, 8, 2)
        covs = CovarianceSet(mats, [50, 50])
        pen = PenaltyPair(0.01, 0.02)
        accelerated = solve_ggl(covs, pen)

        class NoExtrapolation:
            """An Anderson history that always takes the plain step."""

            restarts = 0

            def __init__(self, size):
                pass

            def step(self, x, image):
                return image

        monkeypatch.setattr(solver, "_Anderson", NoExtrapolation)
        plain = solve_ggl(covs, pen)
        reference, iterations = relaxed_admm(mats, pen.lam, pen.rho)
        assert plain.block_sizes == (8,) and plain.converged
        assert plain.iterations == iterations == 25
        assert np.array_equal(np.stack(plain.estimate.matrices), reference)
        assert plain.acceleration_restarts == 0
        assert accelerated.converged and accelerated.iterations < plain.iterations

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.sampled_from([1, 2]))
    def test_unpenalized_singular_covariance_does_not_raise(self, seed, p, K):
        # n < p: the likelihood has no maximizer, and the iterates diverge.
        # Far out along the divergence the certificate, which is absolute,
        # can pass, so an unpenalized rank-deficient block is never
        # certified, and it is returned at its start without iterating.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, p))
        mats = []
        for _ in range(K):
            x = rng.standard_normal((n, p))
            mats.append(x.T @ x / n)
        covs, pen, opts = CovarianceSet(mats, [n] * K), PenaltyPair(0.0, 0.0), SolverOptions()
        report = solve_ggl(covs, pen, opts)
        assert report.estimate.positive_definite
        assert all(np.all(np.isfinite(m)) for m in report.estimate.matrices)
        assert not report.converged
        assert report.iterations == 0
        # The diagonal start, certified once, with no residual to report.
        for m, cov in zip(report.estimate.matrices, mats):
            assert np.array_equal(m, np.diag(1.0 / np.diag(cov)))
        assert report.certificate_calls == 1 and report.acceleration_restarts == 0
        assert report.dual_residual == np.inf

    @settings(max_examples=25, deadline=None)
    @given(instances, st.sampled_from([2, 10000]))
    def test_certificate_calls_and_restarts_are_counted(self, instance, max_iter):
        # max_iter=2 stops before the residual test passes, so the only
        # certificate is the one taken after the loop.
        covs, pen, opts = split_instance(*instance)
        opts = replace(opts, max_iter=max_iter)
        certificates, restarts = [], []
        certify, restart = solver._stationarity_violation, solver._Anderson._restart

        def counting_certificate(*args):
            certificates.append(1)
            return certify(*args)

        def counting_restart(*args):
            restarts.append(1)
            return restart(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_stationarity_violation", counting_certificate)
            mp.setattr(solver._Anderson, "_restart", counting_restart)
            report = solve_ggl(covs, pen, opts)
        assert report.certificate_calls == len(certificates)
        assert report.certificate_calls >= sum(n > 1 for n in report.block_sizes)
        assert report.acceleration_restarts == len(restarts)

    def test_unconverged_report_certifies_the_returned_estimate(self):
        # At 13 iterations the last iterate that passed the residual test is
        # not the one returned: its certificate reads 6.248e-05, against
        # 3.198e-05 at the estimate.
        spec = two_population_chain_spec().build(12)
        covs = sample_covariance(draw_mvn_dataset(spec, (40, 40), derive_seed(1, 40)))
        scale = penalty_scale(12, 40)
        pen = PenaltyPair(0.5 * scale, 1.0 * scale)
        report = solve_ggl(covs, pen, SolverOptions(max_iter=13))
        assert not report.converged and report.iterations == 13
        assert report.kkt_violation == kkt_residual(report.estimate, covs, pen)
        assert report.kkt_violation == pytest.approx(3.198e-05, rel=1e-3)

    @settings(max_examples=50, deadline=None)
    @given(instances, st.integers(1, 40))
    def test_violation_is_the_certificate_of_the_estimate(self, instance, max_iter):
        covs, pen, opts = split_instance(*instance)
        report = solve_ggl(covs, pen, replace(opts, max_iter=max_iter))
        full = kkt_residual(report.estimate, covs, pen)
        assert report.kkt_violation == pytest.approx(full, rel=1e-9)

    def test_a_rising_residual_restarts_the_memory(self):
        history = solver._Anderson(3)
        first = np.array([1.0, 0.0, 0.0])
        assert history.step(np.zeros(3), first) is first
        rising = np.array([1.0, 2.0, 0.0])  # ||g|| goes from 1 to 2
        assert history.step(first, rising) is rising
        assert (history.restarts, history.count, history.best) == (1, 1, 4.0)

    def test_a_singular_least_squares_solve_restarts_the_memory(self):
        # At a fixed point every residual is zero, and so is the Gram matrix
        # with its regularization.
        history = solver._Anderson(3)
        x = np.array([1.0, -2.0, 0.5])
        history.step(x, x.copy())
        image = x.copy()
        assert history.step(x, image) is image
        assert history.restarts == 1


def test_sample_and_solve_import_no_scipy_submodule():
    # Sampling, the solve with its certificate and objective, debiasing and
    # the normality study's statistics run on numpy alone; scipy.linalg or
    # scipy.special would cost about 0.3 s of start-up.
    code = (
        "import sys\n"
        "from multiggm import (ExperimentConfig, PenaltyPair, debias, draw_mvn_dataset,\n"
        "    kkt_residual, run_normality, sample_covariance, solve_ggl,\n"
        "    two_population_chain_spec)\n"
        "covs = sample_covariance(draw_mvn_dataset(two_population_chain_spec().build(6),\n"
        "                                          (50, 50), 1))\n"
        "pen = PenaltyPair(0.1, 0.1)\n"
        "report = solve_ggl(covs, pen)\n"
        "kkt_residual(report.estimate, covs, pen)\n"
        "debias(report.estimate, covs)\n"
        "run_normality(ExperimentConfig(graph=two_population_chain_spec(), dims=(6,),\n"
        "    sample_sizes=(50,), replications=2, base_seed=1, penalty_rule='fixed',\n"
        "    edges_of_interest=((0, 1), (2, 2))))\n"
        "loaded = [m for m in ('scipy.linalg', 'scipy.special', 'scipy.sparse')\n"
        "          if m in sys.modules]\n"
        "assert not loaded, f'{loaded} imported'\n"
    )
    package_root = os.path.dirname(os.path.dirname(solver.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert result.returncode == 0, result.stderr
