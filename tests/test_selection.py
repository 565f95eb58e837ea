import dataclasses
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiggm import (
    ConvergenceError,
    CovarianceSet,
    DataFormatError,
    NotPositiveDefiniteError,
    PenaltyPair,
    PrecisionSet,
    SolverOptions,
    TuningGrid,
    ebic,
    penalty_scale,
    solve_ggl,
    tune_penalties,
)
from multiggm import selection
from multiggm.selection import DEFAULT_GRID_VALUES, EbicScore, score_table_rows

from oracles import random_covariance_set


def _identity_case(p=2, n=100, K=1):
    est = PrecisionSet([np.eye(p)] * K, positive_definite=True)
    covs = CovarianceSet([np.eye(p)] * K, [n] * K)
    return est, covs


class TestEbic:
    def test_identity_direct_evaluation(self):
        # logdet I = 0, trace(I I) = p, zero edges:
        # score = -2 * n * (0 - p) = 2 n p.
        est, covs = _identity_case(p=2, n=100)
        score = ebic(est, covs, gamma=0.5)
        assert score.value == pytest.approx(400.0)
        assert score.loglik_term == pytest.approx(400.0)
        assert score.edge_counts == (0,)

    def test_edge_count_difference_is_pure_penalty(self):
        # Two fits with identical likelihood terms and 5 vs 9 edges differ by
        # exactly 4 * (log n + 2 log p) at gamma = 1/2.
        rng = np.random.default_rng(0)
        p, n = 12, 200
        base = np.eye(p)
        m5 = base.copy()
        m9 = base.copy()
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]
        for idx, (i, j) in enumerate(pairs):
            m9[i, j] = m9[j, i] = 0.05
            if idx < 5:
                m5[i, j] = m5[j, i] = 0.05
        covs = CovarianceSet([np.eye(p)], [n])
        s5 = ebic(PrecisionSet([m5], positive_definite=True), covs, 0.5)
        s9 = ebic(PrecisionSet([m9], positive_definite=True), covs, 0.5)
        penalty_gap = (s9.value - s9.loglik_term) - (s5.value - s5.loglik_term)
        assert penalty_gap == pytest.approx(4 * (math.log(n) + 2 * math.log(p)))

    def test_gamma_zero_reduces_to_bic(self):
        est, covs = _identity_case(p=5, n=50)
        m = np.eye(5)
        m[0, 1] = m[1, 0] = 0.1
        est2 = PrecisionSet([m], positive_definite=True)
        gap_ebic = ebic(est2, covs, 0.5).value - ebic(est, covs, 0.5).value
        gap_bic = ebic(est2, covs, 0.0).value - ebic(est, covs, 0.0).value
        assert gap_ebic - gap_bic == pytest.approx(4 * 0.5 * math.log(5))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        mats = random_covariance_set(rng, 6, 2)
        covs = CovarianceSet(mats, [40, 60])
        report = solve_ggl(covs, PenaltyPair(0.1, 0.1))
        score = ebic(report.estimate, covs, 0.5)
        perm = rng.permutation(6)
        pm = np.eye(6)[perm]
        covs_p = CovarianceSet([pm @ s @ pm.T for s in mats], [40, 60])
        est_p = PrecisionSet(
            [pm @ m @ pm.T for m in report.estimate.matrices], positive_definite=True
        )
        score_p = ebic(est_p, covs_p, 0.5)
        assert score_p.value == pytest.approx(score.value, rel=1e-10)
        assert sorted(score_p.edge_counts) == sorted(score.edge_counts)

    def test_non_pd_estimate_rejected(self):
        est = PrecisionSet([np.array([[1.0, 2.0], [2.0, 1.0]])])
        covs = CovarianceSet([np.eye(2)], [10])
        with pytest.raises(Exception):
            ebic(est, covs)


class TestTunePenalties:
    def test_single_cell_grid_returned(self):
        rng = np.random.default_rng(1)
        covs = CovarianceSet(random_covariance_set(rng, 4, 1), [60])
        grid = TuningGrid(c1_values=(0.7,), c2_values=(1.3,))
        result = tune_penalties(covs, grid)
        assert result.best_constants == (0.7, 1.3)
        scale = penalty_scale(4, 60)
        assert result.best_penalty.lam == pytest.approx(0.7 * scale)
        assert result.best_penalty.rho == pytest.approx(1.3 * scale)
        assert len(result.table) == 1

    def test_ties_break_to_larger_constants(self):
        # Identity covariances: every cell fits the identity exactly, so all
        # scores tie and the lexicographically largest constants must win.
        covs = CovarianceSet([np.eye(3), np.eye(3)], [50, 50])
        grid = TuningGrid(c1_values=(0.5, 1.0), c2_values=(0.5, 1.0))
        result = tune_penalties(covs, grid)
        assert result.best_constants == (1.0, 1.0)

    def test_score_table_deterministic_and_complete(self):
        rng = np.random.default_rng(17)
        covs = CovarianceSet(random_covariance_set(rng, 5, 2), [70, 50])
        grid = TuningGrid(c1_values=(0.25, 1.0), c2_values=(0.5, 2.0))
        r1 = tune_penalties(covs, grid)
        r2 = tune_penalties(covs, grid)
        assert r1 == r2
        assert len(r1.table) == 4
        rows = score_table_rows(r1)
        assert rows[0] == ["c1", "c2", "lambda", "rho", "ebic", "edges_k1", "edges_k2", "converged"]
        assert len(rows) == 5

    def test_all_cells_invalid_raises(self):
        rng = np.random.default_rng(2)
        covs = CovarianceSet(random_covariance_set(rng, 8, 2), [40, 40])
        with pytest.raises(ConvergenceError):
            tune_penalties(covs, TuningGrid(c1_values=(0.1,), c2_values=(0.1,)),
                           SolverOptions(max_iter=1))

    def test_monotone_edge_counts_along_c1(self):
        # Soft property: total selected edges should not grow with the l1
        # constant; solver-tolerance violations are logged, not failed.
        rng = np.random.default_rng(23)
        covs = CovarianceSet(random_covariance_set(rng, 8, 2), [60, 60])
        grid = TuningGrid(c1_values=(0.25, 0.5, 1.0, 2.0), c2_values=(0.5,))
        result = tune_penalties(covs, grid)
        edges = [sum(c.edge_counts) for c in result.table]
        violations = [b - a for a, b in zip(edges, edges[1:]) if b > a]
        if violations:
            print(f"note: non-monotone edge counts along c1: {edges}")
        assert not violations or max(violations) <= 1

    def test_grid_validation(self):
        with pytest.raises(DataFormatError):
            TuningGrid(c1_values=())
        with pytest.raises(DataFormatError):
            TuningGrid(c1_values=(0.5, 0.5))
        with pytest.raises(DataFormatError):
            TuningGrid(c1_values=(-1.0, 0.5))


def chain_covs(p=10, n=120, seed=5):
    rng = np.random.default_rng(seed)
    mats = []
    for rho in (0.3, 0.45):
        prec = np.eye(p) + rho * (np.eye(p, k=1) + np.eye(p, k=-1))
        x = rng.multivariate_normal(np.zeros(p), np.linalg.inv(prec), size=n)
        mats.append(np.cov(x, rowvar=False))
    return CovarianceSet(mats, [n, n])


class TestTuningPath:
    """The warm-started solve order must not show in the result."""

    GRID = TuningGrid(c1_values=(0.25, 0.5, 1.0), c2_values=(0.5, 1.0, 2.0))

    def test_table_is_c1_major(self):
        result = tune_penalties(chain_covs(), self.GRID)
        assert [(c.c1, c.c2) for c in result.table] == [
            (c1, c2) for c1 in self.GRID.c1_values for c2 in self.GRID.c2_values
        ]

    def test_exact_tie_picks_the_sparser_model(self, monkeypatch):
        def flat(estimate, covs, gamma, edge_tol, constants):
            return EbicScore(1.0, 1.0, (0,) * covs.K, gamma, constants)

        monkeypatch.setattr(selection, "ebic", flat)
        result = tune_penalties(chain_covs(), self.GRID)
        assert result.best_constants == (1.0, 2.0)

    def test_reruns_are_bit_identical(self):
        covs = chain_covs()
        a, b = tune_penalties(covs, self.GRID), tune_penalties(covs, self.GRID)
        assert a == b
        scores = [np.float64([c.score for c in r.table]).view(np.uint64) for r in (a, b)]
        assert np.array_equal(*scores)

    def test_cells_match_cold_solves(self):
        covs = chain_covs()
        result = tune_penalties(covs, self.GRID)
        for cell in result.table:
            cold = solve_ggl(covs, PenaltyPair(cell.lam, cell.rho))
            score = ebic(cold.estimate, covs, self.GRID.gamma)
            assert cell.converged and cold.converged
            assert cell.edge_counts == score.edge_counts
            # Both solves stop within the solver's tolerances, not at one point.
            assert cell.score == pytest.approx(score.value, rel=1e-5)

    def test_each_path_runs_down_c1_and_restarts_after_a_failure(self, monkeypatch):
        # Paths may run on several threads, so only the order within one
        # path (one rho) is fixed.
        calls = []
        lock = threading.Lock()
        solve = selection.solve_ggl

        def recording(covs, penalty, opts, init=None):
            report = solve(covs, penalty, opts, init=init)
            with lock:
                calls.append((penalty, init, report))
            return report

        monkeypatch.setattr(selection, "solve_ggl", recording)
        # Few iterations, so that some cells stop unconverged.
        tune_penalties(chain_covs(), self.GRID, SolverOptions(max_iter=23))
        assert any(not report.converged for _, _, report in calls)
        assert any(init is not None for _, init, _ in calls)
        scale = penalty_scale(10, 120)
        assert len(calls) == len(self.GRID.c1_values) * len(self.GRID.c2_values)
        for c2 in self.GRID.c2_values:
            path = [call for call in calls if call[0].rho == c2 * scale]
            for n, (c1, (penalty, init, _)) in enumerate(zip(reversed(self.GRID.c1_values), path)):
                assert penalty == PenaltyPair(c1 * scale, c2 * scale)
                previous = path[n - 1][2] if n else None
                if c1 == self.GRID.c1_values[-1] or not previous.converged:
                    assert init is None
                else:
                    assert init is previous


def _tune_or_error(covs, grid, opts):
    try:
        return tune_penalties(covs, grid, opts)
    except ConvergenceError as exc:
        return type(exc)


def _in_worker_thread(fn, *args):
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result(timeout=300)


def _without_scores(table):
    return [dataclasses.replace(cell, score=0.0) for cell in table]


def _score_bits(table):
    return np.float64([cell.score for cell in table]).view(np.uint64)


def grid_values(max_size):
    return st.lists(
        st.sampled_from(DEFAULT_GRID_VALUES), min_size=1, max_size=max_size, unique=True
    ).map(lambda values: tuple(sorted(values)))


class TestThreadedGrid:
    """Paths run side by side from the main thread and serially elsewhere."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        c1_values=grid_values(4),
        c2_values=grid_values(5),
        K=st.sampled_from([1, 2]),
        max_iter=st.sampled_from([23, SolverOptions().max_iter]),
    )
    def test_matches_the_serial_walk(self, monkeypatch, c1_values, c2_values, K, max_iter):
        # Helpers start even on a one-CPU machine and at this small p.
        monkeypatch.setattr(selection, "usable_cpus", lambda: 4)
        monkeypatch.setattr(selection, "PARALLEL_MIN_P", 1)
        full = chain_covs()
        covs = CovarianceSet(full.matrices[:K], full.sample_sizes[:K])
        grid = TuningGrid(c1_values, c2_values)
        opts = SolverOptions(max_iter=max_iter)
        threaded = _tune_or_error(covs, grid, opts)
        serial = _in_worker_thread(_tune_or_error, covs, grid, opts)
        if isinstance(serial, type):
            assert threaded is serial
            return
        assert threaded.grid_threads == min(len(c2_values), 4)
        assert serial.grid_threads == 1
        assert threaded.best_constants == serial.best_constants
        assert threaded.best_penalty == serial.best_penalty
        assert _without_scores(threaded.table) == _without_scores(serial.table)
        assert np.array_equal(_score_bits(threaded.table), _score_bits(serial.table))

    def test_worker_thread_starts_no_helper(self, monkeypatch):
        monkeypatch.setattr(selection, "usable_cpus", lambda: 4)
        monkeypatch.setattr(selection, "PARALLEL_MIN_P", 1)
        threads = set()
        solve = selection.solve_ggl

        def recording(covs, penalty, opts, init=None):
            threads.add(threading.get_ident())
            return solve(covs, penalty, opts, init=init)

        monkeypatch.setattr(selection, "solve_ggl", recording)

        def run():
            return threading.get_ident(), tune_penalties(chain_covs(), TestTuningPath.GRID)

        worker, result = _in_worker_thread(run)
        assert threads == {worker}
        assert result.grid_threads == 1

    def test_small_dimension_starts_no_helper(self, monkeypatch):
        monkeypatch.setattr(selection, "usable_cpus", lambda: 4)
        covs = chain_covs(p=selection.PARALLEL_MIN_P - 1)
        assert tune_penalties(covs, TestTuningPath.GRID).grid_threads == 1

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(selection, "usable_cpus", lambda: 2)
        monkeypatch.setattr(selection, "PARALLEL_MIN_P", 1)
        caller_started, helper_failed = threading.Event(), threading.Event()
        rhos = set()
        lock = threading.Lock()
        solve = selection.solve_ggl

        def failing_in_helper(covs, penalty, opts, init=None):
            with lock:
                rhos.add(penalty.rho)
            # The caller and the helper each take one path before the
            # helper fails.
            if threading.current_thread() is not threading.main_thread():
                assert caller_started.wait(timeout=60)
                helper_failed.set()
                raise NotPositiveDefiniteError("injected")
            caller_started.set()
            assert helper_failed.wait(timeout=60)
            return solve(covs, penalty, opts, init=init)

        monkeypatch.setattr(selection, "solve_ggl", failing_in_helper)
        before = set(threading.enumerate())
        grid = TuningGrid(c2_values=(0.5, 1.0, 2.0, 4.0))
        with pytest.raises(NotPositiveDefiniteError, match="injected"):
            tune_penalties(chain_covs(), grid)
        assert set(threading.enumerate()) == before
        # The caller finishes its path; no further path is handed out.
        assert len(rhos) == 2
