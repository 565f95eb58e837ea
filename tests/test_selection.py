import dataclasses
import errno
import json
import math
import os
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
from multiggm import _lanes, selection
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

    def test_each_path_runs_down_c1_and_restarts_after_a_failure(self, monkeypatch, tmp_path):
        # Paths run in two lanes, so every lane appends its calls to one
        # file, and only the order within one path (one rho) is fixed.  A
        # report's id stands for the report: within a path the previous
        # report is alive when it is passed on as ``init``.
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
        log = tmp_path / "calls.jsonl"
        solve = selection.solve_ggl

        def recording(covs, penalty, opts, init=None):
            report = solve(covs, penalty, opts, init=init)
            call = [os.getpid(), penalty.lam, penalty.rho,
                    None if init is None else id(init), id(report), report.converged]
            with open(log, "a") as fh:
                fh.write(json.dumps(call) + "\n")
            return report

        monkeypatch.setattr(selection, "solve_ggl", recording)
        # Few iterations, so that some cells stop unconverged.
        result = tune_penalties(chain_covs(), self.GRID, SolverOptions(max_iter=23))
        assert result.grid_lanes == 2
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        assert len({pid for pid, *_ in calls}) == 2
        assert any(not converged for *_, converged in calls)
        assert any(init is not None for _, _, _, init, _, _ in calls)
        scale = penalty_scale(10, 120)
        assert len(calls) == len(self.GRID.c1_values) * len(self.GRID.c2_values)
        for c2 in self.GRID.c2_values:
            path = [call for call in calls if call[2] == c2 * scale]
            assert len({pid for pid, *_ in path}) == 1
            for n, (c1, (_, lam, _, init, _, _)) in enumerate(
                zip(reversed(self.GRID.c1_values), path)
            ):
                assert lam == c1 * scale
                previous = path[n - 1] if n else None
                if c1 == self.GRID.c1_values[-1] or not previous[5]:
                    assert init is None
                else:
                    assert init == previous[4]


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


def no_fork(forks):
    """An ``os.fork`` that starts no process: it counts the call and fails."""
    def fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, "no process")
    return fork


class TestLaneGrid:
    """Paths run side by side in forked lanes from the main thread, serially elsewhere.

    At most two lanes, so a case starts at most one child.
    """

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        c1_values=grid_values(4),
        c2_values=grid_values(5),
        K=st.sampled_from([1, 2]),
        max_iter=st.sampled_from([23, SolverOptions().max_iter]),
    )
    def test_matches_the_serial_walk(self, monkeypatch, c1_values, c2_values, K, max_iter):
        # Two lanes even on a one-CPU machine.
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
        full = chain_covs()
        covs = CovarianceSet(full.matrices[:K], full.sample_sizes[:K])
        grid = TuningGrid(c1_values, c2_values)
        opts = SolverOptions(max_iter=max_iter)
        lanes = _tune_or_error(covs, grid, opts)
        serial = _in_worker_thread(_tune_or_error, covs, grid, opts)
        if isinstance(serial, type):
            assert lanes is serial
            return
        assert lanes.grid_lanes == min(len(c2_values), 2)
        assert serial.grid_lanes == 1
        assert lanes.best_constants == serial.best_constants
        assert lanes.best_penalty == serial.best_penalty
        assert _without_scores(lanes.table) == _without_scores(serial.table)
        assert np.array_equal(_score_bits(lanes.table), _score_bits(serial.table))

    def test_worker_thread_starts_no_helper(self, monkeypatch):
        forks = []
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: 4)
        monkeypatch.setattr(os, "fork", no_fork(forks))
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
        assert forks == []
        assert result.grid_lanes == 1

    @pytest.mark.parametrize("cpus, columns, lanes", [(3, 5, 3), (8, 3, 3), (1, 5, 1)])
    def test_lanes_capped_by_cpus_and_columns_at_any_dimension(
        self, monkeypatch, cpus, columns, lanes
    ):
        # p = 10, far below any size gate; the forks fail, so every lane
        # runs in the caller and no process starts.
        forks = []
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", no_fork(forks))
        grid = TuningGrid((0.5, 1.0), DEFAULT_GRID_VALUES[:columns])
        result = tune_penalties(chain_covs(), grid)
        serial = _in_worker_thread(tune_penalties, chain_covs(), grid)
        assert result.grid_lanes == lanes and len(forks) == lanes - 1
        assert result == dataclasses.replace(serial, grid_lanes=lanes)

    def test_first_error_in_c2_order_reaches_the_caller(self, monkeypatch):
        # With two lanes the caller walks C2 = 0.5 and 2.0, the child 1.0
        # and 4.0.  The error the serial walk meets first is raised, from
        # whichever lane met it.
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
        caller = os.getpid()
        grid = TuningGrid(c2_values=(0.5, 1.0, 2.0, 4.0))
        scale = penalty_scale(10, 120)
        solve = selection.solve_ggl
        before = set(threading.enumerate())
        for failing, first, in_child in [
            ((1.0, 2.0), 1.0, True), ((2.0, 4.0), 2.0, False), ((4.0,), 4.0, True),
        ]:
            def failing_paths(covs, penalty, opts, init=None, failing=failing):
                c2 = round(penalty.rho / scale, 6)
                if c2 in failing:
                    raise NotPositiveDefiniteError(f"injected at {c2} in {os.getpid()}")
                return solve(covs, penalty, opts, init=init)

            monkeypatch.setattr(selection, "solve_ggl", failing_paths)
            with pytest.raises(NotPositiveDefiniteError, match=f"injected at {first} ") as exc:
                tune_penalties(chain_covs(), grid)
            assert (str(exc.value).split()[-1] != str(caller)) is in_child
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert set(threading.enumerate()) == before
