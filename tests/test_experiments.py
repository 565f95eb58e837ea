import dataclasses
import errno
import os

import numpy as np
import pytest

import multiggm.experiments as experiments
from multiggm import _lanes
from multiggm import (
    ExperimentConfig,
    PrecisionSet,
    SolverOptions,
    TuningGrid,
    run_coverage,
    run_normality,
    run_sign_consistency,
    run_supnorm,
    run_tpfp,
    upper_quantile,
)
from multiggm.errors import ConfigError, DataFormatError
from multiggm.graphs import GraphSpec
from multiggm.solver import SolveReport


def small_config(**overrides):
    base = dict(
        graph=GraphSpec(kind="chain", chain_rho=(0.2, 0.35)),
        dims=(8,),
        sample_sizes=(150,),
        replications=4,
        base_seed=11,
        penalty_rule="fixed",
        fixed_constants=(1.0, 3.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def truth_injecting_solve(truth: PrecisionSet):
    def fake(covs, penalty):
        return SolveReport(
            estimate=truth,
            iterations=0,
            dual_residual=0.0,
            converged=True,
            kkt_violation=0.0,
            objective=0.0,
            block_sizes=(truth.p,),
        )

    return fake


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        config = small_config()
        a = run_sign_consistency(config)
        b = run_sign_consistency(config)
        assert a.cells == b.cells
        assert a.seeds == b.seeds
        assert a.csv_rows() == b.csv_rows()

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # --threads 4 caps the lanes at 4; two CPUs give two lanes, one child.
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
        serial = run_coverage(small_config(replications=6))
        threaded = run_coverage(small_config(replications=6, threads=4))
        assert (serial.lanes, threaded.lanes) == (1, 2)
        assert serial.cells == threaded.cells
        assert serial.csv_rows() == threaded.csv_rows()
        assert serial.to_jsonable() == threaded.to_jsonable()

    @pytest.mark.parametrize("cpus, threads, replications, lanes", [
        (4, 2, 6, 2), (4, 8, 3, 3), (2, 8, 6, 2), (1, 4, 6, 1), (4, 1, 6, 1),
    ])
    def test_lanes_capped_by_threads_cpus_and_replications(
        self, monkeypatch, cpus, threads, replications, lanes
    ):
        # The forks fail, so every lane runs in the caller and no process starts.
        forks = []

        def no_fork():
            forks.append(1)
            raise OSError(errno.EAGAIN, "no process")

        monkeypatch.setattr(_lanes, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", no_fork)
        config = small_config(replications=replications, threads=threads)
        result = run_tpfp(config)
        assert result.lanes == lanes and len(forks) == lanes - 1
        assert result.cells == run_tpfp(small_config(replications=replications)).cells

    def test_results_recomputable_from_seed_provenance(self):
        # The success indicator of each replication can be reproduced in
        # isolation from the logged seeds, and a brute sign-matrix comparison
        # agrees with the harness's scoring.
        from multiggm import (
            MultiPopDataset,
            PenaltyPair,
            draw_mvn,
            population_seed,
            sample_covariance,
            solve_ggl,
        )
        from multiggm.selection import penalty_scale

        config = small_config(replications=5)
        result = run_sign_consistency(config)
        (p, n), cell = next(iter(result.cells.items()))
        truth = config.graph.build(p)
        seeds = result.seeds["per_cell"][f"{p}/{n}"]
        scale = penalty_scale(p, n)
        pen = PenaltyPair(config.fixed_constants[0] * scale, config.fixed_constants[1] * scale)
        successes = 0
        for rep_seed in seeds:
            data = MultiPopDataset(
                [draw_mvn(m, n, population_seed(rep_seed, k)) for k, m in enumerate(truth.matrices)]
            )
            report = solve_ggl(sample_covariance(data), pen)
            ok = all(
                np.array_equal(np.sign(est), np.sign(tr))
                for est, tr in zip(report.estimate.matrices, truth.matrices)
            )
            successes += ok
        assert successes / len(seeds) == cell["success_fraction"]


class TestInjectedTruth:
    def test_supnorm_zero_when_truth_is_returned(self, monkeypatch):
        config = small_config(replications=3)
        truth = config.graph.build(config.dims[0])
        monkeypatch.setattr(experiments, "_solve", truth_injecting_solve(truth))
        result = run_supnorm(config)
        for cell in result.cells.values():
            assert cell["mean_supnorm"] == 0.0

    def test_tpfp_perfect_recovery(self, monkeypatch):
        config = small_config(replications=3)
        truth = config.graph.build(config.dims[0])
        monkeypatch.setattr(experiments, "_solve", truth_injecting_solve(truth))
        result = run_tpfp(config)
        cell = result.cells[(8, 150)]
        assert cell["mean_tp"] == 7.0  # chain at p=8 has 7 edges
        assert cell["mean_fp"] == 0.0

    def test_huge_penalty_empties_the_graph(self):
        result = run_tpfp(small_config(fixed_constants=(80.0, 80.0)))
        cell = result.cells[(8, 150)]
        assert cell["mean_tp"] == 0.0
        assert cell["mean_fp"] == 0.0


class TestCoverage:
    def test_exact_oracle_interval_arithmetic(self):
        # CI built from the true sigma around truth-plus-gaussian-noise:
        # coverage equals P(|Z| <= tau) up to Monte Carlo error, isolating
        # the interval arithmetic from estimator behaviour.
        rng = np.random.default_rng(202)
        n = 400
        sigma = 1.3
        tau = upper_quantile(0.05)
        z = rng.standard_normal(1000)
        centers = 0.2 + z * sigma / np.sqrt(n)
        half = tau * sigma / np.sqrt(n)
        covered = np.abs(centers - 0.2) <= half
        assert abs(covered.mean() - 0.95) <= 0.02

    def test_zero_width_interval_has_zero_coverage(self):
        result = run_coverage(small_config(replications=3, ci_level=1e-12))
        for (p, n, k, which), cell in result.cells.items():
            assert cell["coverage"] == 0.0

    def test_set_sizes_reported(self):
        result = run_coverage(small_config(replications=2))
        cell_s = result.cells[(8, 150, 0, "S")]
        cell_sc = result.cells[(8, 150, 0, "Sc")]
        assert cell_s["edges"] == 7
        assert cell_sc["edges"] == 8 * 7 // 2 - 7


class TestNormality:
    def test_emits_samples_per_population_and_pooled(self):
        config = small_config(replications=3, edges_of_interest=((0, 1), (2, 3)))
        result = run_normality(config)
        assert set(result.samples) == {
            "p8/n150/k1:(1,2)", "p8/n150/k2:(1,2)", "p8/n150/T:(1,2)",
            "p8/n150/k1:(3,4)", "p8/n150/k2:(3,4)", "p8/n150/T:(3,4)",
        }
        for values in result.samples.values():
            assert len(values) == 3

    def test_single_replication_emits_single_sample(self):
        config = small_config(replications=1, edges_of_interest=((0, 1),))
        result = run_normality(config)
        assert all(len(v) == 1 for v in result.samples.values())

    def test_requires_edges(self):
        with pytest.raises(Exception):
            run_normality(small_config(edges_of_interest=()))

    def test_csv_rows_are_two_columns(self):
        config = small_config(replications=2, edges_of_interest=((0, 1),))
        rows = run_normality(config).csv_rows()
        assert rows[0] == ["edge", "standardized_value"]
        assert all(len(r) == 2 for r in rows)


class TestFailureAccounting:
    def test_nonconverged_replications_counted_and_excluded(self, monkeypatch):
        solve = experiments._solve

        def one_iteration(covs, penalty):
            return solve(covs, penalty, SolverOptions(max_iter=1))

        monkeypatch.setattr(experiments, "_solve", one_iteration)
        config = small_config(replications=3, penalty_rule="fixed")
        consistency = run_sign_consistency(config)
        assert consistency.failure_counts[(8, 150)] == 3
        assert consistency.cells[(8, 150)]["success_fraction"] == 0.0
        supnorm = run_supnorm(config)
        assert supnorm.failure_counts[(8, 150)] == 3
        assert supnorm.cells[(8, 150, 0)]["replications"] == 0
        assert np.isnan(supnorm.cells[(8, 150, 0)]["mean_supnorm"])
        assert supnorm.failed_seeds == {"8/150": supnorm.seeds["per_cell"]["8/150"]}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_seeds_name_the_failed_replications(self, monkeypatch, cpus):
        # Replications 1 and 3 of each cell fail, in whichever lane runs them.
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: cpus)
        config = small_config(replications=4, dims=(6, 8), threads=2)
        seeds = [experiments.derive_seed(11, p, 150, b) for p in (6, 8) for b in range(4)]
        # A draw's first covariance entry tells which replication it is.
        seed_of = {
            experiments._draw_covs(config.graph.build(p), 150, s).matrices[0][0, 0]: s
            for p, s in zip((6,) * 4 + (8,) * 4, seeds)
        }
        failing = set(seeds[1::2])
        real = experiments._solve

        def failing_some(covs, penalty):
            report = real(covs, penalty)
            if seed_of[covs.matrices[0][0, 0]] in failing:
                return dataclasses.replace(report, converged=False)
            return report

        monkeypatch.setattr(experiments, "_solve", failing_some)
        result = run_tpfp(config)
        assert result.lanes == cpus
        assert result.failed_seeds == {"6/150": seeds[1:4:2], "8/150": seeds[5:8:2]}
        assert result.failure_counts == {(6, 150): 2, (8, 150): 2}
        assert "failed_seeds" not in result.to_jsonable()


class TestMonteCarloTrends:
    def test_tiny_sample_consistency_near_zero(self):
        config = small_config(
            dims=(50,), sample_sizes=(10,), replications=3,
            fixed_constants=(1.0, 3.5),
        )
        result = run_sign_consistency(config)
        assert result.cells[(50, 10)]["success_fraction"] <= 0.1

    def test_tp_grows_and_supnorm_shrinks_with_n(self):
        config = small_config(
            dims=(25,), sample_sizes=(200, 700), replications=8,
            fixed_constants=(1.0, 3.5),
        )
        tpfp = run_tpfp(config)
        assert tpfp.cells[(25, 700)]["mean_tp"] >= tpfp.cells[(25, 200)]["mean_tp"]
        supnorm = run_supnorm(config)
        for k in (0, 1):
            assert (
                supnorm.cells[(25, 700, k)]["mean_supnorm"]
                < supnorm.cells[(25, 200, k)]["mean_supnorm"]
            )


class TestTuningIntegration:
    def test_ebic_rule_tunes_once_per_cell(self):
        config = small_config(
            penalty_rule="ebic_grid",
            grid=TuningGrid(c1_values=(0.5, 1.0), c2_values=(0.5, 1.0)),
            replications=2,
        )
        result = run_sign_consistency(config)
        assert (8, 150) in result.cells

    def test_star_graph_runs(self):
        config = small_config(
            graph=GraphSpec(
                kind="star", star_d=3, star_diag=(2.0, 2.5),
                star_offdiag=(0.3, 0.45), hub_seed=1,
            ),
            dims=(10,),
        )
        result = run_sign_consistency(config)
        assert (10, 150) in result.cells

    def test_star_normality_on_hub_edges(self):
        from multiggm import star_precision

        _, hub, spokes = star_precision(10, 3, 2.0, 0.3, hub_seed=1)
        config = small_config(
            graph=GraphSpec(
                kind="star", star_d=3, star_diag=(2.0, 2.5),
                star_offdiag=(0.3, 0.45), hub_seed=1,
            ),
            dims=(10,),
            replications=3,
            edges_of_interest=((hub, hub), (hub, spokes[0])),
        )
        result = run_normality(config)
        assert len(result.samples) == 6
        assert all(len(v) == 3 for v in result.samples.values())


class TestDrawCount:
    def _count_draws(self, monkeypatch, config):
        calls = []
        real = experiments.draw_mvn

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "draw_mvn", counting)
        run_tpfp(config)
        return len(calls)

    def test_fixed_rule_draws_each_replication_once(self, monkeypatch):
        config = small_config(replications=3)
        assert self._count_draws(monkeypatch, config) == 3 * 2

    def test_ebic_rule_draws_the_tuning_data_once_more(self, monkeypatch):
        config = small_config(
            replications=2,
            penalty_rule="ebic_grid",
            grid=TuningGrid(c1_values=(1.0,), c2_values=(3.0,)),
        )
        assert self._count_draws(monkeypatch, config) == (2 + 1) * 2


class TestConfigChecks:
    @pytest.mark.parametrize("field, values", [("dims", (8, 8)), ("sample_sizes", (150, 150))])
    def test_repeated_values_run_no_solve(self, monkeypatch, field, values):
        calls = []
        monkeypatch.setattr(experiments, "_solve", lambda *a: calls.append(a))
        with pytest.raises(ConfigError, match=field):
            run_tpfp(small_config(replications=2, **{field: values}))
        assert calls == []

    def test_distinct_values_solve_each_cell(self, monkeypatch):
        calls = []
        real = experiments._solve

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(experiments, "_solve", counting)
        result = run_tpfp(small_config(replications=2, dims=(6, 8)))
        assert len(calls) == 4 and len(result.cells) == 2

    @pytest.mark.parametrize("field, values, message", [
        ("dims", (8, 0), "dimension p=0 must be at least 1"),
        ("dims", (-3,), "dimension p=-3 must be at least 1"),
        ("sample_sizes", (150, 1), "sample size n=1 must be at least 2"),
        ("sample_sizes", (0,), "sample size n=0 must be at least 2"),
    ])
    def test_dimension_and_sample_size_bounds(self, field, values, message):
        with pytest.raises(ConfigError, match=message):
            small_config(**{field: values})

    def test_star_that_does_not_fit_a_later_p_runs_no_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "_solve", lambda *a: calls.append(a))
        star = GraphSpec(kind="star", star_d=25, star_diag=(2.0, 2.5),
                         star_offdiag=(0.3, 0.45))
        with pytest.raises(DataFormatError, match="degree d=25"):
            run_tpfp(small_config(graph=star, dims=(40, 10), replications=2))
        assert calls == []

    @pytest.mark.parametrize("constants", [(np.nan, 1.0), (1.0, np.inf), (-0.5, 1.0)])
    def test_fixed_constants_finite_and_nonnegative(self, constants):
        with pytest.raises(ConfigError, match="fixed_constants"):
            small_config(fixed_constants=constants)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            small_config(threads=threads)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_ci_level_outside_unit_interval(self, level):
        with pytest.raises(ConfigError, match="ci_level"):
            small_config(ci_level=level)
