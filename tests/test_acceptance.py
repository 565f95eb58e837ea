"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run pytest with -s to stream them).

Monte Carlo criteria use fixed seeds throughout; tolerances are stated
inline next to each assertion.
"""

import time

import numpy as np
import pytest
from scipy import stats

from multiggm import (
    CovarianceSet,
    ExperimentConfig,
    PenaltyPair,
    PrecisionSet,
    SolverOptions,
    chain_precision,
    check_irrepresentability,
    debias,
    ggl_objective,
    invert_pd,
    normal_cdf,
    prox_sparse_group,
    restricted_hessian,
    run_coverage,
    run_normality,
    run_sign_consistency,
    run_supnorm,
    solve_ggl,
)
from multiggm.experiments import RUNNERS
from multiggm.graphs import GraphSpec, two_population_chain_spec
from multiggm.io import write_csv_atomic, write_json_atomic

from oracles import (
    dense_alpha,
    pg_solve,
    prox_grid_search,
    prox_inclusion_violation,
    random_covariance_set,
)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_01_solver_matches_proximal_gradient_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_elem = worst_obj = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 5))
        k = int(rng.integers(1, 3))
        lam = float(rng.choice([0.0, 0.05, 0.2]))
        rho = float(rng.choice([0.0, 0.05, 0.2]))
        mats = random_covariance_set(rng, p, k)
        covs = CovarianceSet(mats, [50] * k)
        pen = PenaltyPair(lam, rho)
        admm = solve_ggl(covs, pen, SolverOptions(tol_abs=1e-9))
        oracle, _ = pg_solve(mats, lam, rho, adaptive=True, stall=1e-13)
        worst_elem = max(
            worst_elem,
            max(np.max(np.abs(a - o)) for a, o in zip(admm.estimate.matrices, oracle)),
        )
        worst_obj = max(
            worst_obj, abs(ggl_objective(oracle, covs, pen) - admm.objective)
        )
    elapsed = time.time() - t0
    assert worst_elem <= 1e-4
    assert worst_obj <= 1e-8
    assert elapsed < 60.0
    report(1, f"50 instances, max elementwise gap {worst_elem:.2e}, "
              f"max objective gap {worst_obj:.2e}, {elapsed:.1f}s")


def test_criterion_02_kkt_certificate_on_random_instances():
    t0 = time.time()
    rng = np.random.default_rng(777)
    opts = SolverOptions()
    worst = 0.0
    for i in range(100):
        p = int(rng.choice([3, 5, 10, 20, 50]))
        k = int(rng.integers(1, 4))
        covs = CovarianceSet(random_covariance_set(rng, p, k), [80] * k)
        pen = PenaltyPair(float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, 0.3)))
        rep = solve_ggl(covs, pen, opts)
        assert rep.converged, f"instance {i} did not converge"
        worst = max(worst, rep.kkt_violation)
    elapsed = time.time() - t0
    assert worst <= 10 * opts.tol_abs
    assert elapsed < 120.0
    report(2, f"100 instances up to p=50, K=3; max KKT violation {worst:.2e} "
              f"<= {10 * opts.tol_abs:.0e}, {elapsed:.1f}s")


def test_criterion_03_prox_correctness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        v = rng.standard_normal(k) * rng.uniform(0.05, 4.0)
        lam = float(rng.uniform(0.0, 2.0))
        rho = float(rng.uniform(0.0, 2.0))
        x = prox_sparse_group(v, lam, rho)
        worst = max(worst, prox_inclusion_violation(x, v, lam, rho))
    assert worst <= 1e-8
    pinned = prox_sparse_group(np.array([1.0, -0.5]), 0.2, 0.3)
    assert pinned == pytest.approx([0.51911, -0.19466], abs=1e-4)
    oracle = prox_grid_search([1.0, -0.5], 0.2, 0.3)
    gap = float(np.max(np.abs(pinned - oracle)))
    assert gap <= 1e-4
    report(3, f"1000 groups max inclusion violation {worst:.2e}; pinned case vs "
              f"grid oracle gap {gap:.1e}")


def test_criterion_04_debias_fixed_point():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(2, 51))
        m = random_covariance_set(rng, p, 1)[0]
        est = PrecisionSet([m], positive_definite=True)
        covs = CovarianceSet([invert_pd(m)], [100])
        out = debias(est, covs)
        worst = max(worst, float(np.max(np.abs(out.matrices[0] - m))))
    assert worst <= 1e-10
    report(4, f"20 random PD matrices p<=50, max |debias(W, W^-1) - W| = {worst:.2e}")


def _coverage_case(p, B, tol_cov):
    config = ExperimentConfig(
        graph=two_population_chain_spec(),
        dims=(p,),
        sample_sizes=(600,),
        replications=B,
        base_seed=20240701,
        penalty_rule="ebic_grid",
    )
    result = run_coverage(config)
    cell = result.cells[(p, 600, 0, "S")]
    assert abs(cell["coverage"] - 0.9539) <= tol_cov
    assert abs(cell["mean_length"] - 0.1423) <= 0.20 * 0.1423
    return cell


def test_criterion_05_coverage_reduced_variant():
    t0 = time.time()
    cell = _coverage_case(p=25, B=50, tol_cov=0.06)
    elapsed = time.time() - t0
    assert elapsed < 240.0
    report("5 (reduced)", f"p=25 B=50: coverage on S k=1 {cell['coverage']:.4f} "
           f"(target 0.9539±0.06), length {cell['mean_length']:.4f} "
           f"(target 0.1423±20%), {elapsed:.0f}s")


def test_criterion_05_coverage_full_table_anchor():
    t0 = time.time()
    cell = _coverage_case(p=50, B=100, tol_cov=0.04)
    elapsed = time.time() - t0
    assert elapsed < 1200.0
    report("5 (full)", f"p=50 B=100 n=600: coverage on S k=1 {cell['coverage']:.4f} "
           f"(target 0.9539±0.04), length {cell['mean_length']:.4f} "
           f"(target 0.1423±20%), {elapsed:.0f}s")


def test_criterion_06_sign_consistency_trend():
    t0 = time.time()
    config = ExperimentConfig(
        graph=two_population_chain_spec(),
        dims=(50,),
        sample_sizes=(200, 600, 700),
        replications=50,
        base_seed=314159,
        penalty_rule="fixed",
        fixed_constants=(1.0, 3.5),
    )
    result = run_sign_consistency(config)
    frac = {n: result.cells[(50, n)]["success_fraction"] for n in (200, 600, 700)}
    assert frac[600] - frac[200] >= 0.5
    assert frac[700] >= 0.9
    report(6, f"success fractions {frac} (need 600-200 gap >= 0.5 and >= 0.9 at "
              f"n=700), {time.time() - t0:.0f}s")


def test_criterion_07_normality_calibration():
    t0 = time.time()
    config = ExperimentConfig(
        graph=two_population_chain_spec(),
        dims=(50,),
        sample_sizes=(600,),
        replications=200,
        base_seed=271828,
        penalty_rule="fixed",
        fixed_constants=(0.25, 0.5),
        edges_of_interest=((1, 2),),  # 1-based (2,3)
    )
    result = run_normality(config)
    details = []
    for k in (1, 2):
        vals = np.array(result.samples[f"p50/n600/k{k}:(2,3)"])
        mean, var = float(vals.mean()), float(vals.var(ddof=1))
        assert abs(mean) <= 0.15, f"population {k} standardized mean {mean}"
        assert 0.7 <= var <= 1.3, f"population {k} standardized variance {var}"
        details.append(f"k{k}: mean {mean:+.3f} var {var:.3f}")
    pooled = np.array(result.samples["p50/n600/T:(2,3)"])
    ks = stats.kstest(pooled, "norm")
    assert ks.pvalue >= 0.01
    report(7, f"edge (2,3) B=200: {'; '.join(details)}; pooled KS p={ks.pvalue:.3f}, "
              f"{time.time() - t0:.0f}s")


def test_criterion_08_null_p_value_uniformity():
    t0 = time.time()
    config = ExperimentConfig(
        graph=GraphSpec(kind="chain", chain_rho=(0.2, 0.2)),
        dims=(50,),
        sample_sizes=(600,),
        replications=500,
        base_seed=161803,
        penalty_rule="fixed",
        fixed_constants=(0.25, 0.5),
        edges_of_interest=((1, 2),),
    )
    result = run_normality(config)
    pooled = np.array(result.samples["p50/n600/T:(2,3)"])
    p_values = 2.0 * (1.0 - np.vectorize(normal_cdf)(np.abs(pooled)))
    rejection = float(np.mean(p_values < 0.05))
    assert 0.02 <= rejection <= 0.09
    ks = stats.kstest(p_values, "uniform")
    assert ks.pvalue >= 0.01
    report(8, f"identical populations B=500: rejection rate {rejection:.3f} in "
              f"[0.02, 0.09], p-value KS-vs-uniform p={ks.pvalue:.3f}, "
              f"{time.time() - t0:.0f}s")


def test_criterion_09_diagnostics_against_dense_oracle():
    rng = np.random.default_rng(1234)
    for p in range(2, 7):
        for _ in range(20):
            sigma = random_covariance_set(rng, p, 1)[0]
            gamma = np.kron(sigma, sigma)
            pairs = [(a, b) for a in range(p) for b in range(p) if rng.random() < 0.7]
            pairs = pairs or [(0, 0)]
            sub = restricted_hessian(sigma, pairs)
            idx = [a * p + b for a, b in pairs]
            assert np.array_equal(sub, gamma[np.ix_(idx, idx)])
    m = chain_precision(5, 0.2)
    alpha = check_irrepresentability(m)
    oracle = dense_alpha(m)
    assert abs(alpha - oracle) <= 1e-10
    assert alpha > 0
    report(9, f"restricted Hessian exact for p<=6 (100 draws); chain p=5 alpha "
              f"{alpha:.12f} matches dense oracle within 1e-10")


def test_criterion_10_supnorm_rate_band():
    t0 = time.time()
    config = ExperimentConfig(
        graph=two_population_chain_spec(),
        dims=(50,),
        sample_sizes=(200, 400, 600),
        replications=30,
        base_seed=99991,
        penalty_rule="fixed",
        fixed_constants=(1.0, 3.5),
    )
    result = run_supnorm(config)
    scaled = {}
    for n in (200, 400, 600):
        raw = np.mean([result.cells[(50, n, k)]["mean_supnorm"] for k in (0, 1)])
        scaled[n] = raw * np.sqrt(n / np.log(50))
    band = max(scaled.values()) / min(scaled.values())
    assert band <= 3.0
    report(10, f"scaled sup-norm {dict((n, round(v, 3)) for n, v in scaled.items())}, "
               f"max/min = {band:.2f} <= 3, {time.time() - t0:.0f}s")


def test_criterion_11_determinism_of_csv_outputs(tmp_path):
    config = ExperimentConfig(
        graph=two_population_chain_spec(),
        dims=(10,),
        sample_sizes=(150,),
        replications=5,
        base_seed=55,
        penalty_rule="fixed",
        fixed_constants=(1.0, 3.0),
        edges_of_interest=((0, 1),),
    )
    for kind, runner in sorted(RUNNERS.items()):
        first, second = runner(config), runner(config)
        for name, result in (("a", first), ("b", second)):
            write_csv_atomic(result.csv_rows(), str(tmp_path / f"{name}-{kind}.csv"))
            write_json_atomic(result.to_jsonable(), str(tmp_path / f"{name}-{kind}.json"))
        for ext in ("csv", "json"):
            a = tmp_path / f"a-{kind}.{ext}"
            assert a.read_bytes() == (tmp_path / f"b-{kind}.{ext}").read_bytes()
    report(11, "rerun with identical config and seed reproduces all CSV and JSON "
               f"outputs byte-identically ({len(RUNNERS)} experiment kinds)")
