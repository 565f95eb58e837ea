"""Monte Carlo harness: consistency, error, normality, and coverage studies.

Every experiment sweeps a grid of (dimension p, sample size n) cells.  Per
cell it runs B replications; replication ``b`` draws its data on the stream

    derive_seed(base_seed, p, n, b) ^ k          (population k)

so results are a pure function of (config, base_seed), independent of
execution order, and any subset can be recomputed in isolation.  Penalty
parameters come either from fixed constants or from an e-BIC grid search run
once per cell on the first replication's data (set ``retune_per_replication``
to re-tune every draw).

Failure accounting: replications whose solve does not converge count as
failures in the sign-consistency proportion and are excluded, with a logged
count, from averaged metrics (TP/FP, sup-norm, normality, coverage).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CovarianceSet,
    MultiPopDataset,
    PrecisionSet,
    derive_seed,
    draw_mvn,
    population_seed,
    sample_covariance,
)
from .errors import ConfigError, DataFormatError
from .graphs import GraphSpec
from .inference import debias, entry_variances, upper_quantile
from .selection import TuningGrid, penalty_scale, tune_penalties
from .solver import PenaltyPair, SolverOptions, solve_ggl

# Indirection point so tests can inject oracle estimates in place of solves.
_solve = solve_ggl


@dataclass(frozen=True)
class ExperimentConfig:
    graph: GraphSpec
    dims: tuple[int, ...]
    sample_sizes: tuple[int, ...]
    replications: int
    base_seed: int
    penalty_rule: str = "ebic_grid"
    fixed_constants: tuple[float, float] = (1.0, 3.5)
    grid: TuningGrid = field(default_factory=TuningGrid)
    solver: SolverOptions = field(default_factory=SolverOptions)
    alpha_level: float = 0.05
    ci_level: float = 0.95
    edges_of_interest: tuple[tuple[int, int], ...] = ()
    retune_per_replication: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if self.penalty_rule not in ("ebic_grid", "fixed"):
            raise ConfigError(f"unknown penalty rule {self.penalty_rule!r}")
        if not self.dims or not self.sample_sizes:
            raise ConfigError("dims and sample_sizes must be nonempty")
        object.__setattr__(self, "dims", tuple(int(p) for p in self.dims))
        object.__setattr__(
            self, "sample_sizes", tuple(int(n) for n in self.sample_sizes)
        )
        object.__setattr__(
            self,
            "edges_of_interest",
            tuple((int(i), int(j)) for i, j in self.edges_of_interest),
        )


@dataclass
class ExperimentResult:
    """Aggregated output of one experiment run.

    ``cells`` maps a structured key to the aggregate payload for that cell;
    ``samples`` holds raw per-replication values where the experiment emits
    them (normality).  ``seeds`` records the base seed, the derivation rule,
    and the derived replication seeds per cell.
    """

    kind: str
    graph_kind: str
    cells: dict
    samples: dict
    failure_counts: dict
    seeds: dict

    def csv_rows(self) -> list[list]:
        if self.kind == "consistency":
            rows = [["graph", "p", "n", "replications", "success_fraction", "failures"]]
            for (p, n), value in sorted(self.cells.items()):
                rows.append(
                    [self.graph_kind, p, n, value["replications"], value["success_fraction"],
                     self.failure_counts.get((p, n), 0)]
                )
            return rows
        if self.kind == "tpfp":
            rows = [["graph", "p", "n", "replications", "mean_tp", "mean_fp", "excluded"]]
            for (p, n), value in sorted(self.cells.items()):
                rows.append(
                    [self.graph_kind, p, n, value["replications"], value["mean_tp"],
                     value["mean_fp"], self.failure_counts.get((p, n), 0)]
                )
            return rows
        if self.kind == "supnorm":
            rows = [["graph", "p", "n", "population", "replications", "mean_supnorm", "excluded"]]
            for (p, n, k), value in sorted(self.cells.items()):
                rows.append(
                    [self.graph_kind, p, n, k + 1, value["replications"],
                     value["mean_supnorm"], self.failure_counts.get((p, n), 0)]
                )
            return rows
        if self.kind == "normality":
            rows = [["edge", "standardized_value"]]
            for key in sorted(self.samples):
                for v in self.samples[key]:
                    rows.append([key, v])
            return rows
        if self.kind == "coverage":
            rows = [["graph", "p", "n", "population", "edge_set", "coverage",
                     "mean_length", "edges", "replications"]]
            for (p, n, k, which), value in sorted(self.cells.items()):
                rows.append(
                    [self.graph_kind, p, n, k + 1, which, value["coverage"],
                     value["mean_length"], value["edges"], value["replications"]]
                )
            return rows
        raise DataFormatError(f"unknown experiment kind {self.kind!r}")

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "graph": self.graph_kind,
            "cells": {self._key_str(k): v for k, v in sorted(self.cells.items())},
            "samples": {k: list(v) for k, v in sorted(self.samples.items())},
            "failure_counts": {
                self._key_str(k): v for k, v in sorted(self.failure_counts.items())
            },
            "seeds": self.seeds,
        }

    @staticmethod
    def _key_str(key) -> str:
        if isinstance(key, tuple):
            return "/".join(str(x) for x in key)
        return str(key)


def _rep_seed(base_seed: int, p: int, n: int, b: int) -> int:
    return derive_seed(base_seed, p, n, b)


def _draw_covs(truth: PrecisionSet, n: int, rep_seed: int) -> CovarianceSet:
    data = MultiPopDataset(
        [
            draw_mvn(m, n, population_seed(rep_seed, k))
            for k, m in enumerate(truth.matrices)
        ]
    )
    return sample_covariance(data)


def _tuned_penalty(config: ExperimentConfig, covs: CovarianceSet) -> PenaltyPair:
    return tune_penalties(covs, config.grid, config.solver).best_penalty


def _signed_pattern(matrix: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    iu = np.triu_indices(matrix.shape[0], k=1)
    vals = matrix[iu]
    out = np.sign(vals).astype(np.int8)
    out[np.abs(vals) <= tol] = 0
    return out


def _run_cell(config: ExperimentConfig, truth: PrecisionSet, p: int, n: int, worker):
    """Shared per-cell engine: resolves the penalty, fans out replications.

    The e-BIC rule tunes once on the first replication's data, or on every
    replication's data with ``retune_per_replication``.
    """
    if config.penalty_rule == "fixed":
        c1, c2 = config.fixed_constants
        scale = penalty_scale(p, n)
        penalty = PenaltyPair(c1 * scale, c2 * scale)
    elif config.retune_per_replication:
        penalty = None
    else:
        first = _draw_covs(truth, n, _rep_seed(config.base_seed, p, n, 0))
        penalty = _tuned_penalty(config, first)

    def one(b: int):
        rep_seed = _rep_seed(config.base_seed, p, n, b)
        covs = _draw_covs(truth, n, rep_seed)
        pen = penalty if penalty is not None else _tuned_penalty(config, covs)
        report = _solve(covs, pen, config.solver)
        return worker(b, covs, report)

    reps = range(config.replications)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(one, reps))
    else:
        results = [one(b) for b in reps]
    seeds = [_rep_seed(config.base_seed, p, n, b) for b in reps]
    return results, seeds


def _seed_record(config: ExperimentConfig, per_cell: dict) -> dict:
    return {
        "base_seed": config.base_seed,
        "rule": "derive_seed(base_seed, p, n, b) XOR population_index",
        "per_cell": per_cell,
    }


def run_sign_consistency(config: ExperimentConfig) -> ExperimentResult:
    """Proportion of replications recovering the exact signed support in every
    population."""
    cells, failures, seed_log = {}, {}, {}
    for p in config.dims:
        truth = config.graph.build(p)
        true_patterns = [_signed_pattern(m, 0.0) for m in truth.matrices]
        for n in config.sample_sizes:
            def worker(b, covs, report):
                if not report.converged:
                    return None
                ok = all(
                    np.array_equal(
                        _signed_pattern(est), true_patterns[k]
                    )
                    for k, est in enumerate(report.estimate.matrices)
                )
                return bool(ok)

            results, seeds = _run_cell(config, truth, p, n, worker)
            n_fail = sum(r is None for r in results)
            successes = sum(bool(r) for r in results if r is not None)
            cells[(p, n)] = {
                "replications": config.replications,
                "success_fraction": successes / config.replications,
            }
            failures[(p, n)] = n_fail
            seed_log[f"{p}/{n}"] = seeds
    return ExperimentResult(
        kind="consistency",
        graph_kind=config.graph.kind,
        cells=cells,
        samples={},
        failure_counts=failures,
        seeds=_seed_record(config, seed_log),
    )


def run_tpfp(config: ExperimentConfig, edge_tol: float = 1e-8) -> ExperimentResult:
    """Mean true-positive and false-positive edge counts per cell, averaged
    over replications and populations."""
    cells, failures, seed_log = {}, {}, {}
    for p in config.dims:
        truth = config.graph.build(p)
        iu = np.triu_indices(p, k=1)
        true_edges = [np.abs(m[iu]) > 0 for m in truth.matrices]
        for n in config.sample_sizes:
            def worker(b, covs, report):
                if not report.converged:
                    return None
                tp = fp = 0
                for k, est in enumerate(report.estimate.matrices):
                    found = np.abs(est[iu]) > edge_tol
                    tp += int(np.sum(found & true_edges[k]))
                    fp += int(np.sum(found & ~true_edges[k]))
                return tp / truth.K, fp / truth.K

            results, seeds = _run_cell(config, truth, p, n, worker)
            ok = [r for r in results if r is not None]
            failures[(p, n)] = len(results) - len(ok)
            cells[(p, n)] = {
                "replications": len(ok),
                "mean_tp": float(np.mean([r[0] for r in ok])) if ok else float("nan"),
                "mean_fp": float(np.mean([r[1] for r in ok])) if ok else float("nan"),
            }
            seed_log[f"{p}/{n}"] = seeds
    return ExperimentResult(
        kind="tpfp",
        graph_kind=config.graph.kind,
        cells=cells,
        samples={},
        failure_counts=failures,
        seeds=_seed_record(config, seed_log),
    )


def run_supnorm(config: ExperimentConfig) -> ExperimentResult:
    """Mean sup-norm estimation error per (p, n, population)."""
    cells, failures, seed_log = {}, {}, {}
    for p in config.dims:
        truth = config.graph.build(p)
        for n in config.sample_sizes:
            def worker(b, covs, report):
                if not report.converged:
                    return None
                return [
                    float(np.max(np.abs(est - truth.matrices[k])))
                    for k, est in enumerate(report.estimate.matrices)
                ]

            results, seeds = _run_cell(config, truth, p, n, worker)
            ok = [r for r in results if r is not None]
            failures[(p, n)] = len(results) - len(ok)
            for k in range(truth.K):
                vals = [r[k] for r in ok]
                cells[(p, n, k)] = {
                    "replications": len(ok),
                    "mean_supnorm": float(np.mean(vals)) if vals else float("nan"),
                }
            seed_log[f"{p}/{n}"] = seeds
    return ExperimentResult(
        kind="supnorm",
        graph_kind=config.graph.kind,
        cells=cells,
        samples={},
        failure_counts=failures,
        seeds=_seed_record(config, seed_log),
    )


def run_normality(config: ExperimentConfig) -> ExperimentResult:
    """Standardized debiased statistics for the configured entries.

    Per entry (i, j) and population k the emitted sample is
    ``sqrt(n_k) * (D_k[i, j] - true_k[i, j]) / sigma_hat_k[i, j]``; for
    two-population runs the pooled difference statistic (coefficients
    (1, -1), centered at the true difference) is emitted under the label
    ``T:(i+1,j+1)``.  Labels carry 1-based indices for plotting.
    """
    if not config.edges_of_interest:
        raise DataFormatError("normality experiment needs edges_of_interest")
    samples, failures, seed_log = {}, {}, {}
    for p in config.dims:
        truth = config.graph.build(p)
        for i, j in config.edges_of_interest:
            if not (0 <= i < p and 0 <= j < p):
                raise DataFormatError(f"edge ({i}, {j}) out of range for p={p}")
        for n in config.sample_sizes:
            def worker(b, covs, report):
                if not report.converged:
                    return None
                deb = debias(report.estimate, covs)
                variances = [entry_variances(m) for m in report.estimate.matrices]
                out = {}
                for (i, j) in config.edges_of_interest:
                    per_pop = []
                    se2 = 0.0
                    diff = 0.0
                    true_diff = 0.0
                    for k in range(truth.K):
                        sig2 = variances[k][i, j]
                        n_k = covs.sample_sizes[k]
                        per_pop.append(
                            np.sqrt(n_k)
                            * (deb.matrices[k][i, j] - truth.matrices[k][i, j])
                            / np.sqrt(sig2)
                        )
                        a = (1.0, -1.0)[k] if truth.K == 2 else 0.0
                        diff += a * deb.matrices[k][i, j]
                        true_diff += a * truth.matrices[k][i, j]
                        se2 += a * a * sig2 / n_k
                    pooled = (diff - true_diff) / np.sqrt(se2) if truth.K == 2 else None
                    out[(i, j)] = (per_pop, pooled)
                return out

            results, seeds = _run_cell(config, truth, p, n, worker)
            ok = [r for r in results if r is not None]
            failures[(p, n)] = len(results) - len(ok)
            for (i, j) in config.edges_of_interest:
                label = f"({i + 1},{j + 1})"
                for k in range(truth.K):
                    samples[f"p{p}/n{n}/k{k + 1}:{label}"] = [
                        float(r[(i, j)][0][k]) for r in ok
                    ]
                if truth.K == 2:
                    samples[f"p{p}/n{n}/T:{label}"] = [
                        float(r[(i, j)][1]) for r in ok
                    ]
            seed_log[f"{p}/{n}"] = seeds
    return ExperimentResult(
        kind="normality",
        graph_kind=config.graph.kind,
        cells={},
        samples=samples,
        failure_counts=failures,
        seeds=_seed_record(config, seed_log),
    )


def run_coverage(config: ExperimentConfig) -> ExperimentResult:
    """Average CI coverage and length over the support set and its complement.

    Both sets range over unordered off-diagonal pairs of the true support
    (which the generators share across populations).  The interval for entry
    (i, j) of population k is the debiased point estimate plus/minus
    ``tau * sigma_hat / sqrt(n_k)`` at the configured level.
    """
    tau = upper_quantile(1.0 - config.ci_level)
    cells, failures, seed_log = {}, {}, {}
    for p in config.dims:
        truth = config.graph.build(p)
        iu = np.triu_indices(p, k=1)
        s_masks = [np.abs(m[iu]) > 0 for m in truth.matrices]
        for n in config.sample_sizes:
            def worker(b, covs, report):
                if not report.converged:
                    return None
                deb = debias(report.estimate, covs)
                out = []
                for k in range(truth.K):
                    sig = np.sqrt(entry_variances(report.estimate.matrices[k]))
                    half = tau * sig / np.sqrt(covs.sample_sizes[k])
                    inside = (np.abs(deb.matrices[k] - truth.matrices[k]) <= half)[iu]
                    length = (2.0 * half)[iu]
                    mask = s_masks[k]
                    out.append(
                        (
                            float(inside[mask].mean()) if mask.any() else float("nan"),
                            float(length[mask].mean()) if mask.any() else float("nan"),
                            float(inside[~mask].mean()) if (~mask).any() else float("nan"),
                            float(length[~mask].mean()) if (~mask).any() else float("nan"),
                        )
                    )
                return out

            results, seeds = _run_cell(config, truth, p, n, worker)
            ok = [r for r in results if r is not None]
            failures[(p, n)] = len(results) - len(ok)
            for k in range(truth.K):
                n_s = int(s_masks[k].sum())
                n_sc = int((~s_masks[k]).sum())
                for which, ci, li, count in (
                    ("S", 0, 1, n_s),
                    ("Sc", 2, 3, n_sc),
                ):
                    vals_c = [r[k][ci] for r in ok]
                    vals_l = [r[k][li] for r in ok]
                    cells[(p, n, k, which)] = {
                        "coverage": float(np.mean(vals_c)) if vals_c else float("nan"),
                        "mean_length": float(np.mean(vals_l)) if vals_l else float("nan"),
                        "edges": count,
                        "replications": len(ok),
                    }
            seed_log[f"{p}/{n}"] = seeds
    return ExperimentResult(
        kind="coverage",
        graph_kind=config.graph.kind,
        cells=cells,
        samples={},
        failure_counts=failures,
        seeds=_seed_record(config, seed_log),
    )


RUNNERS = {
    "consistency": run_sign_consistency,
    "tpfp": run_tpfp,
    "supnorm": run_supnorm,
    "normality": run_normality,
    "coverage": run_coverage,
}
