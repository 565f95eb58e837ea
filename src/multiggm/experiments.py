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
count and their seeds, from averaged metrics (TP/FP, sup-norm, normality,
coverage).

A cell's replications run in ``min(threads, lane_count(B))`` forked lanes
(:mod:`multiggm._lanes`), which the map runs at one OpenBLAS thread each; a
replication's value does not depend on the lane that ran it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._lanes import lane_count, map_in_lanes
from .core import (
    CovarianceSet,
    MultiPopDataset,
    PrecisionSet,
    derive_seed,
    draw_mvn,
    edge_mask,
    population_seed,
    sample_covariance,
)
from .errors import ConfigError, DataFormatError
from .graphs import GraphSpec
from .inference import combine, debias, upper_quantile
from .selection import TuningGrid, penalty_scale, tune_penalties
from .solver import PenaltyPair, solve_ggl

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
    ci_level: float = 0.95
    edges_of_interest: tuple[tuple[int, int], ...] = ()
    retune_per_replication: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if self.threads < 1:
            raise ConfigError(f"threads must be at least 1, got {self.threads}")
        if self.penalty_rule not in ("ebic_grid", "fixed"):
            raise ConfigError(f"unknown penalty rule {self.penalty_rule!r}")
        if not self.dims or not self.sample_sizes:
            raise ConfigError("dims and sample_sizes must be nonempty")
        if not 0 < self.ci_level < 1:
            raise ConfigError(f"ci_level must lie strictly in (0, 1), got {self.ci_level}")
        if not all(math.isfinite(c) and c >= 0 for c in self.fixed_constants):
            raise ConfigError(
                f"fixed_constants must be finite and nonnegative, got {self.fixed_constants}"
            )
        object.__setattr__(self, "dims", tuple(int(p) for p in self.dims))
        object.__setattr__(
            self, "sample_sizes", tuple(int(n) for n in self.sample_sizes)
        )
        if min(self.dims) < 1:
            raise ConfigError(f"dimension p={min(self.dims)} must be at least 1")
        if min(self.sample_sizes) < 2:
            raise ConfigError(f"sample size n={min(self.sample_sizes)} must be at least 2")
        for name in ("dims", "sample_sizes"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat a value, got {list(values)}")
        object.__setattr__(
            self,
            "edges_of_interest",
            tuple((int(i), int(j)) for i, j in self.edges_of_interest),
        )
        p = min(self.dims)
        for i, j in self.edges_of_interest:
            if not (0 <= i < p and 0 <= j < p):
                raise ConfigError(f"edge ({i + 1},{j + 1}) out of range for p={p}")


@dataclass
class ExperimentResult:
    """Aggregated output of one experiment run.

    ``cells`` maps a structured key to the aggregate payload for that cell;
    ``samples`` holds raw per-replication values where the experiment emits
    them (normality).  ``seeds`` records the base seed, the derivation rule,
    and the derived replication seeds per cell.  ``failed_seeds`` maps each
    ``"p/n"`` cell with a failed replication to those replications' seeds,
    and ``lanes`` is the most lanes a cell's replications ran in; neither
    is part of :meth:`to_jsonable`.
    """

    kind: str
    graph_kind: str
    cells: dict
    samples: dict
    failure_counts: dict
    seeds: dict
    failed_seeds: dict = field(default_factory=dict)
    lanes: int = 1

    def csv_rows(self) -> list[list]:
        study = RUNNERS.get(self.kind)
        if study is None:
            raise DataFormatError(f"unknown experiment kind {self.kind!r}")
        entries = self.samples if study.emits_samples else self.cells
        rows = [list(study.header)]
        for key, entry in sorted(entries.items()):
            rows.extend(study.rows(self, key, entry))
        return rows

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
    def _key_str(key: tuple) -> str:
        return "/".join(str(x) for x in key)


def _draw_covs(truth: PrecisionSet, n: int, rep_seed: int) -> CovarianceSet:
    data = MultiPopDataset(
        [
            draw_mvn(m, n, population_seed(rep_seed, k))
            for k, m in enumerate(truth.matrices)
        ]
    )
    return sample_covariance(data)


def _signed_pattern(matrix: np.ndarray) -> np.ndarray:
    """Signs of the upper-triangle entries, 0 where :func:`edge_mask` has no edge."""
    out = np.sign(matrix[np.triu_indices(matrix.shape[0], k=1)]).astype(np.int8)
    out[~edge_mask(matrix)] = 0
    return out


def _run_cell(config: ExperimentConfig, truth: PrecisionSet, p: int, n: int, worker):
    """Resolve the cell's penalty and run its replications.

    The e-BIC rule tunes once on the first replication's data, or on every
    replication's data with ``retune_per_replication``.  Returns the
    worker's value per replication (``None`` where the solve did not
    converge), the replication seeds and the lanes they ran in.
    """
    seeds = [derive_seed(config.base_seed, p, n, b) for b in range(config.replications)]
    if config.penalty_rule == "fixed":
        c1, c2 = config.fixed_constants
        scale = penalty_scale(p, n)
        penalty = PenaltyPair(c1 * scale, c2 * scale)
    elif config.retune_per_replication:
        penalty = None
    else:
        first = _draw_covs(truth, n, seeds[0])
        penalty = tune_penalties(first, config.grid).best_penalty

    def one(seed: int):
        covs = _draw_covs(truth, n, seed)
        pen = penalty or tune_penalties(covs, config.grid).best_penalty
        report = _solve(covs, pen)
        return worker(covs, report) if report.converged else None

    lanes = min(config.threads, lane_count(len(seeds)))
    results = list(map_in_lanes(one, seeds, lanes))
    return results, seeds, lanes


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


class _Study:
    """A Monte Carlo study; ``study(config)`` runs it over every (p, n) cell.

    A study names its ``kind`` and CSV ``header`` and supplies three hooks.
    ``prepare(config, truth)`` runs once per dimension and returns the
    replication worker ``worker(covs, report)``, which sees converged solves
    only.  ``aggregate(config, truth, n, ok)`` turns the workers' values of
    one cell into ``{key: entry}``, kept in ``result.samples`` when
    ``emits_samples`` is set and in ``result.cells`` otherwise.
    ``rows(result, key, entry)`` gives the entry's CSV rows.
    """

    kind: str
    header: tuple[str, ...]
    emits_samples = False

    def __call__(self, config: ExperimentConfig) -> ExperimentResult:
        entries, failures, seed_log, failed_seeds, lanes = {}, {}, {}, {}, 1
        # Every truth first, so that a graph that does not fit some p fails
        # before any replication runs.
        truths = [config.graph.build(p) for p in config.dims]
        for p, truth in zip(config.dims, truths):
            worker = self.prepare(config, truth)
            for n in config.sample_sizes:
                results, seeds, cell_lanes = _run_cell(config, truth, p, n, worker)
                ok = [r for r in results if r is not None]
                failed = [seed for seed, r in zip(seeds, results) if r is None]
                failures[(p, n)] = len(failed)
                if failed:
                    failed_seeds[f"{p}/{n}"] = failed
                lanes = max(lanes, cell_lanes)
                entries.update(self.aggregate(config, truth, n, ok))
                seed_log[f"{p}/{n}"] = seeds
        return ExperimentResult(
            kind=self.kind,
            graph_kind=config.graph.kind,
            cells={} if self.emits_samples else entries,
            samples=entries if self.emits_samples else {},
            failure_counts=failures,
            seeds={
                "base_seed": config.base_seed,
                "rule": "derive_seed(base_seed, p, n, b) XOR population_index",
                "per_cell": seed_log,
            },
            failed_seeds=failed_seeds,
            lanes=lanes,
        )


class _Consistency(_Study):
    """Proportion of replications recovering the exact signed support in every
    population."""

    kind = "consistency"
    header = ("graph", "p", "n", "replications", "success_fraction", "failures")

    def prepare(self, config, truth):
        true_patterns = [_signed_pattern(m) for m in truth.matrices]
        return lambda covs, report: all(
            np.array_equal(_signed_pattern(est), true_patterns[k])
            for k, est in enumerate(report.estimate.matrices)
        )

    def aggregate(self, config, truth, n, ok):
        return {(truth.p, n): {"replications": config.replications,
                               "success_fraction": sum(ok) / config.replications}}

    def rows(self, result, key, cell):
        return [[result.graph_kind, *key, cell["replications"], cell["success_fraction"],
                 result.failure_counts.get(key, 0)]]


class _TpFp(_Study):
    """Mean true-positive and false-positive edge counts per cell, averaged
    over replications and populations."""

    kind = "tpfp"
    header = ("graph", "p", "n", "replications", "mean_tp", "mean_fp", "excluded")

    def prepare(self, config, truth):
        true_edges = [edge_mask(m) for m in truth.matrices]

        def worker(covs, report):
            tp = fp = 0
            for k, est in enumerate(report.estimate.matrices):
                found = edge_mask(est)
                tp += int(np.sum(found & true_edges[k]))
                fp += int(np.sum(found & ~true_edges[k]))
            return tp / truth.K, fp / truth.K

        return worker

    def aggregate(self, config, truth, n, ok):
        return {(truth.p, n): {"replications": len(ok),
                               "mean_tp": _mean([r[0] for r in ok]),
                               "mean_fp": _mean([r[1] for r in ok])}}

    def rows(self, result, key, cell):
        return [[result.graph_kind, *key, cell["replications"], cell["mean_tp"],
                 cell["mean_fp"], result.failure_counts.get(key, 0)]]


class _SupNorm(_Study):
    """Mean sup-norm estimation error per (p, n, population)."""

    kind = "supnorm"
    header = ("graph", "p", "n", "population", "replications", "mean_supnorm", "excluded")

    def prepare(self, config, truth):
        return lambda covs, report: [
            float(np.max(np.abs(est - truth.matrices[k])))
            for k, est in enumerate(report.estimate.matrices)
        ]

    def aggregate(self, config, truth, n, ok):
        return {
            (truth.p, n, k): {"replications": len(ok), "mean_supnorm": _mean([r[k] for r in ok])}
            for k in range(truth.K)
        }

    def rows(self, result, key, cell):
        p, n, k = key
        return [[result.graph_kind, p, n, k + 1, cell["replications"],
                 cell["mean_supnorm"], result.failure_counts.get((p, n), 0)]]


class _Normality(_Study):
    """Standardized debiased statistics for the configured entries.

    Per entry (i, j) and population k the emitted sample is the
    :func:`~multiggm.inference.combine` statistic of k's unit vector centred
    at the truth, ``sqrt(n_k) * (D_k[i, j] - true_k[i, j]) / sigma_hat_k[i, j]``;
    for two-population runs the pooled difference statistic (coefficients
    (1, -1), centered at the true difference) is emitted under the label
    ``T:(i+1,j+1)``.  Labels carry 1-based indices for plotting.
    """

    kind = "normality"
    header = ("edge", "standardized_value")
    emits_samples = True

    def prepare(self, config, truth):
        if not config.edges_of_interest:
            raise ConfigError("normality experiment needs edges_of_interest")

        rows, cols = np.array(config.edges_of_interest).T
        # One unit vector per population, then (1, -1) for the pooled "T".
        combos = list(np.eye(truth.K)) + ([(1.0, -1.0)] if truth.K == 2 else [])
        centres = [sum(a * m[rows, cols] for a, m in zip(c, truth.matrices)) for c in combos]

        def worker(covs, report):
            deb = debias(report.estimate, covs)
            stats = []
            for c, centre in zip(combos, centres):
                point, std_error = combine(deb, report.estimate, covs, c, rows, cols)
                stats.append((point - centre) / std_error)
            return stats

        return worker

    def aggregate(self, config, truth, n, ok):
        # One statistic per population, then the pooled difference "T".
        names = [f"k{k + 1}" for k in range(truth.K)] + (["T"] if truth.K == 2 else [])
        return {
            f"p{truth.p}/n{n}/{name}:({i + 1},{j + 1})": [float(r[x][m]) for r in ok]
            for m, (i, j) in enumerate(config.edges_of_interest)
            for x, name in enumerate(names)
        }

    def rows(self, result, label, values):
        return [[label, v] for v in values]


class _Coverage(_Study):
    """Average CI coverage and length over the support set and its complement.

    Both sets range over unordered off-diagonal pairs of the true support
    (which the generators share across populations).  The interval for entry
    (i, j) of population k is the debiased point estimate plus/minus
    ``tau * sigma_hat / sqrt(n_k)`` at the configured level, from
    :func:`~multiggm.inference.combine` at k's unit vector.
    """

    kind = "coverage"
    header = ("graph", "p", "n", "population", "edge_set", "coverage", "mean_length",
              "edges", "replications")

    def prepare(self, config, truth):
        tau = upper_quantile(1.0 - config.ci_level)
        iu = np.triu_indices(truth.p, k=1)
        s_masks = [edge_mask(m) for m in truth.matrices]

        def worker(covs, report):
            deb = debias(report.estimate, covs)
            out = []
            for k, mask in enumerate(s_masks):
                point, std_error = combine(deb, report.estimate, covs, np.eye(truth.K)[k], *iu)
                half = tau * std_error
                inside = np.abs(point - truth.matrices[k][iu]) <= half
                length = 2.0 * half
                out.append((_mean(inside[mask]), _mean(length[mask]),
                            _mean(inside[~mask]), _mean(length[~mask])))
            return out

        return worker

    def aggregate(self, config, truth, n, ok):
        cells = {}
        for k, m in enumerate(truth.matrices):
            mask = edge_mask(m)
            for which, ci, count in (("S", 0, int(mask.sum())), ("Sc", 2, int((~mask).sum()))):
                cells[(truth.p, n, k, which)] = {
                    "coverage": _mean([r[k][ci] for r in ok]),
                    "mean_length": _mean([r[k][ci + 1] for r in ok]),
                    "edges": count,
                    "replications": len(ok),
                }
        return cells

    def rows(self, result, key, cell):
        p, n, k, which = key
        return [[result.graph_kind, p, n, k + 1, which, cell["coverage"],
                 cell["mean_length"], cell["edges"], cell["replications"]]]


# The public entry points: calling one with an ExperimentConfig runs its study.
run_sign_consistency = _Consistency()
run_tpfp = _TpFp()
run_supnorm = _SupNorm()
run_normality = _Normality()
run_coverage = _Coverage()

RUNNERS = {
    study.kind: study
    for study in (run_sign_consistency, run_tpfp, run_supnorm, run_normality, run_coverage)
}
