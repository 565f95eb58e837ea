"""Extended-BIC scoring and penalty-constant grid search.

Penalties follow the rate scaling lam = C1 * sqrt(log p / n) and
rho = C2 * sqrt(log p / n) with n = min_k n_k, so the grid search runs over
the dimensionless constants (C1, C2).  The score per fitted model is

    ebic = -2 * sum_k n_k * [logdet W_k - trace(S_k W_k)]
           + sum_k |E_k| * log n  +  4 * gamma * log p * sum_k |E_k|,

where |E_k| counts unordered off-diagonal pairs with |W_k[i, j]| above
``core.EDGE_TOL``.  gamma = 0 recovers ordinary BIC; gamma = 0.5 is the default.

:func:`tune_penalties` solves each (C1, C2) cell on its own, from the
solver's cold start.  The cells share nothing, so they run side by side in
forked lanes (:mod:`multiggm._lanes`), one per usable CPU up to the number
of cells, or one after another where the lanes give one (off the main
thread, or inside another map's lane).  The map runs every lane at one
OpenBLAS thread, so each cell is the standalone solve and score at its
penalty, bit for bit, at any lane count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lanes import lane_count, map_in_lanes
from .core import CovarianceSet, PrecisionSet, edge_mask
from .errors import ConvergenceError, DataFormatError, NotPositiveDefiniteError
from .solver import PenaltyPair, SolverOptions, solve_ggl

DEFAULT_GRID_VALUES = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class EbicScore:
    value: float
    loglik_term: float
    edge_counts: tuple[int, ...]
    gamma: float


@dataclass(frozen=True)
class TuningGrid:
    c1_values: tuple[float, ...] = DEFAULT_GRID_VALUES
    c2_values: tuple[float, ...] = DEFAULT_GRID_VALUES
    gamma: float = 0.5

    def __post_init__(self):
        for name, vals in (("c1_values", self.c1_values), ("c2_values", self.c2_values)):
            vals = tuple(float(v) for v in vals)
            if not vals:
                raise DataFormatError(f"{name} must be nonempty")
            if any(v <= 0 for v in vals):
                raise DataFormatError(f"{name} must be positive")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise DataFormatError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, vals)
        if self.gamma < 0:
            raise DataFormatError("gamma must be nonnegative")


@dataclass(frozen=True)
class TuningCell:
    """One grid evaluation; ``converged`` is False when the solve did not converge."""

    c1: float
    c2: float
    lam: float
    rho: float
    score: float
    edge_counts: tuple[int, ...]
    converged: bool
    iterations: int
    certificate_calls: int
    acceleration_restarts: int


@dataclass(frozen=True)
class TuningResult:
    best_constants: tuple[float, float]
    best_penalty: PenaltyPair
    table: tuple[TuningCell, ...]
    grid_lanes: int


def edge_count(matrix: np.ndarray) -> int:
    """Unordered off-diagonal pairs that are edges (:func:`~multiggm.core.edge_mask`)."""
    return int(np.count_nonzero(edge_mask(matrix)))


def penalty_scale(p: int, n: int) -> float:
    """The common rate factor sqrt(log p / n)."""
    if p < 1 or n < 1:
        raise DataFormatError("dimension and sample size must be positive")
    return math.sqrt(math.log(p) / n)


def ebic(estimate: PrecisionSet, covs: CovarianceSet, gamma: float = 0.5) -> EbicScore:
    """Extended-BIC score of a fitted precision set against its covariances."""
    if gamma < 0:
        raise DataFormatError("gamma must be nonnegative")
    if estimate.K != covs.K or estimate.p != covs.p:
        raise DataFormatError("estimate and covariance set do not match")
    n = min(covs.sample_sizes)
    p = covs.p
    loglik = 0.0
    counts = []
    for k, (w, s) in enumerate(zip(estimate.matrices, covs.matrices)):
        sign, logdet = np.linalg.slogdet(w)
        if sign <= 0:
            raise NotPositiveDefiniteError(f"estimate {k} has nonpositive determinant")
        loglik += -2.0 * covs.sample_sizes[k] * (logdet - float(np.sum(s * w)))
        counts.append(edge_count(w))
    total_edges = sum(counts)
    value = loglik + total_edges * math.log(n) + 4.0 * gamma * math.log(p) * total_edges
    return EbicScore(
        value=float(value),
        loglik_term=float(loglik),
        edge_counts=tuple(counts),
        gamma=float(gamma),
    )


def tune_penalties(
    covs: CovarianceSet,
    grid: TuningGrid = TuningGrid(),
    opts: SolverOptions = SolverOptions(),
) -> TuningResult:
    """Grid search over (C1, C2) minimizing the e-BIC.

    Each cell solves at lam = C1 * scale, rho = C2 * scale from the
    solver's cold start and is scored on its own.  One map runs the cells
    in C1-major order in ``grid_lanes`` forked lanes (see
    :mod:`multiggm._lanes`), and the table is its output in that order.
    The map runs every solve and score at one OpenBLAS thread, so the table is
    bit-identical at any lane count, and a failing cell raises here the
    error that the first failing cell in C1-major order raises.

    Non-converged cells are kept in the table but excluded from the argmin;
    exact score ties break toward the lexicographically larger (C1, C2),
    i.e. the sparser model.  Raises :class:`ConvergenceError` when no cell
    is valid.
    """
    covs.require_positive_diagonal()
    scale = penalty_scale(covs.p, min(covs.sample_sizes))

    def solve_cell(constants):
        c1, c2 = constants
        penalty = PenaltyPair(c1 * scale, c2 * scale)
        report = solve_ggl(covs, penalty, opts)
        if report.converged:
            score = ebic(report.estimate, covs, grid.gamma)
            value, counts = score.value, score.edge_counts
        else:
            value, counts = float("nan"), tuple([-1] * covs.K)
        return TuningCell(
            c1=c1,
            c2=c2,
            lam=penalty.lam,
            rho=penalty.rho,
            score=value,
            edge_counts=counts,
            converged=report.converged,
            iterations=report.iterations,
            certificate_calls=report.certificate_calls,
            acceleration_restarts=report.acceleration_restarts,
        )

    cells = [(c1, c2) for c1 in grid.c1_values for c2 in grid.c2_values]
    lanes = lane_count(len(cells))
    table = tuple(map_in_lanes(solve_cell, cells, lanes))
    valid = [c for c in table if c.converged]
    if not valid:
        raise ConvergenceError("no grid cell converged; cannot select penalties")
    best = min(valid, key=lambda c: (c.score, (-c.c1, -c.c2)))
    return TuningResult(
        best_constants=(best.c1, best.c2),
        best_penalty=PenaltyPair(best.lam, best.rho),
        table=table,
        grid_lanes=lanes,
    )


def score_table_rows(result: TuningResult) -> list[list]:
    """Rows for CSV export: header plus one row per grid cell."""
    if not result.table:
        return []
    K = len(result.table[0].edge_counts)
    header = ["c1", "c2", "lambda", "rho", "ebic"]
    header += [f"edges_k{k + 1}" for k in range(K)]
    header += ["converged"]
    rows = [header]
    for cell in result.table:
        rows.append(
            [cell.c1, cell.c2, cell.lam, cell.rho, cell.score]
            + list(cell.edge_counts)
            + [int(cell.converged)]
        )
    return rows
