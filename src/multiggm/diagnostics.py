"""Checkable quantities behind the estimation and inference guarantees.

Given *true* precision matrices these routines compute the constants and
conditions the asymptotic theory is stated in: operator-norm constants,
degree/sparsity statistics, the sub-Gaussian concentration radius, and the
two irrepresentability conditions.

The Hessian of the Gaussian log-likelihood at the truth is the Kronecker
product ``Sigma (x) Sigma``.  Its restriction to an index set of vertex
pairs is built entrywise as ``G[(a, b), (c, d)] = Sigma[a, c] * Sigma[b, d]``
without materializing the p^2 x p^2 matrix.  Index sets for the support
blocks are ordered pairs: both orientations of every support edge plus, by
default, all diagonal pairs, which is the convention that makes the support
block invertible; pass ``augment_diagonal=False`` for the literal
off-diagonal-only support set.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import PrecisionSet, check_symmetric, invert_pd
from .errors import DataFormatError, DimensionMismatchError
from .solver import PenaltyPair

RESTRICTED_HESSIAN_GUARD = 20000


@dataclass(frozen=True)
class EdgeSet:
    """Unordered off-diagonal support pairs (i < j) of a p x p matrix."""

    pairs: frozenset[tuple[int, int]]
    p: int

    def __init__(self, pairs, p):
        p = int(p)
        norm = set()
        for i, j in pairs:
            i, j = int(i), int(j)
            if i == j:
                raise DataFormatError("edge set holds off-diagonal pairs only")
            if not (0 <= i < p and 0 <= j < p):
                raise DimensionMismatchError(f"pair ({i}, {j}) out of range for p={p}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "pairs", frozenset(norm))
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return len(self.pairs)


def edge_set(precision: np.ndarray, tol: float = 1e-12) -> EdgeSet:
    """Support pairs with |entry| > tol, i < j."""
    if tol < 0:
        raise DataFormatError("tolerance must be nonnegative")
    m = check_symmetric(precision, "precision")
    iu, ju = np.triu_indices(m.shape[0], k=1)
    keep = np.abs(m[iu, ju]) > tol
    return EdgeSet(zip(iu[keep], ju[keep]), m.shape[0])


@dataclass(frozen=True)
class GraphStats:
    max_degree: int
    edge_total: int
    omega_min: float | None
    eigen_bounds: tuple[float, float]


def graph_stats(precision: np.ndarray, tol: float = 1e-12) -> GraphStats:
    """Max degree, edge count, smallest nonzero off-diagonal, eigenvalue range."""
    m = check_symmetric(precision, "precision")
    p = m.shape[0]
    off = np.abs(m) > tol
    np.fill_diagonal(off, False)
    degrees = off.sum(axis=1)
    iu = np.triu_indices(p, k=1)
    vals = np.abs(m[iu])
    nonzero = vals[vals > tol]
    eigs = np.linalg.eigvalsh(m)
    return GraphStats(
        max_degree=int(degrees.max()),
        edge_total=int(nonzero.size),
        omega_min=float(nonzero.min()) if nonzero.size else None,
        eigen_bounds=(float(eigs[0]), float(eigs[-1])),
    )


def restricted_hessian(sigma: np.ndarray, index_pairs) -> np.ndarray:
    """Kronecker Hessian restricted to ordered vertex pairs.

    ``index_pairs`` is a sequence of ordered pairs (a, b); the output entry
    at (row, col) for row pair (a, b) and column pair (c, d) is
    ``sigma[a, c] * sigma[b, d]``.
    """
    sigma = check_symmetric(sigma, "covariance")
    pairs = [(int(a), int(b)) for a, b in index_pairs]
    if len(pairs) > RESTRICTED_HESSIAN_GUARD:
        raise DataFormatError(
            f"index set of size {len(pairs)} exceeds the dense guard "
            f"({RESTRICTED_HESSIAN_GUARD})"
        )
    p = sigma.shape[0]
    for a, b in pairs:
        if not (0 <= a < p and 0 <= b < p):
            raise DimensionMismatchError(f"pair ({a}, {b}) out of range for p={p}")
    rows_a = np.array([a for a, _ in pairs])
    rows_b = np.array([b for _, b in pairs])
    return sigma[np.ix_(rows_a, rows_a)] * sigma[np.ix_(rows_b, rows_b)]


def support_indices(
    edges: EdgeSet, augment_diagonal: bool = True
) -> list[tuple[int, int]]:
    """Ordered index pairs of the support block: both orientations of every
    edge, optionally augmented with all diagonal pairs."""
    pairs = []
    if augment_diagonal:
        pairs.extend((i, i) for i in range(edges.p))
    for i, j in sorted(edges.pairs):
        pairs.append((i, j))
        pairs.append((j, i))
    return pairs


def _complement_indices(p: int, support: list[tuple[int, int]]) -> list[tuple[int, int]]:
    member = set(support)
    return [
        (a, b) for a in range(p) for b in range(p) if (a, b) not in member and a != b
    ]


def _rows_times_inverse(sigma, support, others):
    """Rows Gamma[e, S] @ Gamma[S, S]^{-1} for every ordered pair e."""
    # Imported here, as core.invert_pd does, so that estimation, tuning and
    # simulation never load scipy.linalg.
    from scipy.linalg import cho_factor, cho_solve

    gss = restricted_hessian(sigma, support)
    factor = cho_factor(gss)
    sa = np.array([a for a, _ in support])
    sb = np.array([b for _, b in support])
    ea = np.array([a for a, _ in others])
    eb = np.array([b for _, b in others])
    ges = sigma[np.ix_(ea, sa)] * sigma[np.ix_(eb, sb)]
    return cho_solve(factor, ges.T).T


def check_irrepresentability(
    precision: np.ndarray,
    tol: float = 1e-12,
    augment_diagonal: bool = True,
) -> float:
    """Slack of the support-recovery condition at a true precision matrix.

    Returns ``1 - max_{e not in S} || Gamma[e, S] @ Gamma[S, S]^{-1} ||_1``
    computed from the inverse covariance; the condition holds exactly when
    the returned value is positive.
    """
    precision = check_symmetric(precision, "precision")
    sigma = invert_pd(precision)
    edges = edge_set(precision, tol)
    support = support_indices(edges, augment_diagonal)
    if not support:
        raise DataFormatError("support index set is empty; nothing to invert")
    others = _complement_indices(precision.shape[0], support)
    if not others:
        return 1.0
    rows = _rows_times_inverse(sigma, support, others)
    return float(1.0 - np.abs(rows).sum(axis=1).max())


def check_between_group(
    precisions: PrecisionSet,
    penalty: PenaltyPair,
    psi: float,
    alpha: float,
    tol: float = 1e-12,
    augment_diagonal: bool = True,
) -> tuple[float, float, bool]:
    """Aggregate cross-population condition limiting non-edge correlation.

    Requires the support to be shared across populations.  Returns
    ``(lhs, rhs, holds)`` where

        lhs = max_e sqrt( sum_k ( Gamma_k[e, S] @ Gamma_k[S, S]^{-1} @ 1 )^2 )
        rhs = [ rho / ((lam + rho) * (1 - psi)) - alpha * sqrt(K) / 4 ]
              / (1 + alpha / 4)

    and ``holds`` is ``lhs < rhs``.
    """
    if not 0.0 < psi < 1.0:
        raise DataFormatError("psi must lie strictly in (0, 1)")
    if not 0.0 < alpha <= 1.0:
        raise DataFormatError("alpha must lie in (0, 1]")
    if penalty.lam + penalty.rho <= 0:
        raise DataFormatError("penalty parameters cannot both be zero here")
    edge_sets = [edge_set(m, tol) for m in precisions.matrices]
    shared = edge_sets[0].pairs
    for k, es in enumerate(edge_sets[1:], start=1):
        if es.pairs != shared:
            raise DataFormatError(
                f"population {k} has a different sparsity pattern; shared support "
                "is required"
            )
    support = support_indices(edge_sets[0], augment_diagonal)
    others = _complement_indices(precisions.p, support)

    K = precisions.K
    rhs = (
        penalty.rho / ((penalty.lam + penalty.rho) * (1.0 - psi))
        - alpha * math.sqrt(K) / 4.0
    ) / (1.0 + alpha / 4.0)
    if not others:
        return 0.0, float(rhs), 0.0 < rhs

    sq = np.zeros(len(others))
    for m in precisions.matrices:
        rows = _rows_times_inverse(invert_pd(m), support, others)
        sq += rows.sum(axis=1) ** 2
    lhs = float(np.sqrt(sq.max()))
    return lhs, float(rhs), lhs < rhs


def between_group_sufficient(penalty: PenaltyPair, psi: float, alpha: float, K: int) -> bool:
    """Shortcut: when ``1 - alpha/2 - alpha^2/4 <= rho / (sqrt(K) (lam+rho) (1-psi))``
    the single-population condition with slack ``alpha`` already implies the
    aggregate one."""
    lhs = 1.0 - alpha / 2.0 - alpha * alpha / 4.0
    rhs = penalty.rho / (math.sqrt(K) * (penalty.lam + penalty.rho) * (1.0 - psi))
    return lhs <= rhs


def rate_delta(n_k: int, p: int, gamma: float, k1: float, max_diag: float) -> float:
    """Concentration radius of one sample covariance in sup-norm.

    ``8 * (1 + 12 * k1^2) * max_diag * sqrt(2 * log(4 * p^gamma) / n_k)``
    where ``k1`` is the sub-Gaussian constant and ``max_diag`` the largest
    true covariance diagonal.  The theoretical penalty choice is
    ``lam + rho = (8 / alpha) * max_k delta_k``.
    """
    if gamma <= 2:
        raise DataFormatError("gamma must exceed 2")
    if n_k < 1:
        raise DataFormatError("sample size must be positive")
    return float(
        8.0
        * (1.0 + 12.0 * k1 * k1)
        * max_diag
        * math.sqrt(2.0 * math.log(4.0 * p**gamma) / n_k)
    )


def advisory_min_samples(
    p: int, gamma: float, k1: float, max_diag: float,
    kappa_sigma: float, kappa_gamma: float, d: int, alpha: float,
) -> float:
    """Advisory sample-size lower bound implied by the sup-norm theory.

    ``c1 * d^2 * (1 + 8/alpha)^2 * log(4 p^gamma)`` with
    ``c1 = (48 sqrt(2) (1 + 12 k1^2) kappa_gamma max_diag
    max(kappa_sigma, kappa_sigma^3 kappa_gamma))^2``.  Reported for context
    only; never enforced.
    """
    c1 = (
        48.0
        * math.sqrt(2.0)
        * (1.0 + 12.0 * k1 * k1)
        * kappa_gamma
        * max_diag
        * max(kappa_sigma, kappa_sigma**3 * kappa_gamma)
    ) ** 2
    return float(c1 * d * d * (1.0 + 8.0 / alpha) ** 2 * math.log(4.0 * p**gamma))


@dataclass(frozen=True)
class PopulationDiagnostics:
    kappa_sigma: float
    kappa_gamma: float
    max_degree: int
    edge_total: int
    omega_min: float | None
    eigen_bounds: tuple[float, float]
    delta: float
    advisory_min_n: float | None


@dataclass(frozen=True)
class DiagnosticsReport:
    populations: tuple[PopulationDiagnostics, ...]
    alpha_irr: float
    between_group_lhs: float
    between_group_rhs: float
    assumptions_hold: dict
    sample_size_ratios: tuple[float, ...] | None

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(asdict(self), indent=indent)


def diagnostics_report(
    precisions: PrecisionSet,
    penalty: PenaltyPair,
    psi: float = 0.5,
    sample_sizes=None,
    gamma: float = 2.5,
    k1: float = 1.0,
    eigen_bound_l: float | None = None,
    tol: float = 1e-12,
    augment_diagonal: bool = True,
) -> DiagnosticsReport:
    """Full diagnostic sweep over a set of true precision matrices."""
    pops = []
    alpha = None
    for k, m in enumerate(precisions.matrices):
        sigma = invert_pd(m)
        stats = graph_stats(m, tol)
        edges = edge_set(m, tol)
        support = support_indices(edges, augment_diagonal)
        gss = restricted_hessian(sigma, support)
        kappa_gamma = float(np.abs(np.linalg.inv(gss)).sum(axis=1).max())
        kappa_sigma = float(np.abs(sigma).sum(axis=1).max())
        a_k = check_irrepresentability(m, tol, augment_diagonal)
        alpha = a_k if alpha is None else min(alpha, a_k)
        n_k = None if sample_sizes is None else int(sample_sizes[k])
        delta = (
            rate_delta(n_k, precisions.p, gamma, k1, float(np.diag(sigma).max()))
            if n_k
            else float("nan")
        )
        advisory = (
            advisory_min_samples(
                precisions.p, gamma, k1, float(np.diag(sigma).max()),
                kappa_sigma, kappa_gamma, stats.max_degree, alpha,
            )
            if alpha > 0 and stats.max_degree > 0
            else None
        )
        pops.append(
            PopulationDiagnostics(
                kappa_sigma=kappa_sigma,
                kappa_gamma=kappa_gamma,
                max_degree=stats.max_degree,
                edge_total=stats.edge_total,
                omega_min=stats.omega_min,
                eigen_bounds=stats.eigen_bounds,
                delta=delta,
                advisory_min_n=advisory,
            )
        )

    a1_holds = alpha > 0
    try:
        lhs, rhs, a2_holds = check_between_group(
            precisions, penalty, psi, max(alpha, 1e-12), tol, augment_diagonal
        )
    except DataFormatError:
        lhs, rhs, a2_holds = float("nan"), float("nan"), False

    eig_min = min(p.eigen_bounds[0] for p in pops)
    eig_max = max(p.eigen_bounds[1] for p in pops)
    if eigen_bound_l is not None:
        a3_holds = eigen_bound_l < eig_min and eig_max < 1.0 / eigen_bound_l
    else:
        a3_holds = eig_min > 0 and math.isfinite(eig_max)

    ratios = None
    a4_holds = True
    if sample_sizes is not None:
        n_min = min(int(n) for n in sample_sizes)
        ratios = tuple(n_min / int(n) for n in sample_sizes)
        a4_holds = all(0.0 < r <= 1.0 for r in ratios)

    return DiagnosticsReport(
        populations=tuple(pops),
        alpha_irr=float(alpha),
        between_group_lhs=lhs,
        between_group_rhs=rhs,
        assumptions_hold={
            "irrepresentability": bool(a1_holds),
            "between_group": bool(a2_holds),
            "bounded_eigenvalues": bool(a3_holds),
            "sample_size_ratio": bool(a4_holds),
        },
        sample_size_ratios=ratios,
    )
