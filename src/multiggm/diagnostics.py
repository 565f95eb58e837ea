"""Checkable quantities behind the estimation and inference guarantees.

Given *true* precision matrices these routines compute the constants and
conditions the asymptotic theory is stated in: operator-norm constants,
degree/sparsity statistics, the sub-Gaussian concentration radius, and the
two irrepresentability conditions.

The Hessian of the Gaussian log-likelihood at the truth is the Kronecker
product ``Sigma (x) Sigma``.  Its restriction to an index set of vertex
pairs is built entrywise as ``G[(a, b), (c, d)] = Sigma[a, c] * Sigma[b, d]``
without materializing the p^2 x p^2 matrix.  The support S is a set of
ordered pairs: every diagonal pair, then both orientations of every edge
(:func:`~multiggm.core.edge_mask`) in row-major order.  The diagonal is what
makes ``Gamma[S, S]`` invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PrecisionSet, check_symmetric, edge_mask, invert_pd
from .errors import DataFormatError, DimensionMismatchError
from .solver import PenaltyPair

RESTRICTED_HESSIAN_GUARD = 20000


@dataclass(frozen=True)
class GraphStats:
    max_degree: int
    edge_total: int
    omega_min: float | None
    eigen_bounds: tuple[float, float]


def _edges(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the edges i < j of ``m``, in row-major order."""
    iu, ju = np.triu_indices(m.shape[0], k=1)
    mask = edge_mask(m)
    return iu[mask], ju[mask]


def graph_stats(precision: np.ndarray) -> GraphStats:
    """Max degree, edge count, smallest edge magnitude, eigenvalue range."""
    m = check_symmetric(precision, "precision")
    iu, ju = _edges(m)
    degrees = np.bincount(np.concatenate([iu, ju]), minlength=m.shape[0])
    values = np.abs(m[iu, ju])
    eigs = np.linalg.eigvalsh(m)
    return GraphStats(
        max_degree=int(degrees.max()),
        edge_total=int(values.size),
        omega_min=float(values.min()) if values.size else None,
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


# Entries of Gamma[e, S] formed at a time: the complement pairs e stream
# through in chunks of this many entries (4 MB), where the whole block of a
# p=200 star with hub degree 25 is 80 MB.
COMPLEMENT_CHUNK_ENTRIES = 2**19


@dataclass(frozen=True)
class _Population:
    """What the irrepresentability conditions need of one true precision
    matrix, computed once: Sigma, the support pairs, the complement pairs
    and the inverse of Gamma[S, S]."""

    sigma: np.ndarray
    support: np.ndarray
    others: tuple[np.ndarray, np.ndarray]
    gss_inverse: np.ndarray


def _population(precision) -> _Population:
    precision = check_symmetric(precision, "precision")
    p = precision.shape[0]
    iu, ju = _edges(precision)
    diagonal = np.arange(p)
    # Every diagonal pair, then (i, j) and (j, i) for each edge in turn.
    support = np.concatenate([
        np.column_stack([diagonal, diagonal]),
        np.column_stack([iu, ju, ju, iu]).reshape(-1, 2),
    ])
    sigma = invert_pd(precision)
    gss_inverse = invert_pd(restricted_hessian(sigma, support))
    # Ordered off-diagonal pairs outside the support, row-major.
    outside = ~np.eye(p, dtype=bool)
    outside[support[:, 0], support[:, 1]] = False
    return _Population(sigma, support, np.nonzero(outside), gss_inverse)


def _complement_rows(pop: _Population):
    """Rows Gamma[e, S] @ Gamma[S, S]^{-1} for the complement pairs e, in chunks."""
    ea, eb = pop.others
    sa, sb = pop.support.T
    step = max(1, COMPLEMENT_CHUNK_ENTRIES // len(sa))
    for start in range(0, ea.size, step):
        a, b = ea[start : start + step], eb[start : start + step]
        yield (pop.sigma[np.ix_(a, sa)] * pop.sigma[np.ix_(b, sb)]) @ pop.gss_inverse


def check_irrepresentability(precision: np.ndarray) -> float:
    """Slack of the support-recovery condition at a true precision matrix.

    Returns ``1 - max_{e not in S} || Gamma[e, S] @ Gamma[S, S]^{-1} ||_1``
    computed from the inverse covariance; the condition holds exactly when
    the returned value is positive.
    """
    return _irrepresentability(_population(precision))


def _irrepresentability(pop: _Population) -> float:
    if not pop.others[0].size:
        return 1.0
    return float(1.0 - max(np.abs(rows).sum(axis=1).max() for rows in _complement_rows(pop)))


def check_settings(
    penalty: PenaltyPair, psi: float, sample_sizes=None, gamma: float = 2.5
) -> None:
    """Raise :class:`DataFormatError` for settings the diagnostics cannot use.

    The between-group bound needs ``psi`` strictly in (0, 1) and
    ``lam + rho > 0``; with sample sizes, the concentration radius needs each
    to be positive and ``gamma > 2``.  No matrix is read, so callers can
    check before any factorization.
    """
    if not 0.0 < psi < 1.0:
        raise DataFormatError("psi must lie strictly in (0, 1)")
    if penalty.lam + penalty.rho <= 0:
        raise DataFormatError("penalty parameters cannot both be zero here")
    for n_k in () if sample_sizes is None else sample_sizes:
        _check_rate_settings(int(n_k), gamma)


def check_between_group(
    precisions: PrecisionSet,
    penalty: PenaltyPair,
    psi: float,
    alpha: float,
) -> tuple[float, float, bool]:
    """Aggregate cross-population condition limiting non-edge correlation.

    Returns ``(lhs, rhs, holds)`` where

        lhs = max_e sqrt( sum_k ( Gamma_k[e, S] @ Gamma_k[S, S]^{-1} @ 1 )^2 )
        rhs = [ rho / ((lam + rho) * (1 - psi)) - alpha * sqrt(K) / 4 ]
              / (1 + alpha / 4)

    and ``holds`` is ``lhs < rhs``.  The condition is stated on a support
    shared across populations: where the supports differ, ``lhs`` is NaN and
    ``holds`` is False.
    """
    check_settings(penalty, psi)
    if not 0.0 < alpha <= 1.0:
        raise DataFormatError("alpha must lie in (0, 1]")
    return _between_group([_population(m) for m in precisions.matrices], penalty, psi, alpha)


def _between_group(
    pops: list[_Population], penalty: PenaltyPair, psi: float, alpha: float
) -> tuple[float, float, bool]:
    """``(lhs, rhs, holds)`` of :func:`check_between_group` for checked settings."""
    share = penalty.rho / ((penalty.lam + penalty.rho) * (1.0 - psi))
    rhs = float((share - alpha * math.sqrt(len(pops)) / 4.0) / (1.0 + alpha / 4.0))
    if any(not np.array_equal(pop.support, pops[0].support) for pop in pops[1:]):
        return float("nan"), rhs, False
    lhs = 0.0
    if pops[0].others[0].size:
        sq = sum(
            np.concatenate([rows.sum(axis=1) for rows in _complement_rows(pop)]) ** 2
            for pop in pops
        )
        lhs = float(np.sqrt(sq.max()))
    return lhs, rhs, lhs < rhs


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
    _check_rate_settings(n_k, gamma)
    return float(
        8.0
        * (1.0 + 12.0 * k1 * k1)
        * max_diag
        * math.sqrt(2.0 * math.log(4.0 * p**gamma) / n_k)
    )


def _check_rate_settings(n_k: int, gamma: float) -> None:
    if gamma <= 2:
        raise DataFormatError("gamma must exceed 2")
    if n_k < 1:
        raise DataFormatError("sample sizes must be positive")


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

    def to_jsonable(self) -> dict:
        """Fields by name, each population's too; built without a deep copy."""
        return {**vars(self), "populations": [dict(vars(pop)) for pop in self.populations]}


def diagnostics_report(
    precisions: PrecisionSet,
    penalty: PenaltyPair,
    psi: float = 0.5,
    sample_sizes=None,
    gamma: float = 2.5,
    k1: float = 1.0,
    eigen_bound_l: float | None = None,
) -> DiagnosticsReport:
    """Full diagnostic sweep over a set of true precision matrices.

    Settings are checked first (:func:`check_settings`).  Supports that
    differ across populations leave the between-group condition undefined:
    ``between_group_lhs`` is NaN and the condition is reported as failing.
    """
    check_settings(penalty, psi, sample_sizes, gamma)
    factors = [_population(m) for m in precisions.matrices]
    pops = []
    alpha = None
    for k, (m, f) in enumerate(zip(precisions.matrices, factors)):
        stats = graph_stats(m)
        kappa_gamma = float(np.abs(f.gss_inverse).sum(axis=1).max())
        kappa_sigma = float(np.abs(f.sigma).sum(axis=1).max())
        a_k = _irrepresentability(f)
        alpha = a_k if alpha is None else min(alpha, a_k)
        n_k = None if sample_sizes is None else int(sample_sizes[k])
        max_diag = float(np.diag(f.sigma).max())
        delta = rate_delta(n_k, precisions.p, gamma, k1, max_diag) if n_k else float("nan")
        advisory = (
            advisory_min_samples(
                precisions.p, gamma, k1, max_diag,
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
    lhs, rhs, a2_holds = _between_group(factors, penalty, psi, max(alpha, 1e-12))

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
