"""Group graphical lasso solver.

Jointly estimates K precision matrices by minimizing

    sum_k [ trace(S_k W_k) - log det W_k ]
        + lam * sum_k sum_{i != j} |W_k[i, j]|
        + rho * sum_{i != j} sqrt(sum_k W_k[i, j]^2)

over symmetric positive definite ``W_k``, where ``S_k`` is the sample
covariance of population ``k``.  Both penalty sums run over ordered pairs
``i != j``, so each unordered edge is counted twice; diagonals are never
penalized.  The populations enter with unit weights; the likelihood is not
weighted by ``n_k``.

Normalization.  ADMM runs on each block divided by ``s_bar``, the mean of
``diag(S_k)`` over the block's vertices and populations: ``S'_k = S_k /
s_bar``, ``lam' = lam / s_bar`` and ``rho' = rho / s_bar``.  With ``W' =
s_bar * W`` the objective is ``s_bar`` times the normalized one plus a
constant, so the minimizers agree exactly and the solver returns ``W = W' /
s_bar``.  The factor is a uniform scalar; per-variable scaling would change
the penalty.  So the iterates do not depend on the units of the data: data
times ``c`` with penalties times ``c`` runs the same normalized iterates
and returns ``W / c``.  Only the certificate, which stays in the units of
the data, can ask for more iterations when ``c`` is large.

The solver is ADMM with the consensus split ``W'_k = Z_k`` on the
normalized problem, at unit step:

* W-step: per population, the closed-form eigendecomposition update.  With
  ``A = Z_k - U_k - S'_k = Q diag(d) Q'``, the minimizer has the same
  eigenvectors and eigenvalues ``(d + sqrt(d^2 + 4)) / 2``, which are
  strictly positive, so every W iterate is PD.
* over-relaxation (Boyd et al. 2011, *Distributed Optimization and
  Statistical Learning via ADMM*, sec. 3.4.3): ``W_hat = alpha * W + (1 -
  alpha) * Z_old`` with the fixed constant ``alpha = 1.8``;
* Z-step: the closed-form proximal operator of the combined penalty
  (``lam'``, ``rho'``) applied to ``W_hat + U`` per off-diagonal group
  (soft-threshold, then group shrinkage); diagonals are copied through.
* scaled dual update ``U += W_hat - Z``.

Over-relaxation roughly halves the iterations; ``alpha = 1.8`` is the upper
end of Boyd's 1.5--1.8 range and is not an option.

Fixed-point form and acceleration.  The Z-step input ``x = W_hat + U`` is
the loop's only state: ``Z = prox(x)``, ``U = x - Z``, and the next W-step
reads ``Z - U``.  One iteration is then the map ``x -> T(x)`` of relaxed
Douglas--Rachford splitting, and without extrapolation it is the loop
above, bit for bit.  Each new ``x`` is replaced by its type-II Anderson
extrapolation over the last ``ANDERSON_MEMORY = 5`` fixed-point residuals
``g = T(x) - x`` (Fu, Zhang & Boyd 2020, *Anderson accelerated
Douglas--Rachford splitting*, SIAM J. Sci. Comput.): ``sum_i a_i T(x_i)``
with the affine weights ``a`` that minimize ``||sum_i a_i g_i||``, solved on
the residuals' Gram matrix plus ``ANDERSON_REGULARIZATION = 1e-10`` times its
trace.  Both are constants, not options.  Two safeguards take the plain step
``T(x)`` and clear the memory: a singular or non-finite least-squares solve
or step, and a ``||g||`` above its smallest value since the last restart (a
plain step never raises it, since ``T`` is nonexpansive).  The history is two
ring buffers of ``5 x K q^2`` doubles per block, ``2 * 5 * K * q^2 * 8``
bytes: 1.6 MB at ``q = 100`` and 26 MB for a single ``p = 400`` block, for
``K = 2``.  Each counted iteration still runs one eigendecomposition per
population and one prox.

Convergence.  The one gate is a stationarity certificate on the original
problem: the subgradient-inclusion residual of the sparse iterate ``Z /
s_bar`` against ``S``, ``lam`` and ``rho`` must fall below ``10 *
tol_abs``.  It runs at each iteration whose dual residual ``||Z - Z_old||``
(normalized problem) is at most ``sqrt(K q^2) * tol_abs + TOL_REL *
||U||``; plain ADMM's primal test ``||W - Z||`` is not taken, since it
decided no stop.  The returned estimate is the certified iterate, which
carries exact zeros produced by the group prox.  A block that reaches
``max_iter`` returns its last sparse iterate, or the eigenvalue-map
iterate when that one is not PD, with the certificate taken at the
estimate it returns.  Unpenalized (``lam = rho = 0``), a block with a
rank-deficient covariance has no minimizer, though the absolute
certificate can pass far out along the divergence: it is never certified,
and ADMM returns its start unconverged, with 0 iterations, an infinite
dual residual and the certificate at the start.
The certificate factorizes and inverts one population at a time and
checks the groups in chunks (``_stationarity_violation``), so beyond the
gradients of the groups it holds one population's inverse at a time.

Screening.  Before any ADMM iteration the vertices are split by the exact
rule of Danaher, Wang & Witten (2014, *The joint graphical lasso*, JRSS-B,
Thm 2) and Witten, Friedman & Simon (2011, JCGS): the pair ``(i, j)`` is
zero at the optimum in every population, and the solution is block-diagonal
across it, whenever ``||soft(S_k[i, j], lam)||_2 <= rho``.  The blocks are
the connected components of the pairs that fail this test.  The same group
test zeroes the Z-step's groups and the cold-start dual's projection and
picks the certificate's zero groups; ``_soft_threshold`` computes it.  A
single vertex has the closed form ``W_k[i, i] = 1 / S_k[i, i]``, since
diagonals are not penalized; ADMM runs on each larger block alone.
The certificate stays exact when taken block by block: the inverse of a
block-diagonal estimate is block-diagonal, so an off-block gradient is
``S_k[i, j]``, which the screening rule already keeps within the
subdifferential, and the full problem's violation is the largest block
violation.

Start.  Every block starts cold, from ``diag(1 / S_k[i, i])`` and the dual
``Lambda_k = W_k^{-1} - S_k`` there, in the units of the data: ``-S_k`` off
the diagonal and 0 on it, projected onto the penalty's subdifferential at
zero (``x - prox(x)``, by Moreau's decomposition).  ADMM's scaled dual is
``U = Lambda / s_bar``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _blas
from .core import CovarianceSet, PrecisionSet, is_positive_definite, symmetrize
from .errors import DataFormatError, NotPositiveDefiniteError

# The over-relaxation constant of the Z-step and the dual update, and the
# relative tolerance of the dual-residual test.
RELAXATION = 1.8
TOL_REL = 1e-4
# Anderson acceleration: the number of past fixed-point residuals each
# extrapolation combines, and the regularization of its least-squares solve
# relative to the trace of their Gram matrix.
ANDERSON_MEMORY = 5
ANDERSON_REGULARIZATION = 1e-10


@dataclass(frozen=True)
class PenaltyPair:
    """Regularization weights: ``lam`` for the l1 term, ``rho`` for the group term."""

    lam: float
    rho: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0 for v in (self.lam, self.rho)):
            raise DataFormatError(
                f"penalty parameters must be finite and nonnegative, got {self.lam}, {self.rho}"
            )


@dataclass(frozen=True)
class SolverOptions:
    """ADMM settings.

    ``10 * tol_abs`` bounds the certificate, the one convergence gate;
    ``tol_abs`` and the constant ``TOL_REL`` also set the dual-residual
    test that schedules it (see the module docstring).  ``max_iter``
    applies to each screening block.
    """

    max_iter: int = 10000
    tol_abs: float = 1e-6

    def __post_init__(self):
        if self.tol_abs <= 0:
            raise DataFormatError("tol_abs must be positive")
        if self.max_iter < 1:
            raise DataFormatError("max_iter must be at least 1")


@dataclass
class SolveReport:
    """Outcome of :func:`solve_ggl`.

    ``estimate`` is in the units of the data.  ``iterations`` and
    ``dual_residual`` describe ADMM on the normalized problem, summed
    (iterations) or root-sum-squared (the residual) over the screening
    blocks; ``kkt_violation`` is the stationarity certificate of the
    original problem, the largest over the blocks, and ``converged`` says
    that every block passed it.
    ``certificate_calls`` counts the certificate's evaluations and
    ``acceleration_restarts`` the times the Anderson memory was cleared,
    both summed over the blocks.
    """

    estimate: PrecisionSet
    iterations: int
    dual_residual: float
    converged: bool
    kkt_violation: float
    objective: float
    block_sizes: tuple[int, ...]
    certificate_calls: int = 0
    acceleration_restarts: int = 0


def prox_sparse_group(values: np.ndarray, lam_eff: float, rho_eff: float) -> np.ndarray:
    """Minimizer of ``0.5 * ||x - v||^2 + lam_eff * ||x||_1 + rho_eff * ||x||_2``.

    The solver's group prox on one group: componentwise soft-threshold at
    ``lam_eff``, then shrink the whole group by ``max(0, 1 - rho_eff /
    ||soft||_2)``.  Returns the zero vector when ``||soft||_2 <= rho_eff``.
    Total function: no error cases for ``lam_eff, rho_eff >= 0``.
    """
    v = np.asarray(values, dtype=float)
    return _group_shrink(v.ravel(), lam_eff, rho_eff).reshape(v.shape)


def _soft_threshold(x: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """``soft = sign(x) * max(|x| - lam, 0)`` of a (K, ...) stack, and the
    l2 norms of its groups over the population axis; ``soft`` is ``x`` at
    ``lam = 0``.  A group is zero when its norm is at most ``rho``."""
    soft = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
    return soft, np.linalg.norm(soft, axis=0)


def _group_shrink(v: np.ndarray, lam_eff: float, rho_eff: float) -> np.ndarray:
    """Group prox applied to every entry of a (K, ...) stack.

    Groups run across the population axis.
    """
    soft, norms = _soft_threshold(v, lam_eff)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > rho_eff, 1.0 - rho_eff / norms, 0.0)
    return soft * scale[None]


def _prox_offdiag_stack(v: np.ndarray, lam_eff: float, rho_eff: float) -> np.ndarray:
    """Group prox applied to every off-diagonal entry of a (K, p, p) stack.

    Groups run across the population axis; diagonals are copied unchanged.
    """
    out = _group_shrink(v, lam_eff, rho_eff)
    idx = np.arange(v.shape[1])
    out[:, idx, idx] = v[:, idx, idx]
    return out


def ggl_objective(matrices, covs: CovarianceSet, penalty: PenaltyPair) -> float:
    """Objective value at the given matrices; ``inf`` if any matrix is not PD."""
    mats = np.stack([np.asarray(m, dtype=float) for m in matrices])
    return _objective(mats, np.stack(covs.matrices), penalty.lam, penalty.rho)


def _objective(mats, s, lam: float, rho: float) -> float:
    """Array-level core of :func:`ggl_objective` on (K, q, q) stacks."""
    sign, logdet = np.linalg.slogdet(mats)
    if np.any(sign <= 0):
        return np.inf
    total = 0.0
    for k in range(mats.shape[0]):
        total += np.sum(s[k] * mats[k]) - logdet[k]
    off = ~np.eye(mats.shape[1], dtype=bool)
    total += lam * np.abs(mats[:, off]).sum()
    total += rho * _soft_threshold(mats, 0.0)[1][off].sum()
    return float(total)


def kkt_residual(estimate: PrecisionSet, covs: CovarianceSet, penalty: PenaltyPair) -> float:
    """Maximum violation of the stationarity system at ``estimate``.

    With ``G_k = S_k - W_k^{-1}`` the conditions are ``G_k[i, i] = 0``
    on diagonals and, per off-diagonal group ``(i, j)``:

    * all populations zero: membership requires the soft-thresholded gradient
      group to satisfy ``||soft(G[i, j, :], lam)||_2 <= rho``; the violation
      is the excess;
    * otherwise: the residual of ``G_k + lam * z_k + rho * m_k = 0`` with the
      group-norm gradient ``m_k = W_k[i, j] / ||W[:, i, j]||_2`` and the sign
      subgradient ``z_k``, choosing ``z_k = clip(-G_k / lam, -1, 1)`` for
      coordinates sitting at zero.

    Raises :class:`NotPositiveDefiniteError` for a singular estimate.
    """
    if estimate.p != covs.p or estimate.K != covs.K:
        raise DataFormatError("estimate and covariances do not match")
    value = _stationarity_violation(estimate.matrices, covs.matrices, penalty.lam, penalty.rho)
    if value == np.inf:
        raise NotPositiveDefiniteError("estimate is not positive definite")
    return value


# Groups per pass of the certificate: the chunk's temporaries stay near
# 1 MB at K = 2 while a block of up to 181 vertices is one pass.
_GROUP_CHUNK = 1 << 14


def _stationarity_violation(omegas, s, lam, rho) -> float:
    """Array-level core of :func:`kkt_residual`; ``inf`` if a matrix is not PD.

    Takes the K symmetric estimates (a (K, p, p) stack or a sequence) and
    the K covariances.  One population at a time, a Cholesky checks that
    the estimate is PD and ``np.linalg.inv`` inverts it; of its gradient
    ``S_k - (inv + inv') / 2`` the diagonal and the upper triangle
    are kept.  The groups are then checked ``_GROUP_CHUNK`` at a time, so
    the working memory beyond the (K, p (p - 1) / 2) gradients is one
    population's inverse or one chunk.  The value agrees with a
    per-population Cholesky solve to rounding.
    """
    K, p = len(omegas), omegas[0].shape[0]
    upper = np.flatnonzero(np.triu(np.ones((p, p), dtype=bool), k=1))  # (i, j), i < j
    diag = np.empty((K, p))
    grads = np.empty((K, upper.size))
    for k in range(K):
        try:
            np.linalg.cholesky(omegas[k])
        except np.linalg.LinAlgError:
            return np.inf
        grad = np.linalg.inv(omegas[k])
        grad += grad.T  # numpy reads the overlapping transpose from a copy
        grad /= 2.0
        np.subtract(s[k], grad, out=grad)
        diag[k] = np.diagonal(grad)
        grad.take(upper, out=grads[k])
        del grad  # before the next population's inverse
    worst = float(np.max(np.abs(diag)))

    excess, resid = [], []  # the largest violation in each chunk
    for start in range(0, upper.size, _GROUP_CHUNK):
        g = grads[:, start : start + _GROUP_CHUNK]
        om = np.stack([mat.take(upper[start : start + _GROUP_CHUNK]) for mat in omegas])
        group_nonzero = np.any(om != 0.0, axis=0)

        # Groups at exactly zero: excess of the soft-thresholded gradient norm.
        if np.any(~group_nonzero):
            _, norms = _soft_threshold(g[:, ~group_nonzero], lam)
            excess.append(np.max(np.maximum(norms - rho, 0.0)))

        # Active groups: direct residual with the subgradients evaluated there.
        if np.any(group_nonzero):
            ga = g[:, group_nonzero]
            oa = om[:, group_nonzero]
            m = oa / _soft_threshold(oa, 0.0)[1][None, :]
            if lam > 0:
                z = np.where(oa != 0.0, np.sign(oa), np.clip(-ga / lam, -1.0, 1.0))
            else:
                z = np.zeros_like(ga)
            resid.append(np.max(np.abs(ga + lam * z + rho * m)))
    # np.max over the chunks' maxima is np.max over all groups, NaN included.
    if excess:
        worst = max(worst, float(np.max(excess)))
    if resid:
        worst = max(worst, float(np.max(resid)))
    return worst


def _screened_blocks(s, lam: float, rho: float) -> list[np.ndarray]:
    """Vertex sets of the connected components of the screening graph.

    Vertices ``i != j`` are adjacent when ``||soft(S_k[i, j], lam)||_2 >
    rho``.  Each set is sorted; sets come in the order of their smallest
    vertex.
    """
    p = s.shape[1]
    adjacent = _soft_threshold(s, lam)[1] > rho
    np.fill_diagonal(adjacent, False)
    isolated = ~adjacent.any(axis=1)
    labelled = np.zeros(p, dtype=bool)
    blocks = []
    for root in range(p):
        if isolated[root]:
            blocks.append(np.array([root]))
        elif not labelled[root]:
            reached = np.zeros(p, dtype=bool)
            reached[root] = True
            frontier = reached
            while frontier.any():
                frontier = adjacent[frontier].any(axis=0) & ~reached
                reached |= frontier
            labelled |= reached
            blocks.append(np.flatnonzero(reached))
    return blocks


@_blas.single_threaded()
def solve_ggl(
    covs: CovarianceSet,
    penalty: PenaltyPair,
    opts: SolverOptions = SolverOptions(),
) -> SolveReport:
    """Solve the group graphical lasso for all populations jointly.

    Returns the sparse consensus iterate with the dual residual, the
    stationarity violation, and the objective value.  Non-convergence within
    ``max_iter`` returns the best iterate with ``converged=False``; a
    covariance with non-positive diagonal is a hard error.

    The problem is split into the blocks of the screening rule (see the
    module docstring) and ADMM runs on each block of two or more vertices,
    from the cold start, with ``max_iter`` per block.  ``iterations`` is the
    sum over blocks, the dual residual the root-sum-square over blocks,
    ``kkt_violation`` is the largest block certificate, ``objective`` is the
    sum of the blocks' objectives (:func:`ggl_objective` of the whole
    estimate, to rounding), and ``block_sizes`` lists every block's size.
    ``certificate_calls`` and ``acceleration_restarts`` are summed over the
    blocks.  The residual is that of the normalized problem (see the
    module docstring); the certificate is that of the original one.

    The solve runs numpy's OpenBLAS at one thread and restores the caller's
    thread count when the last concurrent solve returns (see
    :mod:`multiggm._blas`).
    """
    covs.require_positive_diagonal()
    lam, rho = penalty.lam, penalty.rho
    s = np.stack(covs.matrices)
    blocks = _screened_blocks(s, lam, rho)

    mats = np.zeros_like(s)
    idx = np.arange(covs.p)
    mats[:, idx, idx] = 1.0 / s[:, idx, idx]
    # The objective is a sum over the blocks.  A single vertex adds
    # S_ii / S_ii - log(1 / S_ii) = 1 + log S_ii.
    singles = np.array([ix[0] for ix in blocks if ix.size == 1], dtype=int)
    objective = float(np.sum(1.0 + np.log(s[:, singles, singles])))
    solved = []
    for ix in blocks:
        if ix.size > 1:
            sub = np.ix_(np.arange(covs.K), ix, ix)
            mats[sub], result = _admm(s[sub], lam, rho, opts)
            objective += _objective(mats[sub], s[sub], lam, rho)
            solved.append(result)

    estimate = PrecisionSet(list(mats), positive_definite=True)
    return SolveReport(
        estimate=estimate,
        iterations=sum(r.iterations for r in solved),
        dual_residual=math.hypot(*(r.dual for r in solved)),
        converged=all(r.converged for r in solved),
        kkt_violation=max((r.kkt for r in solved), default=0.0),
        objective=objective,
        block_sizes=tuple(int(ix.size) for ix in blocks),
        certificate_calls=sum(r.certificate_calls for r in solved),
        acceleration_restarts=sum(r.restarts for r in solved),
    )


class _BlockResult(NamedTuple):
    iterations: int
    dual: float
    converged: bool
    kkt: float
    certificate_calls: int
    restarts: int


class _Anderson:
    """Type-II Anderson extrapolation over the last ``ANDERSON_MEMORY`` residuals.

    Two ring buffers hold, one flattened iterate per row, the images
    ``f = T(x)`` of the fixed-point map and their residuals ``g = f - x``;
    ``gram`` holds the residuals' inner products and gains one row per
    step.  The extrapolated iterate is ``sum_i a_i f_i`` with the weights
    ``a`` that minimize ``||sum_i a_i g_i||`` subject to ``sum_i a_i = 1``,
    solved on the Gram matrix plus ``ANDERSON_REGULARIZATION`` times its
    trace.  A singular or non-finite solve or step, or a residual norm above
    its smallest value since the last restart, takes the plain step ``f``
    and restarts the memory from the newest pair.
    """

    def __init__(self, size: int):
        self.g = np.empty((ANDERSON_MEMORY, size))
        self.f = np.empty((ANDERSON_MEMORY, size))
        self.gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.count = 0  # pairs stored since the last restart
        self.best = np.inf  # smallest squared residual norm since then
        self.restarts = 0

    def step(self, x: np.ndarray, image: np.ndarray) -> np.ndarray:
        """The iterate after ``x``, given ``image = T(x)``."""
        slot = self.count % ANDERSON_MEMORY
        filled = min(self.count + 1, ANDERSON_MEMORY)
        self.f[slot] = image.ravel()
        g = np.subtract(self.f[slot], x.ravel(), out=self.g[slot])
        row = self.g[:filled] @ g
        norm2 = row[slot]
        self.gram[slot, :filled] = row
        self.gram[:filled, slot] = row
        self.count += 1
        if not norm2 <= self.best:
            return self._restart(slot, norm2, image)
        self.best = norm2
        if filled == 1:
            return image
        gram = self.gram[:filled, :filled]
        with np.errstate(all="ignore"):
            try:
                a = np.linalg.solve(
                    gram + ANDERSON_REGULARIZATION * np.trace(gram) * np.eye(filled),
                    np.ones(filled),
                )
            except np.linalg.LinAlgError:
                return self._restart(slot, norm2, image)
            a = a / a.sum()
            step = a @ self.f[:filled]
        if not np.all(np.isfinite(step)):
            return self._restart(slot, norm2, image)
        return step.reshape(image.shape)

    def _restart(self, slot: int, norm2: float, image: np.ndarray) -> np.ndarray:
        """Clear the memory, keeping the newest pair when it is finite, and take ``image``."""
        self.restarts += 1
        self.count, self.best = 0, np.inf
        if np.isfinite(norm2):
            self.g[0], self.f[0] = self.g[slot], self.f[slot]
            self.gram[0, 0] = norm2
            self.count, self.best = 1, norm2
        return image


def _admm(s, lam: float, rho: float, opts: SolverOptions):
    """Over-relaxed, Anderson-accelerated ADMM on one (K, q, q) block.

    Starts cold (see the module docstring) and runs on the block divided
    by ``s_bar``.  Returns the block's estimate and its
    :class:`_BlockResult`, in the units of ``s``.  The estimate is the
    symmetrized sparse iterate, or the eigenvalue-map iterate when an
    unconverged sparse iterate is not PD; the certificate is taken at the
    estimate returned.  An unpenalized rank-deficient block returns its
    start without iterating.
    """
    K, p = s.shape[0], s.shape[1]
    idx = np.arange(p)
    z0 = np.zeros_like(s)
    z0[:, idx, idx] = 1.0 / s[:, idx, idx]
    if lam == rho == 0 and np.any(np.linalg.matrix_rank(s) < p):
        # Unpenalized with a rank-deficient covariance: no minimizer, and
        # never certified (see the module docstring), so do not iterate.
        kkt_value = float(_stationarity_violation(z0, s, lam, rho))
        return z0, _BlockResult(0, np.inf, False, kkt_value, 1, 0)
    # The dual at the diagonal start, -S_k off the diagonal, projected onto
    # the penalty's subdifferential at zero: x - prox(x).
    outside = -s
    outside[:, idx, idx] = 0.0
    dual0 = outside - _group_shrink(outside, lam, rho)
    s_bar = float(np.mean(np.diagonal(s, axis1=1, axis2=2)))
    # The scaled dual of the normalized problem is U = dual / s_bar, and its
    # prox thresholds are lam / s_bar and rho / s_bar.
    z = z0 * s_bar
    u = dual0 / s_bar

    lam_eff = lam / s_bar
    rho_eff = rho / s_bar
    sqrt_dim = np.sqrt(K * p * p)
    converged = False
    iterations = certificates = 0
    scaled_s = (1.0 / s_bar) * s
    # The Z-step input x is the fixed-point state: Z = prox(x), U = x - Z.
    # The start (z0, dual0) need not be of that form, so x begins after the
    # first W-step.
    x = None
    history = _Anderson(K * p * p)

    for iterations in range(1, opts.max_iter + 1):
        d, q = np.linalg.eigh(symmetrize((z - u) - scaled_s))
        eig = (d + np.sqrt(d * d + 4.0)) / 2.0
        omega = symmetrize(q @ (eig[:, :, None] * q.transpose(0, 2, 1)))

        z_old = z
        image = RELAXATION * omega + (1.0 - RELAXATION) * z_old + u
        x = image if x is None else history.step(x, image)
        z = _prox_offdiag_stack(x, lam_eff, rho_eff)
        u = x - z

        dual = float(np.linalg.norm(z - z_old))
        if dual <= sqrt_dim * opts.tol_abs + TOL_REL * float(np.linalg.norm(u)):
            mats = symmetrize(z) / s_bar
            certificates += 1
            kkt_value = _stationarity_violation(mats, s, lam, rho)
            if kkt_value <= 10.0 * opts.tol_abs:
                converged = True
                break

    if not converged:
        mats = symmetrize(z) / s_bar
        # An unconverged prox iterate can lose definiteness, while the
        # eigenvalue-map iterate is PD by construction.
        if not all(is_positive_definite(m) for m in mats):
            mats = symmetrize(omega) / s_bar
        certificates += 1
        kkt_value = _stationarity_violation(mats, s, lam, rho)
    return mats, _BlockResult(
        iterations, dual, converged, float(kkt_value), certificates, history.restarts
    )
