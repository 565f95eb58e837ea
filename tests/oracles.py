"""Independent oracles used to pin expected values.

Nothing here may import from multiggm.solver's internals: the proximal
gradient solver, the prox grid search, the plain over-relaxed ADMM loop and
the dense Kronecker constructions are written from scratch so they can
certify the main implementations.  The
CSV parser and writers are the cell-by-cell ``csv``/``float()``/``format()``
code that ``multiggm.io`` replaced with numpy's reader and row templates.
The sampler and the certificate keep the scipy forms (``solve_triangular``,
``cho_solve``) that the package replaced with numpy calls, and the
certificate also keeps its batched numpy form, which the package replaced
with a loop over populations.  The scalar
linear-combination statistic is the per-edge loop over a 2x2 variance block
that ``multiggm.inference.combine`` replaced.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from multiggm.errors import DataFormatError


# --- prox oracle -------------------------------------------------------------


def prox_objective(x, v, l1, l2) -> float:
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(
        0.5 * np.sum((x - v) ** 2)
        + l1 * np.sum(np.abs(x))
        + l2 * np.sqrt(np.sum(x * x))
    )


def prox_grid_search(v, l1, l2, rounds: int = 6, grid: int = 81) -> np.ndarray:
    """Iteratively refined grid minimization of the prox objective."""
    v = np.asarray(v, dtype=float)
    center = v.copy()
    width = float(np.max(np.abs(v)) + l1 + l2 + 1.0)
    for _ in range(rounds):
        axes = [np.linspace(c - width, c + width, grid) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        obj = (
            0.5 * np.sum((pts - v) ** 2, axis=1)
            + l1 * np.sum(np.abs(pts), axis=1)
            + l2 * np.sqrt(np.sum(pts * pts, axis=1))
        )
        center = pts[int(np.argmin(obj))]
        width = 4.0 * width / (grid - 1)
    return center


def prox_inclusion_violation(x, v, l1, l2) -> float:
    """Max violation of the prox optimality system at a claimed minimizer."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    r = x - v
    if np.all(x == 0.0):
        after_sign = np.maximum(np.abs(r) - l1, 0.0)
        return max(0.0, float(np.linalg.norm(after_sign)) - l2)
    m = x / np.linalg.norm(x)
    worst = 0.0
    for i in range(x.size):
        g = r[i] + l2 * m[i]
        if x[i] != 0.0:
            worst = max(worst, abs(g + l1 * np.sign(x[i])))
        else:
            worst = max(worst, max(0.0, abs(g) - l1))
    return float(worst)


# --- proximal gradient solver for the joint objective ------------------------


def pg_objective(mats, covs, lam, rho, weights=None) -> float:
    total = 0.0
    p = mats[0].shape[0]
    weights = [1.0] * len(mats) if weights is None else weights
    for w, s, n in zip(mats, covs, weights):
        sign, logdet = np.linalg.slogdet(w)
        if sign <= 0:
            return np.inf
        total += n * (float(np.sum(s * w)) - logdet)
    for i in range(p):
        for j in range(p):
            if i != j:
                total += lam * sum(abs(w[i, j]) for w in mats)
                total += rho * np.sqrt(sum(w[i, j] ** 2 for w in mats))
    return float(total)


def _pg_prox(mats, l1, l2):
    """Entry-wise prox of the combined penalty on a list of matrices."""
    K = len(mats)
    p = mats[0].shape[0]
    out = [m.copy() for m in mats]
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            group = np.array([m[i, j] for m in mats])
            soft = np.sign(group) * np.maximum(np.abs(group) - l1, 0.0)
            norm = np.linalg.norm(soft)
            if norm <= l2:
                shrunk = np.zeros(K)
            else:
                shrunk = soft * (1.0 - l2 / norm)
            for k in range(K):
                out[k][i, j] = shrunk[k]
    return out


def pg_solve(
    covs,
    lam: float,
    rho: float,
    step: float | None = None,
    stall: float = 1e-10,
    max_iter: int = 500000,
    adaptive: bool = False,
    weights=None,
):
    """Proximal gradient descent on the joint objective.

    With ``adaptive=False`` the step is fixed (default 1e-3) and iteration
    stops when successive objective values differ by less than ``stall``.
    With ``adaptive=True`` the step grows gently and backtracks whenever the
    objective fails to decrease or an iterate loses definiteness, which only
    tightens the final stall point.  ``weights`` multiply each population's
    likelihood term (1 by default).
    """
    covs = [np.asarray(s, dtype=float) for s in covs]
    mats = [np.diag(1.0 / np.diag(s)) for s in covs]
    t = step if step is not None else 1e-3
    weights = [1.0] * len(covs) if weights is None else list(weights)
    f = pg_objective(mats, covs, lam, rho, weights)
    for _ in range(max_iter):
        grads = [n * (s - np.linalg.inv(w)) for w, s, n in zip(mats, covs, weights)]
        if adaptive:
            t = min(t * 1.2, 10.0)
            while True:
                cand = _pg_prox(
                    [w - t * g for w, g in zip(mats, grads)], t * lam, t * rho
                )
                f_new = pg_objective(cand, covs, lam, rho, weights)
                if np.isfinite(f_new) and f_new <= f + 1e-15:
                    break
                t *= 0.5
                if t < 1e-12:
                    return mats, f
        else:
            cand = _pg_prox(
                [w - t * g for w, g in zip(mats, grads)], t * lam, t * rho
            )
            f_new = pg_objective(cand, covs, lam, rho, weights)
            if not np.isfinite(f_new):
                t *= 0.5
                continue
        if abs(f - f_new) < stall:
            return cand, f_new
        mats, f = cand, f_new
    return mats, f


# --- dense Kronecker oracles --------------------------------------------------


def dense_support(omega, tol=1e-12, augment=True):
    p = omega.shape[0]
    support = []
    if augment:
        support += [(i, i) for i in range(p)]
    for i in range(p):
        for j in range(p):
            if i != j and abs(omega[i, j]) > tol:
                support.append((i, j))
    members = set(support)
    complement = [
        (a, b) for a in range(p) for b in range(p) if a != b and (a, b) not in members
    ]
    return support, complement


def dense_alpha(omega, tol=1e-12, augment=True) -> float:
    """Irrepresentability slack via the full p^2 x p^2 Kronecker matrix."""
    omega = np.asarray(omega, dtype=float)
    sigma = np.linalg.inv(omega)
    p = omega.shape[0]
    gamma = np.kron(sigma, sigma)
    support, complement = dense_support(omega, tol, augment)
    sup = [a * p + b for a, b in support]
    comp = [a * p + b for a, b in complement]
    if not comp:
        return 1.0
    rows = gamma[np.ix_(comp, sup)] @ np.linalg.inv(gamma[np.ix_(sup, sup)])
    return float(1.0 - np.abs(rows).sum(axis=1).max())


def dense_between_group_lhs(omegas, tol=1e-12, augment=True) -> float:
    """Aggregate condition left side via dense Kronecker construction."""
    omegas = [np.asarray(m, dtype=float) for m in omegas]
    p = omegas[0].shape[0]
    support, complement = dense_support(omegas[0], tol, augment)
    sup = [a * p + b for a, b in support]
    comp = [a * p + b for a, b in complement]
    if not comp:
        return 0.0
    total = np.zeros(len(comp))
    for omega in omegas:
        sigma = np.linalg.inv(omega)
        gamma = np.kron(sigma, sigma)
        rows = gamma[np.ix_(comp, sup)] @ np.linalg.inv(gamma[np.ix_(sup, sup)])
        total += rows.sum(axis=1) ** 2
    return float(np.sqrt(total.max()))


def random_covariance_set(rng, p, K, well_conditioned=True):
    """Random symmetric PD matrices playing the role of sample covariances."""
    mats = []
    for _ in range(K):
        a = rng.standard_normal((p, 2 * p))
        s = a @ a.T / (2 * p)
        if well_conditioned:
            s += 0.5 * np.eye(p)
        mats.append((s + s.T) / 2.0)
    return mats


# --- plain ADMM --------------------------------------------------------------


def _group_prox(v, l1, l2):
    soft = np.sign(v) * np.maximum(np.abs(v) - l1, 0.0)
    norms = np.sqrt(np.einsum("kij,kij->ij", soft, soft))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > l2, 1.0 - l2 / norms, 0.0)
    return soft * scale[None, :, :]


def relaxed_admm(covs, lam, rho, tol_abs=1e-6, tol_rel=1e-4, max_iter=10000, alpha=1.8):
    """Over-relaxed ADMM in its (Z, U) form, without acceleration or screening.

    The loop of Boyd et al. (2011, sec. 3.4.3) at step 1 on the problem
    divided by ``s_bar`` (unit weights), from ``diag(1 / S_k[i, i])`` and the
    dual ``-S_k`` off the diagonal projected onto the penalty's
    subdifferential at zero.  It stops on the residual test and the
    certificate gate ``kkt_oracle <= 10 * tol_abs``.  Written in the same
    floating-point order as the solver's unaccelerated loop, so the two
    agree bit for bit.  Returns the estimate stack and the iteration count.
    """
    s = np.stack(covs)
    K, p = s.shape[0], s.shape[1]
    idx = np.arange(p)
    s_bar = float(np.mean(np.diagonal(s, axis1=1, axis2=2)))
    z = np.zeros_like(s)
    z[:, idx, idx] = 1.0 / s[:, idx, idx]
    z = z * s_bar
    dual0 = s * -np.ones(K)[:, None, None]
    dual0[:, idx, idx] = 0.0
    u = (dual0 - _group_prox(dual0, lam, rho)) / s_bar
    weighted_s = (np.ones(K) / s_bar)[:, None, None] * s
    sqrt_dim = np.sqrt(K * p * p)
    for iterations in range(1, max_iter + 1):
        a = (z - u) - weighted_s
        a = (a + a.transpose(0, 2, 1)) / 2.0
        d, q = np.linalg.eigh(a)
        eig = (d + np.sqrt(d * d + 4.0 * np.ones(K)[:, None])) / 2.0
        omega = q @ (eig[:, :, None] * q.transpose(0, 2, 1))
        omega = (omega + omega.transpose(0, 2, 1)) / 2.0
        z_old = z
        relaxed = alpha * omega + (1.0 - alpha) * z_old
        z = _group_prox(relaxed + u, lam / s_bar, rho / s_bar)
        z[:, idx, idx] = (relaxed + u)[:, idx, idx]
        u = u + relaxed - z
        primal = float(np.linalg.norm(omega - z))
        dual = float(np.linalg.norm(z - z_old))
        eps_pri = sqrt_dim * tol_abs + tol_rel * max(
            float(np.linalg.norm(omega)), float(np.linalg.norm(z))
        )
        eps_dual = sqrt_dim * tol_abs + tol_rel * float(np.linalg.norm(u))
        estimate = (z + z.transpose(0, 2, 1)) / 2.0 / s_bar
        if primal <= eps_pri and dual <= eps_dual:
            if kkt_oracle(list(estimate), covs, lam, rho) <= 10.0 * tol_abs:
                break
    return estimate, iterations


# --- scalar linear-combination statistic ---------------------------------------


def scalar_variance(estimate, i: int, j: int) -> float:
    """Plug-in variance of debiased entry (i, j) from the 2x2 block on rows
    and columns (i, j): ``W_ii W_jj + W_ij^2``."""
    block = np.asarray(estimate, dtype=float)[np.ix_((i, j), (i, j))]
    diag = np.diag(block)
    value = (np.outer(diag, diag) + block**2)[0, 1]
    if value <= 0.0:
        raise DataFormatError(f"nonpositive variance estimate at ({i}, {j})")
    return float(value)


def scalar_combination(debiased, estimate, sizes, coefficients, i: int, j: int):
    """``(sum_k a_k D_k[i, j], sqrt(sum_k a_k^2 sigma_k^2[i, j] / n_k))``, one
    population at a time, skipping ``a_k = 0`` in the variance."""
    point = 0.0
    var = 0.0
    for k, a in enumerate(coefficients):
        point += a * debiased[k][i, j]
        if a != 0.0:
            var += a * a * scalar_variance(estimate[k], i, j) / sizes[k]
    return point, math.sqrt(var)


# --- scipy forms of the sampler and the certificate ----------------------------


def draw_mvn_oracle(precision, n: int, seed: int) -> np.ndarray:
    """Rows ``x = L^{-T} z`` by scipy's triangular solve, on the Philox stream ``seed``."""
    from scipy.linalg import solve_triangular

    lower = np.linalg.cholesky(precision)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))
    z = rng.standard_normal((n, lower.shape[0]))
    return solve_triangular(lower, z.T, lower=True, trans="T").T


def kkt_oracle(mats, covs, lam, rho, weights=None) -> float:
    """Stationarity violation pair by pair, with ``cho_solve`` inverses.

    ``inf`` when a matrix is not PD.  Same system as ``kkt_residual``: the
    diagonal gradient, the soft-thresholded excess of all-zero groups, and
    the residual of ``G + lam * z + rho * m`` on active groups.
    """
    from scipy.linalg import cho_factor, cho_solve

    K, p = len(mats), mats[0].shape[0]
    w = np.ones(K) if weights is None else np.asarray(weights, dtype=float)
    grads = []
    for k in range(K):
        try:
            factor = cho_factor(mats[k], lower=True)
        except np.linalg.LinAlgError:
            return np.inf
        inv = cho_solve(factor, np.eye(p))
        grads.append(w[k] * (covs[k] - (inv + inv.T) / 2.0))
    g, om = np.stack(grads), np.stack(mats)
    worst = float(np.max(np.abs(np.diagonal(g, axis1=1, axis2=2))))
    for i in range(p):
        for j in range(i + 1, p):
            gij, oij = g[:, i, j], om[:, i, j]
            if not np.any(oij):
                soft = np.sign(gij) * np.maximum(np.abs(gij) - lam, 0.0)
                worst = max(worst, float(np.linalg.norm(soft)) - rho)
                continue
            z = np.sign(oij)
            if lam > 0:
                z = np.where(oij != 0.0, z, np.clip(-gij / lam, -1.0, 1.0))
            resid = gij + lam * z + rho * oij / np.linalg.norm(oij)
            worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def stationarity_stack_oracle(omegas, s, lam, rho, w) -> float:
    """The certificate's batched array form, bit for bit what the package computed
    before it built the gradients one population at a time.

    One Cholesky and one ``np.linalg.inv`` over the whole (K, p, p) stack,
    the gradient stack in one expression, and fancy-indexed copies of every
    group; ``inf`` when a matrix is not PD.
    """
    p = omegas.shape[1]
    try:
        np.linalg.cholesky(omegas)
    except np.linalg.LinAlgError:
        return np.inf
    inv = np.linalg.inv(omegas)
    grads = w[:, None, None] * (np.asarray(s) - (inv + inv.transpose(0, 2, 1)) / 2.0)
    idx = np.arange(p)
    worst = float(np.max(np.abs(grads[:, idx, idx])))
    iu, ju = np.triu_indices(p, k=1)
    g = grads[:, iu, ju]
    om = omegas[:, iu, ju]
    group_nonzero = np.any(om != 0.0, axis=0)
    if np.any(~group_nonzero):
        gz = g[:, ~group_nonzero]
        soft = np.sign(gz) * np.maximum(np.abs(gz) - lam, 0.0)
        excess = np.linalg.norm(soft, axis=0) - rho
        if excess.size:
            worst = max(worst, float(np.max(np.maximum(excess, 0.0))))
    if np.any(group_nonzero):
        ga = g[:, group_nonzero]
        oa = om[:, group_nonzero]
        m = oa / np.linalg.norm(oa, axis=0)[None, :]
        if lam > 0:
            z = np.where(oa != 0.0, np.sign(oa), np.clip(-ga / lam, -1.0, 1.0))
        else:
            z = np.zeros_like(ga)
        resid = ga + lam * z + rho * m
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


# --- CSV oracles -------------------------------------------------------------


def parse_csv_oracle(path: str):
    """Rows of floats plus optional header names from one numeric CSV."""
    with open(path, newline="") as fh:
        raw = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not raw:
        raise DataFormatError(f"{path}: empty file")

    def try_floats(row):
        try:
            return [float(c) for c in row]
        except ValueError:
            return None

    header = None
    first = try_floats(raw[0])
    if first is None:
        header = [c.strip() for c in raw[0]]
        raw = raw[1:]
        if not raw:
            raise DataFormatError(f"{path}: header but no data rows")

    width = len(raw[0])
    rows = []
    for r_idx, row in enumerate(raw):
        if len(row) != width:
            raise DataFormatError(
                f"{path}: ragged row {r_idx + 1} has {len(row)} cells, expected {width}"
            )
        parsed = []
        for c_idx, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataFormatError(
                    f"{path}: non-numeric cell at row {r_idx + 1}, column {c_idx + 1}: "
                    f"{cell!r}"
                ) from None
        rows.append(parsed)
    if header is not None and len(header) != width:
        raise DataFormatError(
            f"{path}: header has {len(header)} names for {width} columns"
        )
    return np.array(rows, dtype=float), header


def _format_cell(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return str(value)


def csv_text_oracle(rows) -> str:
    """The text of a CSV of rows, floats at 17 significant digits."""
    return "\n".join(",".join(_format_cell(c) for c in row) for row in rows) + "\n"


def data_csv_oracle(matrix, names=None) -> str:
    """The text of a float matrix's CSV, under an optional row of names
    quoted the ``csv`` way."""
    rows = np.asarray(matrix, dtype=float).tolist()
    text = csv_text_oracle(rows) if rows else ""
    if names is None:
        return text or "\n"
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(map(_format_cell, names))
    return header.getvalue() + text


def matrix_text_oracle(matrix) -> str:
    """A float matrix's CSV as one string through one ``%.17g`` row template,
    as the package built it before it wrote row by row."""
    matrix = np.asarray(matrix, dtype=float)
    template = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    return "".join([template % tuple(row.tolist()) for row in matrix]) or "\n"
