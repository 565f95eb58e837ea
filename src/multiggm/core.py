"""Dense symmetric matrices, Gaussian sampling, and sample covariances.

Conventions used throughout the package:

* matrices are dense row-major ``float64`` arrays; sparsity is a property of
  the values, never a storage format: an off-diagonal entry is an edge when
  its magnitude exceeds ``EDGE_TOL`` (:func:`edge_mask`), the one rule for
  estimates, true matrices, e-BIC counts and diagnostics;
* a "set" bundles one matrix per population ``k = 0..K-1`` with a common
  dimension ``p``; error messages number populations from 1, as the
  command line numbers its files;
* random draws come from the counter-based Philox generator keyed directly by
  a 64-bit seed, so every stream is reproducible across runs and platforms.
  The stream for population ``k`` is ``seed ^ k``; nested derivations (e.g.
  Monte Carlo replications) go through :func:`derive_seed`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
)

_SEED_MASK = (1 << 64) - 1

# Off-diagonal entries at or below this magnitude are not edges, in an
# estimate and in a true precision matrix alike.
EDGE_TOL = 1e-8


def derive_seed(base_seed: int, *indices: int) -> int:
    """Derive a 64-bit child seed from a base seed and integer indices.

    Uses BLAKE2b over the little-endian encoding of all arguments, which is
    stable across platforms and Python versions.  Used to give every
    (replication, cell) its own independent Philox key.
    """
    h = hashlib.blake2b(digest_size=8)
    for value in (base_seed, *indices):
        h.update(struct.pack("<Q", int(value) & _SEED_MASK))
    return int.from_bytes(h.digest(), "little")


def population_seed(seed: int, k: int) -> int:
    """Stream key for population ``k``: the base seed XOR the population index."""
    return (int(seed) ^ int(k)) & _SEED_MASK


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed directly by ``seed`` (masked to 64 bits)."""
    return np.random.Generator(np.random.Philox(key=np.uint64(int(seed) & _SEED_MASK)))


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exact symmetrization of the last two axes by averaging with the transpose."""
    a = np.asarray(a, dtype=float)
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def check_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a square, finite, exactly symmetric array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise DataFormatError(f"{name} contains non-finite entries")
    if not np.array_equal(a, a.T):
        raise DataFormatError(f"{name} is not exactly symmetric")
    return a


def cholesky_pd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor, raising :class:`NotPositiveDefiniteError` on failure."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc


def is_positive_definite(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
        return True
    except np.linalg.LinAlgError:
        return False


def invert_pd(a: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive definite matrix via Cholesky,
    ``a^{-1} = L^{-T} L^{-1}``.

    The result is symmetrized after the product so downstream symmetry
    checks hold exactly.  Raises :class:`NotPositiveDefiniteError` for
    non-PD input and :class:`DimensionMismatchError` for non-square input.
    """
    a = check_symmetric(a, "matrix to invert")
    inverse_lower = np.linalg.inv(cholesky_pd(a, "matrix to invert"))
    return symmetrize(inverse_lower.T @ inverse_lower)


def edge_mask(matrix: np.ndarray) -> np.ndarray:
    """Which upper-triangle entries, in ``np.triu_indices(p, k=1)`` order,
    are edges: those of magnitude above ``EDGE_TOL``."""
    m = np.asarray(matrix)
    return np.abs(m[np.triu_indices(m.shape[0], k=1)]) > EDGE_TOL


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MultiPopDataset:
    """Observations for K populations: one ``n_k x p`` matrix per population,
    read-only.  Column names stay with the CSV reader, which checks that
    the files agree on them."""

    data: tuple[np.ndarray, ...]

    def __init__(self, data):
        mats = tuple(np.asarray(x, dtype=float) for x in data)
        if not mats:
            raise DataFormatError("dataset needs at least one population")
        p = mats[0].shape[1] if mats[0].ndim == 2 else -1
        for k, x in enumerate(mats):
            if x.ndim != 2:
                raise DimensionMismatchError(f"population {k + 1} data is not a matrix")
            if x.shape[1] != p:
                raise DimensionMismatchError(
                    f"population {k + 1} has {x.shape[1]} columns, expected {p}"
                )
            if x.shape[0] < 2:
                raise DataFormatError(f"population {k + 1} has n={x.shape[0]} < 2 rows")
            if not np.all(np.isfinite(x)):
                raise DataFormatError(f"population {k + 1} contains non-finite values")
        object.__setattr__(self, "data", tuple(_as_readonly(x) for x in mats))

    @property
    def sample_sizes(self) -> tuple[int, ...]:
        return tuple(x.shape[0] for x in self.data)


class _MatrixStack:
    """K matrices of common dimension p, held read-only in ``matrices``."""

    def _store(self, matrices, name: str) -> None:
        """Check that ``matrices`` is a non-empty stack of exactly symmetric
        matrices of common dimension, and store read-only copies.  Errors
        name matrix ``k`` as ``"{name} {k + 1}"``, numbered from 1 as the
        command line numbers files."""
        mats = tuple(check_symmetric(m, f"{name} {k + 1}") for k, m in enumerate(matrices))
        if not mats:
            raise DataFormatError(f"{name} set needs at least one population")
        p = mats[0].shape[0]
        for k, m in enumerate(mats):
            if m.shape[0] != p:
                raise DimensionMismatchError(
                    f"{name} {k + 1} has dimension {m.shape[0]}, expected {p}"
                )
        object.__setattr__(self, "matrices", tuple(_as_readonly(m) for m in mats))

    @property
    def K(self) -> int:
        return len(self.matrices)

    @property
    def p(self) -> int:
        return self.matrices[0].shape[0]


@dataclass(frozen=True)
class CovarianceSet(_MatrixStack):
    """Sample covariance matrices with their per-population sample sizes."""

    matrices: tuple[np.ndarray, ...]
    sample_sizes: tuple[int, ...]

    def __init__(self, matrices, sample_sizes):
        self._store(matrices, "covariance")
        sizes = tuple(int(n) for n in sample_sizes)
        if len(sizes) != self.K:
            raise DimensionMismatchError(
                f"{len(sizes)} sample sizes for {self.K} matrices"
            )
        if any(n < 1 for n in sizes):
            raise DataFormatError("sample sizes must be positive")
        object.__setattr__(self, "sample_sizes", sizes)

    def require_positive_diagonal(self) -> None:
        """Raise unless every matrix has a strictly positive diagonal.

        This is the condition under which the penalized problem has a unique
        solution; solver entry points call it up front.
        """
        for k, m in enumerate(self.matrices):
            if np.min(np.diag(m)) <= 0.0:
                raise DataFormatError(
                    f"covariance {k + 1} has a non-positive diagonal entry"
                )


@dataclass(frozen=True)
class PrecisionSet(_MatrixStack):
    """K precision matrices of common dimension.

    ``positive_definite=True`` makes the constructor verify every matrix
    by Cholesky and raise :class:`NotPositiveDefiniteError` on the first that
    fails; the flag is a check, not stored.  Leave it unset for matrices
    that are merely symmetric, such as the debiased matrices of
    :func:`multiggm.inference.debias`.
    """

    matrices: tuple[np.ndarray, ...]

    def __init__(self, matrices, positive_definite: bool = False):
        self._store(matrices, "precision")
        if positive_definite:
            for k, m in enumerate(self.matrices):
                cholesky_pd(m, f"precision {k + 1}")


def sample_covariance(data: MultiPopDataset) -> CovarianceSet:
    """Per-population sample covariances ``(1/n_k) X_k' X_k``.

    The divisor is ``n_k`` and columns are not centered, matching the
    zero-mean sampling model; :func:`multiggm.io.ingest_csv` centers real
    data whose mean is unknown.  Results are symmetrized exactly and are PSD
    up to rounding.
    """
    mats = [symmetrize((x.T @ x) / x.shape[0]) for x in data.data]
    return CovarianceSet(mats, data.sample_sizes)


def _check_sample_sizes(sample_sizes, name: str, populations: int | None = None) -> tuple:
    """``sample_sizes`` as ints; raise :class:`ConfigError` naming ``name`` unless each
    is positive and, where ``populations`` is given, there is one per population."""
    sizes = tuple(int(n) for n in sample_sizes)
    if populations is not None and len(sizes) != populations:
        raise ConfigError(f"{len(sizes)} sample sizes for {populations} populations")
    if sizes and min(sizes) < 1:
        raise ConfigError(f"{name} must be positive, got {min(sizes)}")
    return sizes


def draw_mvn(precision: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. rows from N(0, precision^{-1}).

    Sampling uses the lower Cholesky factor ``L`` of the precision matrix and
    solves ``x = L^{-T} z`` with ``z`` standard normal, so the rows have
    covariance ``L^{-T} L^{-1} = precision^{-1}``.  The solve is numpy's LU
    solve on the upper-triangular ``L'``: every entry below its positive
    diagonal is zero, so partial pivoting exchanges no rows, the elimination
    subtracts exact zeros, and the result equals the triangular solve
    ``solve_triangular(L, z', lower=True, trans="T")`` bit for bit.
    Identical ``(precision, n, seed)`` give bit-identical output.
    """
    precision = check_symmetric(precision, "precision")
    _check_sample_sizes((n,), "n")
    lower = cholesky_pd(precision, "precision")
    z = make_rng(seed).standard_normal((int(n), precision.shape[0]))
    x = np.linalg.solve(lower.T, z.T).T
    return np.ascontiguousarray(x)


def draw_mvn_dataset(
    precisions: PrecisionSet, sample_sizes, seed: int
) -> MultiPopDataset:
    """Draw one dataset per population, population ``k`` on stream ``seed ^ k``."""
    sizes = _check_sample_sizes(sample_sizes, "sample_sizes", precisions.K)
    return MultiPopDataset(
        [
            draw_mvn(m, n, population_seed(seed, k))
            for k, (m, n) in enumerate(zip(precisions.matrices, sizes))
        ]
    )
