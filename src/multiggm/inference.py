"""Debiased estimators, z-tests, and confidence intervals.

The penalized estimates carry a first-order bias from the penalty terms.
Substituting the stationarity system into a one-step correction gives the
debiased matrices

    D_k = 2 * W_k - W_k @ S_k @ W_k,

whose entries are asymptotically Gaussian:  sqrt(n_k) * (D_k[i, j] -
true[i, j]) / sigma_k[i, j] -> N(0, 1) with sigma_k[i, j]^2 =
W_k[i, i] * W_k[j, j] + W_k[i, j]^2 evaluated at the *penalized* estimate
(the debiased matrix need not be PD, so the plug-in uses W_k).

Linear combinations across populations, sum_k a_k * D_k[i, j], are tested
with the studentized statistic whose variance is sum_k a_k^2 *
sigma_k[i, j]^2 / n_k.  Two-population difference tests are the special
case a = (1, -1).

All indices in this module are 0-based; user-facing I/O converts to 1-based
at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CovarianceSet, PrecisionSet, symmetrize
from .errors import DataFormatError, DimensionMismatchError


@dataclass(frozen=True)
class LinearCombo:
    """Coefficients a_k and the (i, j) entry they combine across populations."""

    coefficients: tuple[float, ...]
    edge: tuple[int, int]

    def __init__(self, coefficients, edge):
        coeffs = tuple(float(a) for a in coefficients)
        if not coeffs or all(a == 0.0 for a in coeffs):
            raise DataFormatError("at least one combination coefficient must be nonzero")
        i, j = (int(edge[0]), int(edge[1]))
        if i < 0 or j < 0:
            raise DataFormatError("edge indices must be nonnegative")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "edge", (i, j))


@dataclass(frozen=True)
class EdgeTestResult:
    edge: tuple[int, int]
    estimate: float
    std_error: float
    z_stat: float
    p_value: float
    reject: bool
    alpha_level: float


@dataclass(frozen=True)
class ConfidenceIntervalResult:
    edge: tuple[int, int]
    population: int
    lower: float
    upper: float
    level: float


# --- standard normal CDF / quantile ---------------------------------------
#
# scipy.special is imported inside the functions that use it: loading it
# costs about 0.3 s and 25 MB of resident memory, which estimation, tuning
# and most Monte Carlo runs never need.


def normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    from scipy.special import ndtr

    return float(ndtr(x))


def normal_quantile(q: float) -> float:
    """Inverse of :func:`normal_cdf` on (0, 1)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DataFormatError("quantile argument must lie strictly in (0, 1)")
    from scipy.special import ndtri

    return float(ndtri(q))


def upper_quantile(alpha: float) -> float:
    """tau_{alpha/2}: the (1 - alpha/2) quantile of the standard normal."""
    if not 0.0 < alpha < 1.0:
        raise DataFormatError("alpha must lie strictly in (0, 1)")
    return normal_quantile(1.0 - alpha / 2.0)


# --- debiasing and tests ----------------------------------------------------


def debias(estimate: PrecisionSet, covs: CovarianceSet) -> PrecisionSet:
    """One-step bias correction ``2 W - W S W`` per population, re-symmetrized
    (symmetric, but not necessarily positive definite)."""
    if estimate.K != covs.K or estimate.p != covs.p:
        raise DimensionMismatchError("estimate and covariance set do not match")
    out = []
    for w, s in zip(estimate.matrices, covs.matrices):
        d = 2.0 * w - w @ s @ w
        out.append(symmetrize(d))
    return PrecisionSet(out)


def entry_variances(estimate: np.ndarray) -> np.ndarray:
    """Plug-in variances ``W[i,i] * W[j,j] + W[i,j]^2`` of all debiased entries."""
    estimate = np.asarray(estimate, dtype=float)
    diag = np.diag(estimate)
    return np.outer(diag, diag) + estimate**2


def variance_estimate(estimate: np.ndarray, i: int, j: int) -> float:
    """Plug-in variance of the debiased entry (i, j); see :func:`entry_variances`."""
    estimate = np.asarray(estimate, dtype=float)
    p = estimate.shape[0]
    if not (0 <= i < p and 0 <= j < p):
        raise DimensionMismatchError(f"entry ({i}, {j}) out of range for p={p}")
    # The 2x2 block on rows and columns (i, j) carries all three terms.
    value = entry_variances(estimate[np.ix_((i, j), (i, j))])[0, 1]
    if value <= 0.0:
        raise DataFormatError(
            f"nonpositive variance estimate at ({i}, {j}); estimate is not PD-like"
        )
    return float(value)


def test_linear_combo(
    debiased: PrecisionSet,
    estimate: PrecisionSet,
    covs: CovarianceSet,
    combo: LinearCombo,
    alpha_level: float = 0.05,
) -> EdgeTestResult:
    """Two-sided z-test of ``H0: sum_k a_k * true_k[i, j] = 0``.

    The point estimate combines the *debiased* entries; the standard error
    combines the plug-in variances from the *penalized* estimates with the
    per-population sample sizes.
    """
    if len(combo.coefficients) != debiased.K or debiased.K != estimate.K:
        raise DimensionMismatchError("combination length must equal K")
    if debiased.K != covs.K:
        raise DimensionMismatchError("debiased set and covariances do not match")
    i, j = combo.edge
    if not (0 <= i < debiased.p and 0 <= j < debiased.p):
        raise DimensionMismatchError(f"edge ({i}, {j}) out of range for p={debiased.p}")
    if not 0.0 < alpha_level < 1.0:
        raise DataFormatError("alpha_level must lie strictly in (0, 1)")

    point = 0.0
    var = 0.0
    for k, a in enumerate(combo.coefficients):
        point += a * debiased.matrices[k][i, j]
        if a != 0.0:
            var += (
                a * a
                * variance_estimate(estimate.matrices[k], i, j)
                / covs.sample_sizes[k]
            )
    std_error = math.sqrt(var)
    if std_error == 0.0:
        raise DataFormatError("degenerate input: zero standard error")
    z = point / std_error
    p_value = 2.0 * normal_cdf(-abs(z))
    tau = upper_quantile(alpha_level)
    return EdgeTestResult(
        edge=(i, j),
        estimate=float(point),
        std_error=float(std_error),
        z_stat=float(z),
        p_value=float(p_value),
        reject=bool(abs(z) > tau),
        alpha_level=float(alpha_level),
    )


def confidence_interval(
    debiased: PrecisionSet,
    estimate: PrecisionSet,
    covs: CovarianceSet,
    k: int,
    i: int,
    j: int,
    level: float = 0.95,
) -> ConfidenceIntervalResult:
    """CI for one precision entry: debiased point +- tau * sigma_hat / sqrt(n_k)."""
    if not 0 <= k < debiased.K:
        raise DimensionMismatchError(f"population {k} out of range for K={debiased.K}")
    if not (0 <= i < debiased.p and 0 <= j < debiased.p):
        raise DimensionMismatchError(f"entry ({i}, {j}) out of range for p={debiased.p}")
    if not 0.0 < level < 1.0:
        raise DataFormatError("level must lie strictly in (0, 1)")
    sigma = math.sqrt(variance_estimate(estimate.matrices[k], i, j))
    half = upper_quantile(1.0 - level) * sigma / math.sqrt(covs.sample_sizes[k])
    center = debiased.matrices[k][i, j]
    return ConfidenceIntervalResult(
        edge=(i, j),
        population=k,
        lower=float(center - half),
        upper=float(center + half),
        level=float(level),
    )
