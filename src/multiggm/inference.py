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
case a = (1, -1).  :func:`combine` evaluates that statistic at arrays of
index pairs; the one-edge z-test and interval views and the Monte Carlo
normality and coverage studies all take it from there.

All indices in this module are 0-based; user-facing I/O converts to 1-based
at the boundary.
"""

from __future__ import annotations

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


def entry_variances(estimate: np.ndarray, rows, cols) -> np.ndarray:
    """Plug-in variances ``W[i,i] * W[j,j] + W[i,j]^2`` of the debiased
    entries at the index pairs ``(rows[m], cols[m])``."""
    estimate = np.asarray(estimate, dtype=float)
    return estimate[rows, rows] * estimate[cols, cols] + estimate[rows, cols] ** 2


def combine(
    debiased: PrecisionSet, estimate: PrecisionSet, covs: CovarianceSet, coefficients, rows, cols
) -> tuple[np.ndarray, np.ndarray]:
    """Point estimates and standard errors of ``sum_k a_k * D_k[i, j]``.

    Evaluated at the index pairs ``(rows[m], cols[m])`` (arrays or scalars);
    returns two arrays of their shape.  The point combines the *debiased*
    entries; the variance ``sum_k a_k^2 * sigma_k[i, j]^2 / n_k`` combines
    the plug-in variances of the *penalized* estimates, skipping ``a_k = 0``.
    """
    if len(coefficients) != debiased.K or debiased.K != estimate.K:
        raise DimensionMismatchError("combination length must equal K")
    if debiased.K != covs.K:
        raise DimensionMismatchError("debiased set and covariances do not match")
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    outside = (np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) >= debiased.p)
    if outside.any():
        m = np.flatnonzero(outside)[0]
        raise DimensionMismatchError(
            f"edge ({rows.flat[m]}, {cols.flat[m]}) out of range for p={debiased.p}"
        )
    point = np.zeros(rows.shape)
    var = np.zeros(rows.shape)
    for k, a in enumerate(coefficients):
        a = float(a)
        point = point + a * debiased.matrices[k][rows, cols]
        if a != 0.0:
            sigma2 = entry_variances(estimate.matrices[k], rows, cols)
            if (sigma2 <= 0.0).any():
                m = np.flatnonzero(sigma2 <= 0.0)[0]
                raise DataFormatError(
                    f"nonpositive variance estimate at ({rows.flat[m]}, {cols.flat[m]}); "
                    "estimate is not PD-like"
                )
            var = var + a * a * sigma2 / covs.sample_sizes[k]
    std_error = np.sqrt(var)
    if (std_error == 0.0).any():
        raise DataFormatError("degenerate input: zero standard error")
    return point, std_error


def test_linear_combo(
    debiased: PrecisionSet,
    estimate: PrecisionSet,
    covs: CovarianceSet,
    combo: LinearCombo,
    alpha_level: float = 0.05,
) -> EdgeTestResult:
    """Two-sided z-test of ``H0: sum_k a_k * true_k[i, j] = 0``: the
    :func:`combine` statistic at one edge."""
    if not 0.0 < alpha_level < 1.0:
        raise DataFormatError("alpha_level must lie strictly in (0, 1)")
    i, j = combo.edge
    point, std_error = map(float, combine(debiased, estimate, covs, combo.coefficients, i, j))
    z = point / std_error
    p_value = 2.0 * normal_cdf(-abs(z))
    tau = upper_quantile(alpha_level)
    return EdgeTestResult(
        edge=(i, j),
        estimate=point,
        std_error=std_error,
        z_stat=z,
        p_value=p_value,
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
    """CI for one precision entry: debiased point +- tau * sigma_hat / sqrt(n_k),
    the :func:`combine` statistic of population k's unit vector."""
    if not 0 <= k < debiased.K:
        raise DimensionMismatchError(f"population {k} out of range for K={debiased.K}")
    if not 0.0 < level < 1.0:
        raise DataFormatError("level must lie strictly in (0, 1)")
    center, std_error = map(float, combine(debiased, estimate, covs, np.eye(debiased.K)[k], i, j))
    half = upper_quantile(1.0 - level) * std_error
    return ConfidenceIntervalResult(
        edge=(i, j),
        population=k,
        lower=center - half,
        upper=center + half,
        level=float(level),
    )
