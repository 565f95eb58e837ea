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
index pairs.  The z-test and interval views, :func:`test_linear_combo` and
:func:`confidence_interval`, take the same index arrays and return fields
of their shape, so a whole edge list is tested in one call; the Monte Carlo
normality and coverage studies call :func:`combine` directly.

All indices in this module are 0-based; user-facing I/O converts to 1-based
at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CovarianceSet, PrecisionSet, symmetrize
from .errors import ConfigError, DataFormatError, DimensionMismatchError


@dataclass(frozen=True)
class EdgeTestResult:
    """z-test fields with the shape of the index pairs (numpy scalars for one pair)."""

    estimate: np.ndarray
    std_error: np.ndarray
    z_stat: np.ndarray
    p_value: np.ndarray
    reject: np.ndarray


@dataclass(frozen=True)
class ConfidenceIntervalResult:
    """Interval bounds with the shape of the index pairs (numpy scalars for one pair)."""

    lower: np.ndarray
    upper: np.ndarray


# --- standard normal tail / quantile --------------------------------------
#
# The standard library's erfc and NormalDist keep the package on numpy
# alone: scipy.special would cost about 0.17 s, 24 MB and a second OpenBLAS
# for a handful of points.  statistics is imported where it is used: it
# loads decimal and fractions, about 4 ms that estimation, tuning and most
# simulations never need.

_SQRT_HALF = math.sqrt(0.5)
_erfc = np.vectorize(math.erfc, otypes=[float])


def _check_level(value: float, name: str, alpha: float | None = None) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` lies in (0, 1)
    and, given the two-sided tail ``alpha`` it stands for (``1 - value`` for an
    interval), ``upper_quantile(alpha)`` is finite: ``1 - alpha / 2 < 1``."""
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must lie strictly in (0, 1), got {value}")
    if alpha is not None and not (alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0):
        raise ConfigError(f"{name} is too close to {round(value)} in double precision, got {value}")


def normal_quantile(q: float) -> float:
    """Standard normal quantile: the inverse of ``Phi`` on (0, 1)."""
    q = float(q)
    _check_level(q, "quantile argument")
    from statistics import NormalDist

    return NormalDist().inv_cdf(q)


def upper_quantile(alpha: float) -> float:
    """tau_{alpha/2}: the (1 - alpha/2) quantile of the standard normal."""
    _check_level(alpha, "alpha", alpha)
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
    entries at the index pairs ``(rows[m], cols[m])``.

    ``np.square`` rounds the product correctly for a scalar pair too, where
    ``** 2`` on a numpy scalar goes through ``pow`` and can be 1 ulp off.
    """
    estimate = np.asarray(estimate, dtype=float)
    return estimate[rows, rows] * estimate[cols, cols] + np.square(estimate[rows, cols])


def _check_coefficients(coefficients, K: int) -> None:
    """Raise :class:`ConfigError` unless there are ``K`` finite coefficients, not all zero."""
    if len(coefficients) != K:
        raise ConfigError(f"{len(coefficients)} coefficients for {K} populations")
    values = np.asarray(coefficients, dtype=float)
    if not np.isfinite(values).all():
        shown = ",".join(f"{v:g}" for v in values)
        raise ConfigError(f"combination coefficients must be finite, got {shown}")
    if not values.any():
        raise ConfigError("at least one combination coefficient must be nonzero")


def _check_pairs(rows, cols, p: int) -> None:
    """Raise :class:`ConfigError` naming, 1-based, the first 0-based pair outside ``0 .. p-1``."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    outside = (np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) >= p)
    if outside.any():
        m = np.flatnonzero(outside)[0]
        raise ConfigError(f"edge ({rows.flat[m] + 1},{cols.flat[m] + 1}) out of range for p={p}")


def combine(
    debiased: PrecisionSet, estimate: PrecisionSet, covs: CovarianceSet, coefficients, rows, cols
) -> tuple[np.ndarray, np.ndarray]:
    """Point estimates and standard errors of ``sum_k a_k * D_k[i, j]``.

    Evaluated at the index pairs ``(rows[m], cols[m])`` (arrays or scalars);
    returns two arrays of their shape.  The point combines the *debiased*
    entries; the variance ``sum_k a_k^2 * sigma_k[i, j]^2 / n_k`` combines
    the plug-in variances of the *penalized* estimates, skipping ``a_k = 0``.
    Bad coefficients or pairs raise :class:`ConfigError`, by the rules that
    the CLI's ``test`` applies to its flags before the solve.
    """
    _check_coefficients(coefficients, debiased.K)
    if not debiased.K == estimate.K == covs.K:
        raise DimensionMismatchError("debiased set, estimate and covariances do not match")
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    _check_pairs(rows, cols, debiased.p)
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
    coefficients,
    rows,
    cols,
    alpha_level: float = 0.05,
) -> EdgeTestResult:
    """Two-sided z-tests of ``H0: sum_k a_k * true_k[i, j] = 0``: the
    :func:`combine` statistic at the index pairs ``(rows[m], cols[m])``."""
    _check_level(alpha_level, "alpha_level", alpha_level)
    point, std_error = combine(debiased, estimate, covs, coefficients, rows, cols)
    z = point / std_error
    # erfc(|z| / sqrt 2) = 2 Phi(-|z|) stays positive up to |z| = 38.5.
    p_value = _erfc(np.abs(z) * _SQRT_HALF)
    reject = np.abs(z) > upper_quantile(alpha_level)
    return EdgeTestResult(point[()], std_error[()], z[()], p_value[()], reject[()])


def confidence_interval(
    debiased: PrecisionSet,
    estimate: PrecisionSet,
    covs: CovarianceSet,
    k: int,
    rows,
    cols,
    level: float = 0.95,
) -> ConfidenceIntervalResult:
    """CIs for population k's entries at the index pairs ``(rows[m], cols[m])``:
    debiased point +- tau * sigma_hat / sqrt(n_k), the :func:`combine`
    statistic of population k's unit vector."""
    if not 0 <= k < debiased.K:
        raise ConfigError(f"population {k} out of range for K={debiased.K}")
    _check_level(level, "level", 1.0 - level)
    center, std_error = combine(debiased, estimate, covs, np.eye(debiased.K)[k], rows, cols)
    half = upper_quantile(1.0 - level) * std_error
    return ConfidenceIntervalResult((center - half)[()], (center + half)[()])
