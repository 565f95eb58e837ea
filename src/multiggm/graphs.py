"""Synthetic precision-matrix families: chain and star graphs.

The chain family is tridiagonal with unit diagonal; the star family puts one
randomly chosen hub vertex in contact with d randomly chosen spokes, all
other vertices isolated.  Star support is drawn from ``hub_seed`` alone, so
populations built with the same seed share the identical sparsity pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PrecisionSet, is_positive_definite, make_rng
from .errors import ConfigError


def chain_precision(p: int, rho: float) -> np.ndarray:
    """Tridiagonal precision: 1 on the diagonal, ``rho`` on the first off-diagonals.

    Positive definite iff ``1 - 2 |rho| cos(pi / (p + 1)) > 0``; checked
    numerically.  A ``rho`` not finite or not PD raises :class:`ConfigError`.
    """
    if p < 1:
        raise ConfigError("dimension must be at least 1")
    if not math.isfinite(rho):
        raise ConfigError(f"chain parameter rho={rho} must be finite")
    m = np.eye(int(p))
    idx = np.arange(p - 1)
    m[idx, idx + 1] = rho
    m[idx + 1, idx] = rho
    if p > 1 and 1.0 - 2.0 * abs(rho) * math.cos(math.pi / (p + 1)) <= 0.0:
        raise ConfigError(f"chain parameter rho={rho} is not positive definite at p={p}")
    return m


def star_precision(
    p: int, d: int, diag: float, offdiag: float, hub_seed: int
) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """Star-shaped precision with a seeded hub of degree ``d``.

    Returns ``(matrix, hub, spokes)``.  The hub and its ``d`` spokes are a
    uniform seeded choice without replacement, so the same ``hub_seed``
    reproduces the same support at any parameter values.  Parameters out
    of range, not finite or not positive definite raise :class:`ConfigError`.
    """
    p, d = int(p), int(d)
    if d < 0 or d >= p:
        raise ConfigError(f"degree d={d} must satisfy 0 <= d < p={p}")
    if diag <= 0:
        raise ConfigError("diagonal value must be positive")
    if not (math.isfinite(diag) and math.isfinite(offdiag)):
        raise ConfigError(f"star parameters must be finite, got diag={diag}, offdiag={offdiag}")
    rng = make_rng(hub_seed)
    perm = rng.permutation(p)
    hub = int(perm[0])
    spokes = tuple(int(v) for v in np.sort(perm[1 : d + 1]))
    m = np.eye(p) * float(diag)
    for b in spokes:
        m[hub, b] = m[b, hub] = offdiag
    if not is_positive_definite(m):
        ratio = math.sqrt(d) * abs(offdiag) / diag
        raise ConfigError(
            f"star parameters are not positive definite: sqrt(d)*|offdiag|/diag"
            f" = {ratio:.4f} >= 1"
        )
    return m, hub, spokes


@dataclass(frozen=True)
class GraphSpec:
    """Family description for multi-population experiments.

    ``chain_rho`` (one value per population) selects the chain family;
    ``star_diag``/``star_offdiag`` (one value per population) with ``star_d``
    and ``hub_seed`` select the star family.  The dimension is supplied at
    build time so one spec can sweep several p.  An invalid spec, and at
    build a ``p`` it does not fit, raise :class:`ConfigError`.
    """

    kind: str
    chain_rho: tuple[float, ...] = ()
    star_d: int = 0
    star_diag: tuple[float, ...] = ()
    star_offdiag: tuple[float, ...] = ()
    hub_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("chain", "star"):
            raise ConfigError(f"unknown graph kind {self.kind!r}")
        if self.kind == "chain":
            if not self.chain_rho:
                raise ConfigError("chain spec needs at least one rho")
            object.__setattr__(
                self, "chain_rho", tuple(float(r) for r in self.chain_rho)
            )
        else:
            if not self.star_diag or len(self.star_diag) != len(self.star_offdiag):
                raise ConfigError("star spec needs matching diag and offdiag value lists")
            object.__setattr__(self, "star_diag", tuple(float(v) for v in self.star_diag))
            object.__setattr__(
                self, "star_offdiag", tuple(float(v) for v in self.star_offdiag)
            )

    def build(self, p: int) -> PrecisionSet:
        """Materialize the true precision matrices at dimension ``p``."""
        if self.kind == "chain":
            mats = [chain_precision(p, r) for r in self.chain_rho]
        else:
            mats = [
                star_precision(p, self.star_d, dv, ov, self.hub_seed)[0]
                for dv, ov in zip(self.star_diag, self.star_offdiag)
            ]
        return PrecisionSet(mats, positive_definite=True)


def two_population_chain_spec() -> GraphSpec:
    """Reference two-population chain family (couplings 0.2 and 0.35)."""
    return GraphSpec(kind="chain", chain_rho=(0.2, 0.35))


def two_population_star_spec(d: int = 25, hub_seed: int = 0) -> GraphSpec:
    """Reference two-population star family (diag 2/2.5, offdiag 0.3/0.45)."""
    return GraphSpec(
        kind="star",
        star_d=d,
        star_diag=(2.0, 2.5),
        star_offdiag=(0.3, 0.45),
        hub_seed=hub_seed,
    )
