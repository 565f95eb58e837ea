"""Check the support-recovery conditions on known precision matrices.

The guarantees behind joint sparse estimation need (a) an irrepresentability
condition per population, (b) an aggregate cross-population version tied to
the penalty split, and (c) bounded eigenvalues.  All three are computable
for synthetic ground-truth matrices, as are the constants entering the
sample-size requirements.
"""

from multiggm import (
    PenaltyPair,
    PrecisionSet,
    chain_precision,
    check_between_group,
    check_irrepresentability,
    diagnostics_report,
    graph_stats,
    rate_delta,
    star_precision,
)

print("Per-family irrepresentability slack (positive means the condition holds):")
for p in (5, 10, 25, 50):
    chain = chain_precision(p, 0.2)
    print(f"  chain p={p:>3}, coupling 0.2: alpha = {check_irrepresentability(chain):.4f}")
star, hub, spokes = star_precision(25, 5, 2.0, 0.3, hub_seed=3)
print(f"  star p=25, degree 5:        alpha = {check_irrepresentability(star):.4f}"
      f"  (hub vertex {hub + 1})")

print("\nAggregate condition for the chain pair (0.2, 0.35), equal penalty split:")
mats = [chain_precision(10, 0.2), chain_precision(10, 0.35)]
alpha = min(check_irrepresentability(m) for m in mats)
lhs, rhs, holds = check_between_group(
    PrecisionSet(mats, positive_definite=True), PenaltyPair(0.1, 0.1),
    psi=0.5, alpha=alpha,
)
print(f"  lhs = {lhs:.4f}, rhs = {rhs:.4f}, holds: {holds}")

print("\nConcentration radius of the sample covariance (drives the penalty rate):")
for n in (200, 600, 2000):
    print(f"  n={n:>5}: delta = {rate_delta(n, 50, 2.5, 1.0, 1.0):.3f}")

print("\nFull report for the chain pair at n = (600, 600):")
report = diagnostics_report(
    PrecisionSet(mats, positive_definite=True),
    PenaltyPair(0.1, 0.1), psi=0.5, sample_sizes=(600, 600), eigen_bound_l=0.2,
)
print(report.assumptions_hold)
stats = graph_stats(mats[0])
print(f"Graph stats, population 1: max degree {stats.max_degree}, "
      f"{stats.edge_total} edges, smallest nonzero entry {stats.omega_min}")
