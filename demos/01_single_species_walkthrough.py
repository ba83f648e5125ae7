"""Two identical particles on the integer lattice, start to finish.

Walks the smallest nontrivial case: the exact two-particle transition
probabilities, checked three independent ways (contour formula, window
generator, Monte Carlo), plus the t = 0 sanity limit.
"""

from asep_exact import (
    RateParams,
    compare,
    delta_recovery,
    distribution_over_window,
    oracle_distribution,
    simulate,
    single_species_probability,
)

rates = RateParams.from_p(0.7)
y = (0, 1)
nu = (1, 1)
t = 1.0

print("== exact values from the contour formula ==")
for x in ((0, 1), (1, 2), (-1, 3), (2, 5)):
    value = single_species_probability(y, x, rates, t)
    print(f"  P(X = {x}) = {value:.12f}")

print("\n== the same numbers from the finite-window generator ==")
oracle, window, leak = oracle_distribution(y, nu, rates, t)
print(f"  window {window}, leakage bound {leak:.2e}")
for x in ((0, 1), (1, 2), (-1, 3), (2, 5)):
    print(f"  P(X = {x}) = {oracle[(x, nu)]:.12f}")

print("\n== whole distribution at once ==")
report = distribution_over_window(y, nu, rates, t)
print(f"  {len(report.values)} targets, total mass {report.total_mass:.12f}")
# The worst error, split into targets carrying real mass and the far
# tail (mass under 1e-8).
diffs = [
    (oracle.get((tv.sites, tv.species), 0.0), abs(tv.value - oracle.get((tv.sites, tv.species), 0.0)))
    for tv in report.values
]
worst_mass = max(d for m, d in diffs if m >= 1e-8)
worst_tail = max(d for m, d in diffs if m < 1e-8)
print(f"  worst |formula - generator|, targets with mass >= 1e-8: {worst_mass:.3e}")
print(f"  worst on far-tail targets, mass < 1e-8: {worst_tail:.3e}")

print("\n== Monte Carlo cross-check ==")
result = simulate(y, nu, rates, t, trials=50_000, seed=7)
mc = compare(result, report.as_dict())
print(
    f"  {len(mc.checked)} cells with expected count >= 25, "
    f"max |z| = {mc.max_abs_z:.2f}, passed = {mc.passed}"
)

print("\n== t = 0 recovers the point mass ==")
delta = delta_recovery(y, nu, rates)
print(
    f"  worst |P - delta| = {delta.max_residual:.3e} "
    f"at {delta.quadrature.nodes} nodes, radius {delta.quadrature.radius:.4f}"
)
