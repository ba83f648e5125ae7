"""What the quadrature actually does, and how the radius is chosen.

Every probability here is a product-contour integral over small circles
around the origin. This script shows the bare residue computation, the two
constraints that fight over the radius (stay inside the interaction poles,
stay accurate for negative powers), and what failure looks like when a
contour is starved of nodes.
"""

import numpy as np

from asep_exact import (
    ContourSpec,
    RateParams,
    admissible_radius_bound,
    balanced_radius,
    distribution_over_window,
    node_points,
    oracle_distribution,
)

print("== residues from a bare contour ==")
# (2 pi i)^-1 times the contour integral of f is the mean over the nodes
# of f(z) * z
z = node_points(0.5, 64)
for k in (-3, -1, 0, 2):
    # mean of z^k * z: exactly 1 when k = -1, else 0
    value = np.mean(z**k * z)
    print(f"  residue of z^{k}: {complex(value):.3e}")

print("\n== a pole inside vs outside the contour ==")
for a, where in ((0.25, "inside"), (0.8, "outside")):
    value = np.mean(z / (z - a))
    print(f"  1/(z - {a}) with the pole {where}: {value.real:+.6f}")

print("\n== the admissible radius shrinks as p leaves 1 ==")
for p in (1.0, 0.9, 0.7, 0.5):
    bound = admissible_radius_bound(RateParams.from_p(p))
    print(f"  p = {p}: scattering poles stay outside |z| < {bound:.6f}")

print("\n== balancing accuracy against the pole bound ==")
rates = RateParams.from_p(0.7)
print("  deeper negative exponents and longer times pull the radius up:")
for t, min_exponent in ((1.0, 0), (1.0, -10), (1.0, -25), (3.0, -10)):
    r = balanced_radius(rates, t, min_exponent, max_inversions=1, n_axes=2)
    print(f"    t = {t}, worst exponent {min_exponent}: radius {r:.6f}")

print("\n== node count vs accuracy, measured ==")
# A starved contour aliases every target onto its neighbours K sites away;
# the worst error over the window at each node count:
y, nu, t, window = (0, 1), (1, 1), 1.0, (-4, 5)
truth, _, _ = oracle_distribution(y, nu, rates, t)
for nodes in (8, 16, 32, 64):
    spec = ContourSpec(nodes=nodes, dimension=2)
    report = distribution_over_window(y, nu, rates, t, window=window, spec=spec)
    worst = max(
        abs(tv.value - truth[(tv.sites, tv.species)]) for tv in report.values
    )
    print(f"  {nodes:4d} nodes: worst |formula - generator| = {worst:.1e}")

print("\n== one more invariant: real values by construction ==")
# node K - k is the conjugate of node k and the integrand has real
# coefficients, so slab K - k's spectrum is the conjugate of slab k's: only
# K/2 + 1 slabs are walked, and the transform along the slab axis is a
# Hermitian inverse FFT whose output is real
report = distribution_over_window(y, nu, rates, t)
print(f"  {len(report.values)} targets over the automatic window "
      f"{report.window}, nodes {report.quadrature.nodes}")
values = np.array([tv.value for tv in report.values])
print(f"  values span [{values.min():.1e}, {values.max():.3f}]; "
      f"{np.count_nonzero(values < 0)} of {values.size} are negative roundoff")
print(f"  each value is a Python {type(report.values[0].value).__name__}, with no "
      "imaginary part; a starved contour is flagged by its range instead (the "
      "warnings of the 8- and 16-node windows above)")
