"""Tensor-product contour quadrature on a common circle.

All integrals in this package are over N copies of a circle |xi| = r
centered at the origin, with r small enough that every scattering
denominator p + q*u*v - v stays away from zero on and inside the torus:
that needs q*r^2 + r < p, i.e. r below the positive root

    r_star = (sqrt(1 + 4 p q) - 1) / (2 q)      (r_star = p when q = 0).

``balanced_radius`` minimizes a magnitude bound over admissible radii,
which matters when targets sit far to the left of the initial
configuration and the integrand grows like r**(negative exponent).
A ``ContourSpec`` is what a caller asks for and decides each half's radius,
pole-bound check and slab budget (``radius_for``); a ``Quadrature`` is what
actually ran: the nodes, the radius each half used and how it was chosen.

Discretization: K equispaced nodes per circle (``node_points``) turn each
contour integral (2*pi*i)^-1 * closed integral f dxi into the exact mean
over nodes of f(node) * node; the tensor version multiplies one node factor
per axis.  For integrands analytic in an annulus around the circle the
error decays geometrically in K (aliasing onto exponents shifted by
multiples of K).  The one engine that evaluates these sums, in
``transition_prob``, reads every coefficient off extended-precision
(clongdouble) spectra of the node grid: the sums cancel down many orders
from the individual terms, and float64 roundoff would dominate the
tolerances this package promises.  Node order is fixed, so results are
reproducible bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bethe_algebra import RateParams, _check_positive

LONG_PI = np.longdouble("3.141592653589793238462643383279502884")

DEFAULT_NODES = 64
# Each contour half holds a K x K scattering matrix of extended-precision
# complex, K^2 * 32 bytes: 32 MiB at this cap.
MAX_NODES = 1024
# Cap on one slab's node-grid size, K^(N-1) points of extended-precision
# complex.  64^3 fits comfortably; one more axis would not.
MAX_SLAB_POINTS = 1 << 21


def admissible_radius_bound(rates: RateParams) -> float:
    """Largest radius with all scattering denominators bounded away from
    zero on the closed polydisk: the positive root of q r^2 + r = p."""
    p, q = float(rates.p), float(rates.q)
    if q == 0:
        return p
    return (math.sqrt(1 + 4 * p * q) - 1) / (2 * q)


def balanced_radius(
    rates: RateParams, t: float, min_exponent: int, n: int, nodes: int = DEFAULT_NODES
) -> float:
    """Admissible radius minimizing a crude quadrature error bound for n
    particles.

    The error has two parts, both proportional to the summand magnitude
    scale M(r) = r**min_exponent (worst total power of the target
    monomials against the initial-position factors) times the time factor
    exp((p/r + q r - 1) * n * t) times the scattering ratio f_max/f_min
    once per inversion, of which a permutation has at most n(n-1)/2:

      * roundoff, eps * M(r): pushes r toward the magnitude minimum;
      * trapezoid aliasing, decaying like (r / rho)**nodes with rho the
        distance to the nearest scattering pole, plus the inward tail of
        the essential singularity of the time factor at 0: pushes r away
        from the pole circle (and, for small t, away from 0).

    Minimizing the sum keeps the cancellation as small as the admissible
    contour family allows without letting truncation leak in.
    """
    p, q = float(rates.p), float(rates.q)
    r_star = admissible_radius_bound(rates)
    grid = np.linspace(0.05, 0.97, 185) * r_star
    f_lo = p - grid - q * grid**2
    f_hi = p + grid + q * grid**2
    log_scale = (
        min_exponent * np.log(grid)
        + (p / grid + q * grid - 1) * n * max(t, 0.0)
        + n * (n - 1) // 2 * np.log(f_hi / f_lo)
    )
    # nearest scattering pole over both arguments of the pair factor
    rho = p / (1 + q * grid)
    if q > 0:
        with np.errstate(divide="ignore"):
            rho = np.minimum(rho, np.where(grid < p, (p - grid) / (q * grid), np.inf))
    eps = float(np.finfo(np.longdouble).eps)
    log_alias = nodes * np.log(grid / rho)
    tails = np.exp(log_alias)
    if t > 0:
        log_inward = nodes * np.log(p * t / grid) - math.lgamma(nodes + 1)
        with np.errstate(over="ignore"):
            tails = tails + np.exp(np.minimum(log_inward, 700.0))
    log_bound = log_scale + np.log(eps + tails)
    return float(grid[int(np.argmin(log_bound))])


@dataclass(frozen=True)
class Quadrature:
    """The contour a computation ran on: nodes per axis, the radius of the
    direct half and of the mirrored half (None when no target was computed
    in that half), and whether the radius was given or balanced."""

    nodes: int
    radius: float | None
    radius_rule: Literal["balanced", "explicit"]
    mirror_radius: float | None = None


@dataclass(frozen=True)
class ContourSpec:
    """Quadrature settings: nodes per axis and the common radius.

    radius=None means the balanced radius, picked for each half once the
    rates and targets are known.  dimension=None takes the particle count
    from the start; any other value must equal it.
    """

    nodes: int = DEFAULT_NODES
    radius: float | None = None
    dimension: int | None = None

    def __post_init__(self):
        if not isinstance(self.nodes, numbers.Integral) or isinstance(self.nodes, bool):
            raise ValueError(f"nodes must be an integer, got nodes = {self.nodes!r}")
        if self.nodes < 8 or self.nodes % 2 or self.nodes > MAX_NODES:
            raise ValueError(f"nodes must be even, at least 8 and at most {MAX_NODES}")
        if self.radius is not None:
            _check_positive("radius", self.radius)
        dimension = self.dimension
        if dimension is not None and (
            not isinstance(dimension, numbers.Integral) or isinstance(dimension, bool) or dimension < 1
        ):
            raise ValueError(f"dimension must be a positive integer, got dimension = {dimension!r}")

    @staticmethod
    def fits(nodes: int, n: int) -> bool:
        """Whether n particles can run on ``nodes`` nodes per axis: at most
        MAX_NODES, and one slab, nodes^(n-1) points, within MAX_SLAB_POINTS."""
        return nodes <= MAX_NODES and nodes ** (n - 1) <= MAX_SLAB_POINTS

    def radius_for(
        self, rates: RateParams, t: float, min_exponent: int, n: int, mirrored: bool = False
    ) -> float | np.longdouble:
        """The radius of one half of an n-particle run whose lowest target
        exponent is min_exponent: the explicit one, or the balanced one.
        An explicit radius outside the half's pole bound is a ValueError, in
        the mirrored half's own words when ``mirrored`` (``rates`` then have
        p and q swapped); after it, so is a node grid ``fits`` refuses."""
        if self.radius is None:
            radius = balanced_radius(rates, t, min_exponent, n, nodes=self.nodes)
        else:
            radius, bound = np.longdouble(self.radius), admissible_radius_bound(rates)
            if not radius < bound:
                raise ValueError(
                    f"radius {self.radius} is refused by the mirrored half, where targets left "
                    f"of the start run with p and q swapped (p = {float(rates.p):g}, "
                    f"q = {float(rates.q):g}): its pole bound is {bound:g}"
                    if mirrored
                    else f"radius {float(radius)} is not strictly inside the pole bound "
                    f"{bound} for p={rates.p}"
                )
        if not self.fits(self.nodes, n):
            raise ValueError(
                f"node grid K^(N-1) = {self.nodes}^{n - 1} exceeds the slab budget; "
                "lower the node count or the particle count"
            )
        return radius

    def quadrature(self, radius: float | None, mirror_radius: float | None = None) -> Quadrature:
        """The record of a run on this spec with the radii each half used."""
        rule = "balanced" if self.radius is None else "explicit"
        return Quadrature(self.nodes, radius, rule, mirror_radius)


def node_points(radius: float, nodes: int) -> np.ndarray:
    """The K quadrature nodes radius * exp(2 pi i k / K), extended
    precision.  K is even; nodes k <= K/2 are computed, node K/2 is exactly
    -radius, and the rest are their conjugates, so node K - k is conj(node
    k) bit for bit."""
    if nodes < 2 or nodes % 2:
        raise ValueError(f"node count must be even and positive, got {nodes}")
    half = nodes // 2
    theta = 2 * LONG_PI * np.arange(half + 1, dtype=np.longdouble) / np.longdouble(nodes)
    upper = np.cos(theta) + 1j * np.sin(theta)
    upper[half] = -1
    unit = np.concatenate([upper, upper[half - 1:0:-1].conj()])
    return np.asarray(radius, dtype=np.longdouble) * unit


def axis_view(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """Reshape a 1-D node array so it broadcasts along one tensor axis."""
    shape = [1] * ndim
    shape[axis] = values.size
    return values.reshape(shape)
