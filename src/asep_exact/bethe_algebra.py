"""Scalar building blocks of the contour-integral transition formulas.

Everything here is generic over the scalar type: exact ``fractions.Fraction``
values for identity checking, complex floats or numpy arrays (any shape,
broadcasting welcome) for quadrature.  ``RateParams`` carries the hop rates
p (right) and q = 1 - p (left); p = 0 is rejected because every contour
bound below degenerates with it.

The two-argument kernel ``f_factor(u, v) = p + q*u*v - u`` owns the pole
structure: the scattering factor is ``s_factor(u, v) = -f(u, v) / f(v, u)``
and the amplitude attached to a permutation is the product of scattering
factors over its inversions.  Evaluating at a point where the denominator
vanishes (to within a relative guard, in float mode) raises BethePoleError;
callers re-randomize or shrink the contour rather than continue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational, Real

import numpy as np

from .permutations import Permutation, inversions

POLE_GUARD = 1e-13


class BethePoleError(ArithmeticError):
    """Scattering denominator vanished (or nearly did) at an evaluation point."""


def _check_positive(name: str, value) -> None:
    """A tolerance, threshold or radius: a finite positive real number, of
    which a bool is not one (numpy's bool is no Real at all)."""
    real = isinstance(value, Real) and not isinstance(value, bool)
    if not (real and 0 < value < math.inf):
        raise ValueError(f"{name} must be a finite positive number, got {name} = {value!r}")


@dataclass(frozen=True)
class RateParams:
    """Hop rates: right rate p, left rate q = 1 - p, p + q = 1, p != 0."""

    p: object
    q: object

    def __post_init__(self):
        if any(isinstance(v, (bool, np.bool_)) for v in (self.p, self.q)):
            raise ValueError(
                f"rates must be numbers, not bools, got p = {self.p}, q = {self.q}"
            )
        if self.p == 0:
            raise ValueError(
                "p = 0 violates the p != 0 hypothesis behind every contour "
                "bound here; reflect the lattice to swap p and q instead"
            )
        total = self.p + self.q
        exact = isinstance(self.p, Rational) and isinstance(self.q, Rational)
        if (total != 1) if exact else abs(total - 1) > 1e-12:
            raise ValueError("rates must satisfy p + q = 1")
        if not 0 < float(self.p) <= 1:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")

    @classmethod
    def from_p(cls, p) -> "RateParams":
        """q = 1 - p in p's own arithmetic, so Fraction stays Fraction."""
        return cls(p, 1 - p)

    @property
    def exact(self) -> bool:
        return isinstance(self.p, Rational)


def dispersion(xi, rates: RateParams):
    """Single-mode decay exponent p/xi + q*xi - 1 in the time factor."""
    return rates.p / xi + rates.q * xi - 1


def f_factor(u, v, rates: RateParams):
    """The bilinear kernel p + q*u*v - u; denominators are f with swapped
    arguments."""
    return rates.p + rates.q * u * v - u


def _guard(den, u, v):
    # In exact mode only a true zero is a pole; in float mode anything
    # within POLE_GUARD of zero (relative to the point's size) is treated
    # as one, because the quadrature error analysis assumes a margin.
    if isinstance(den, Rational):
        if den == 0:
            raise BethePoleError("scattering denominator is exactly zero")
        return
    scale = 1 + np.abs(u) + np.abs(v)
    bad = np.abs(den) < POLE_GUARD * scale
    if np.any(bad):
        raise BethePoleError("scattering denominator within pole guard")


def s_factor(u, v, rates: RateParams):
    """Two-particle scattering factor -f(u, v)/f(v, u).

    Reciprocal identity: s_factor(u, v) * s_factor(v, u) == 1, and
    s_factor(u, u) == -1.
    """
    den = f_factor(v, u, rates)
    _guard(den, u, v)
    return -f_factor(u, v, rates) / den


def amplitude(sigma: Permutation, xi, rates: RateParams):
    """Product of scattering factors over the inversions of sigma.

    ``xi`` is a sequence of N scalars (or broadcastable arrays); entry pair
    (a, b) contributes s_factor(xi[a-1], xi[b-1]).  Fixed iteration order
    (sorted pairs) keeps float results reproducible.
    """
    out = 1
    for a, b in sorted(inversions(sigma)):
        out = out * s_factor(xi[a - 1], xi[b - 1], rates)
    return out
