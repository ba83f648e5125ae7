"""Contour quadrature: node layout, radius selection, residue extraction."""

import numpy as np
import pytest

from asep_exact import (
    ContourSpec,
    RateParams,
    admissible_radius_bound,
    all_permutations,
    amplitude,
    balanced_radius,
    dispersion,
    inverse,
    node_points,
    sigma_summand,
    transition_prob,
)
from asep_exact.contour_quadrature import axis_view


def test_node_points_on_circle():
    z = node_points(0.3, 64)
    assert z.dtype == np.clongdouble
    assert np.allclose(np.abs(z), 0.3, rtol=0, atol=1e-18)
    assert z[0] == pytest.approx(0.3)
    # nodes in conjugate pairs: z[k] and z[-k]
    assert np.allclose(np.conj(z[1:]), z[:0:-1], rtol=0, atol=1e-18)


@pytest.mark.parametrize("nodes", [8, 16, 64, 1024])
def test_node_points_are_exactly_conjugate_symmetric(nodes):
    # the engine fills slab K - k from slab k, which needs node K - k to be
    # conj(node k) bit for bit
    radius = np.longdouble(0.3)
    z = node_points(radius, nodes)
    assert np.array_equal(z[1:], np.conj(z[:0:-1]))
    assert z[0] == radius and z[0].imag == 0
    assert z[nodes // 2] == -radius and z[nodes // 2].imag == 0


@pytest.mark.parametrize("nodes", [0, 7])
def test_node_points_rejects_odd_counts(nodes):
    with pytest.raises(ValueError, match="even"):
        node_points(0.3, nodes)


def test_admissible_bound_values():
    # q = 0: every denominator is p - u, zero-free for |u| < p
    assert admissible_radius_bound(RateParams.from_p(1.0)) == pytest.approx(1.0)
    # p = q = 1/2: bound is sqrt(2) - 1
    assert admissible_radius_bound(RateParams.from_p(0.5)) == pytest.approx(
        2**0.5 - 1
    )


def test_balanced_radius_admissible_across_regimes():
    for p in (0.5, 0.7, 1.0):
        rates = RateParams.from_p(p)
        for t in (0.0, 0.2, 1.0, 5.0):
            for min_exp in (-12, -3, 0, 5):
                r = balanced_radius(rates, t, min_exp, 4)
                assert 0 < r < admissible_radius_bound(rates)


def test_balanced_radius_backs_off_pole_at_time_zero():
    # without the aliasing penalty the bound optimizer walks to the pole
    # circle where the trapezoid picks up the scattering poles; keep a
    # real gap at t = 0
    rates = RateParams.from_p(0.5)
    r = balanced_radius(rates, 0.0, 0, 3, nodes=64)
    assert r <= 0.85 * admissible_radius_bound(rates)


def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(nodes=6)
    with pytest.raises(ValueError):
        ContourSpec(nodes=63)
    with pytest.raises(ValueError):
        ContourSpec(nodes=2048)
    with pytest.raises(ValueError):
        ContourSpec(radius=-0.1)
    # nan and inf failed later, at the pole bound, True ran as radius 1,
    # and a string raised a TypeError
    for radius in (float("nan"), float("inf"), True, "0.1"):
        with pytest.raises(ValueError, match=f"radius must be a finite positive number, got radius = {radius!r}"):
            ContourSpec(radius=radius)
    with pytest.raises(ValueError):
        ContourSpec(dimension=0)
    # the particle count comes from the start unless one is named
    assert ContourSpec(nodes=32).dimension is None
    # a float node count failed later, indexing the node grid
    for nodes in (64.0, True):
        with pytest.raises(ValueError, match=f"got nodes = {nodes}"):
            ContourSpec(nodes=nodes)
    assert ContourSpec(nodes=np.int64(32)).nodes == 32


def node_grid_mean(f, radius, nodes, n):
    """(2 pi i)^-n times the n-fold contour integral of f, summed directly:
    the mean over the node grid of f times the product of the nodes."""
    z = node_points(radius, nodes)
    grid = [axis_view(z, a, n) for a in range(n)]
    weight = 1
    for u in grid:
        weight = weight * u
    return complex(np.mean(np.broadcast_to(f(*grid) * weight, (nodes,) * n)))


def test_power_residues_one_axis():
    z = node_points(0.4, 64)
    for k in range(-5, 5):
        value = np.mean(z**k * z)
        expect = 1.0 if k == -1 else 0.0
        assert complex(value) == pytest.approx(expect, abs=1e-16)


def test_simple_pole_inside_contour():
    value = node_grid_mean(lambda z: 1 / (z - 0.1), 0.5, 64, 1)
    # geometric node error (0.1/0.5)^64 is far below extended eps
    assert value == pytest.approx(1.0, abs=1e-18)


def test_pole_outside_contour_gives_zero():
    value = node_grid_mean(lambda z: 1 / (z - 2.0), 0.5, 64, 1)
    assert value == pytest.approx(0.0, abs=1e-18)


def test_product_residue_three_axes():
    value = node_grid_mean(lambda a, b, c: 1 / (a * b * c), 0.3, 16, 3)
    assert value == pytest.approx(1.0, abs=1e-15)


def test_mixed_powers_three_axes():
    value = node_grid_mean(lambda a, b, c: a / (b * b * c), 0.3, 16, 3)
    assert value == pytest.approx(0.0, abs=1e-15)


def test_coupled_rational_two_axes():
    # 1/(uv - uv^2/2) = (1/uv) sum_k (v/2)^k picks out k = 0
    value = node_grid_mean(lambda u, v: 1 / (u * v * (1 - v / 2)), 0.4, 64, 2)
    assert value == pytest.approx(1.0, abs=1e-15)


def _direct_summand(y, x, sigma, rates, t):
    """sigma's identical-species integrand, as in the paper: kernels times
    the scattering amplitude times prod_v xi_v^(x at slot sigma^-1(v))."""
    ext = RateParams(np.longdouble(rates.p), np.longdouble(rates.q))
    slot = inverse(sigma)

    def f(*xi):
        value = 1
        for v, u in enumerate(xi):
            factor = u ** (x[slot[v] - 1] - y[v] - 1)
            value = value * factor * np.exp(dispersion(u, ext) * np.longdouble(t))
        return value * amplitude(sigma, xi, ext)

    return f


@pytest.mark.parametrize("t", [0.0, 0.4])
@pytest.mark.parametrize(
    "y, x",
    [((0, 1), (1, 2)), ((0, 1), (-2, 0)), ((0, 1, 2), (1, 2, 4)), ((0, 1, 2), (-2, 0, 1))],
)
def test_engine_summands_match_a_direct_node_grid_sum(y, x, t):
    # each sigma is one plane of the FFT engine; summed directly over the
    # node grid at the radius the engine chose it is the same residue.
    # Targets left of the start stay on the direct lattice: only the full
    # sigma sum is mirror invariant
    rates = RateParams.from_p(0.7)
    n = len(y)
    ones = (1,) * n
    for sigma in all_permutations(n):
        evaluation = transition_prob._evaluate(
            y, ones, [(x, ones)], rates, t, None, [sigma]
        )
        radius = evaluation.quadrature.radius
        expect = node_grid_mean(_direct_summand(y, x, sigma, rates, t), radius, 64, n)
        assert abs(evaluation.values[0] - expect) <= 1e-15, sigma
        assert evaluation.values[0] == sigma_summand(y, x, sigma, rates, t)
    if x == (-2, 0, 1) and t:
        # the direct-lattice value; its conjugate on the mirrored lattice
        # is about 1.2e-6
        value = sigma_summand(y, x, (3, 1, 2), rates, t)
        assert value.real == pytest.approx(9.992412e-3, rel=1e-6)


def test_sigma_summand_at_an_explicit_radius_matches_a_direct_node_grid_sum():
    # a partial sum at a caller's radius and node count: the engine walks
    # half the slabs and conjugates the rest, the direct sum visits every
    # node
    y, x, sigma, t = (0, 1, 2), (1, 2, 4), (2, 3, 1), 0.4
    rates = RateParams.from_p(0.5)
    radius, nodes = 0.3, 16
    spec = ContourSpec(nodes=nodes, radius=radius, dimension=3)
    value = sigma_summand(y, x, sigma, rates, t, spec)
    expect = node_grid_mean(_direct_summand(y, x, sigma, rates, t), radius, nodes, 3)
    assert abs(value - expect) <= 1e-15 * abs(expect)


def test_axis_view_broadcasting():
    z = np.arange(4.0)
    assert axis_view(z, 0, 3).shape == (4, 1, 1)
    assert axis_view(z, 2, 3).shape == (1, 1, 4)
