"""Contour quadrature: node layout, radius selection, residue extraction."""

import numpy as np
import pytest

from asep_exact import (
    ContourSpec,
    RateParams,
    admissible_radius_bound,
    balanced_radius,
    integrate_tensor,
    node_points,
)
from asep_exact.contour_quadrature import axis_view


def test_node_points_on_circle():
    z = node_points(0.3, 64)
    assert z.dtype == np.clongdouble
    assert np.allclose(np.abs(z), 0.3, rtol=0, atol=1e-18)
    assert z[0] == pytest.approx(0.3)
    # nodes in conjugate pairs: z[k] and z[-k]
    assert np.allclose(np.conj(z[1:]), z[:0:-1], rtol=0, atol=1e-18)


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
                r = balanced_radius(rates, t, min_exp, 6, 3)
                assert 0 < r < admissible_radius_bound(rates)


def test_balanced_radius_backs_off_pole_at_time_zero():
    # without the aliasing penalty the bound optimizer walks to the pole
    # circle where the trapezoid picks up the scattering poles; keep a
    # real gap at t = 0
    rates = RateParams.from_p(0.5)
    r = balanced_radius(rates, 0.0, 0, 3, 3, nodes=64)
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
    with pytest.raises(ValueError):
        ContourSpec(dimension=0)


def test_power_residues_one_axis():
    spec = ContourSpec(nodes=64, radius=0.4, dimension=1)
    for k in range(-5, 5):
        value = integrate_tensor(lambda z: z ** k, spec)
        expect = 1.0 if k == -1 else 0.0
        assert value == pytest.approx(expect, abs=1e-16)


def test_simple_pole_inside_contour():
    spec = ContourSpec(nodes=64, radius=0.5, dimension=1)
    value = integrate_tensor(lambda z: 1 / (z - 0.1), spec)
    # geometric node error (0.1/0.5)^64 is far below extended eps
    assert value == pytest.approx(1.0, abs=1e-18)


def test_pole_outside_contour_gives_zero():
    spec = ContourSpec(nodes=64, radius=0.5, dimension=1)
    value = integrate_tensor(lambda z: 1 / (z - 2.0), spec)
    assert value == pytest.approx(0.0, abs=1e-18)


def test_product_residue_three_axes():
    spec = ContourSpec(nodes=16, radius=0.3, dimension=3)
    value = integrate_tensor(lambda a, b, c: 1 / (a * b * c), spec)
    assert value == pytest.approx(1.0, abs=1e-15)


def test_mixed_powers_three_axes():
    spec = ContourSpec(nodes=16, radius=0.3, dimension=3)
    value = integrate_tensor(lambda a, b, c: a / (b * b * c), spec)
    assert value == pytest.approx(0.0, abs=1e-15)


def test_coupled_rational_two_axes():
    # 1/(uv - uv^2/2) = (1/uv) sum_k (v/2)^k picks out k = 0
    spec = ContourSpec(nodes=64, radius=0.4, dimension=2)
    value = integrate_tensor(lambda u, v: 1 / (u * v * (1 - v / 2)), spec)
    assert value == pytest.approx(1.0, abs=1e-15)


def test_integrate_tensor_needs_radius_or_rates():
    spec = ContourSpec(nodes=16, dimension=1)
    with pytest.raises(ValueError):
        integrate_tensor(lambda z: 1 / z, spec)
    with pytest.raises(ValueError, match="explicit radius"):
        integrate_tensor(lambda z: 1 / z, spec, RateParams.from_p(0.5))


def test_axis_view_broadcasting():
    z = np.arange(4.0)
    assert axis_view(z, 0, 3).shape == (4, 1, 1)
    assert axis_view(z, 2, 3).shape == (1, 1, 4)
