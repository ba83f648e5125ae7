"""Rates, scattering factors, and amplitudes."""

from fractions import Fraction

import numpy as np
import pytest

from asep_exact import (
    BethePoleError,
    RateParams,
    amplitude,
    dispersion,
    f_factor,
    s_factor,
)
from asep_exact.permutations import all_permutations, inversions


def test_rates_from_p_rational_is_exact():
    rates = RateParams.from_p(Fraction(2, 5))
    assert rates.exact
    assert rates.p + rates.q == 1
    assert rates.q == Fraction(3, 5)


def test_rates_from_p_float():
    rates = RateParams.from_p(0.7)
    assert not rates.exact
    assert rates.p == 0.7
    assert rates.p + rates.q == pytest.approx(1.0, abs=1e-15)


def test_rate_validation():
    with pytest.raises(ValueError):
        RateParams.from_p(0)
    with pytest.raises(ValueError):
        RateParams.from_p(1.2)
    with pytest.raises(ValueError):
        RateParams(0.5, 0.4)
    # a bool is not read as p = 1 or q = 0
    for p in (True, np.True_):
        with pytest.raises(ValueError, match="got p = True, q = 0"):
            RateParams.from_p(p)
    with pytest.raises(ValueError, match="got p = 1, q = False"):
        RateParams(1, False)


def test_p_zero_message_names_the_hypothesis():
    with pytest.raises(ValueError, match="p != 0 hypothesis"):
        RateParams.from_p(0)


def test_dispersion_at_one_is_zero():
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(1, 1)):
        assert dispersion(Fraction(1), RateParams.from_p(p)) == 0


def test_f_antisymmetric_combination():
    # f(u,v) + f(v,u) = 2p + 2q uv - u - v; at u = v it collapses to
    # p + q u^2 - u = f(u,u), so S(u,u) = -1
    rates = RateParams.from_p(Fraction(2, 5))
    u = Fraction(3, 7)
    assert s_factor(u, u, rates) == -1


def test_s_factor_known_value():
    rates = RateParams.from_p(Fraction(1, 2))
    u, v = Fraction(1, 3), Fraction(1, 4)
    # -f(u,v)/f(v,u) with f(a,b) = p + q a b - a
    expect = -(Fraction(1, 2) + Fraction(1, 2) * u * v - u) / (
        Fraction(1, 2) + Fraction(1, 2) * u * v - v
    )
    assert s_factor(u, v, rates) == expect


def test_pole_raises():
    rates = RateParams.from_p(Fraction(2, 5))
    u = Fraction(3, 7)
    v = Fraction(2, 1) / (5 - 3 * u)  # f(v, u) = 0 exactly
    assert f_factor(v, u, rates) == 0
    with pytest.raises(BethePoleError):
        s_factor(u, v, rates)


def test_amplitude_identity_is_one():
    rates = RateParams.from_p(Fraction(1, 3))
    xi = (Fraction(3, 7), Fraction(2, 9), Fraction(5, 11))
    assert amplitude((1, 2, 3), xi, rates) == 1


def test_amplitude_is_inversion_product():
    rates = RateParams.from_p(Fraction(1, 3))
    xi = (Fraction(3, 7), Fraction(2, 9), Fraction(5, 11), Fraction(1, 4))
    for sigma in all_permutations(4):
        expect = Fraction(1)
        for a, b in sorted(inversions(sigma)):
            expect *= s_factor(xi[a - 1], xi[b - 1], rates)
        assert amplitude(sigma, xi, rates) == expect


def test_amplitude_totally_asymmetric():
    # q = 0 makes S = -f(u,v)/f(v,u) = -(p-u)/(p-v) rational in u, v only
    rates = RateParams.from_p(Fraction(1))
    xi = (Fraction(1, 3), Fraction(1, 4))
    assert s_factor(xi[0], xi[1], rates) == -(1 - xi[0]) / (1 - xi[1])
