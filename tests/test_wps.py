import warnings
from fractions import Fraction

import pytest
import sympy

from fano3.wps import WeightedP3, anticanonical_degree, anticanonical_volume, h0


def test_h0_small_cases():
    straight = WeightedP3((1, 1, 1, 1))
    # ordinary P^3: binomial(s+3, 3)
    for s in range(12):
        assert h0(straight, s) == (s + 1) * (s + 2) * (s + 3) // 6


def test_h0_matches_sympy_series_oracle():
    # generating function 1 / prod(1 - t^w), coefficients to degree 200
    # as the product of the geometric series 1/(1 - t^w), each truncated
    # past degree 200
    w = WeightedP3((5, 6, 22, 33))
    t = sympy.symbols("t")
    poly = sympy.Poly(1, t)
    for weight in w.weights:
        poly *= sympy.Poly(sum(t ** (k * weight) for k in range(200 // weight + 1)), t)
    for s in range(201):
        assert h0(w, s) == int(poly.coeff_monomial(t**s)), s


def test_degree_and_volume():
    w = WeightedP3((5, 6, 22, 33))
    assert anticanonical_degree(w) == 66
    assert anticanonical_volume(w) == Fraction(66**3, 5 * 6 * 22 * 33)


def test_validation_and_warning():
    with pytest.raises(ValueError):
        WeightedP3((1, 2, 3))
    with pytest.raises(ValueError):
        WeightedP3((0, 1, 1, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        WeightedP3((2, 2, 2, 3))
    assert any("well-formed" in str(w.message) for w in caught)


def test_h0_negative_degree_rejected():
    with pytest.raises(ValueError):
        h0(WeightedP3((1, 1, 1, 1)), -1)
