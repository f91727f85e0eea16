from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from fano3.arith import factorize, prime_powers, sigma_numerator, sigma_pair


@given(st.integers(-10**6, 10**6), st.integers(1, 500))
def test_sigma_pair_periodic_and_even(x, r):
    assert sigma_pair(x, r) == sigma_pair(x + r, r)
    assert sigma_pair(x, r) == sigma_pair(-x, r)
    assert sigma_pair(x, r) >= 0


def test_sigma_pair_vanishes_exactly_on_multiples():
    for r in range(1, 30):
        for x in range(r):
            assert (sigma_pair(x, r) == 0) == (x % r == 0)


def test_sigma_numerator_needs_a_positive_modulus():
    assert sigma_numerator(1, 1) == 0
    for r in (0, -3):
        with pytest.raises(ValueError, match="modulus"):
            sigma_numerator(1, r)


def test_sigma_pair_period_sum_identity():
    # sum over a full period equals (r^2 - 1)/12
    for r in range(1, 51):
        total = sum(sigma_pair(x, r) for x in range(r))
        assert total == Fraction(r * r - 1, 12)


def test_prime_powers():
    assert prime_powers(84) == (3, 4, 7)
    assert prime_powers(1) == ()
    assert prime_powers(66) == (2, 3, 11)
    assert prime_powers(2 ** 5 * 3 ** 2) == (9, 32)


@given(st.integers(1, 10**5))
def test_prime_powers_multiply_back(n):
    expected = sorted(p**e for p, e in sympy.factorint(n).items())
    assert prime_powers(n) == tuple(expected)


def test_factorize():
    assert factorize(84) == ((2, 2), (3, 1), (7, 1))
    assert factorize(1) == ()
    assert factorize(45) == ((3, 2), (5, 1))


@given(st.integers(1, 10**5))
def test_factorize_matches_sympy(n):
    assert factorize(n) == tuple(sorted(sympy.factorint(n).items()))
