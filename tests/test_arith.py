from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fano3.arith import (
    INFINITY,
    indicator,
    is_prime,
    p_adic_valuation,
    prime_powers,
    sigma_pair,
)


@given(st.integers(-10**6, 10**6), st.integers(1, 500))
def test_sigma_pair_periodic_and_even(x, r):
    assert sigma_pair(x, r) == sigma_pair(x + r, r)
    assert sigma_pair(x, r) == sigma_pair(-x, r)
    assert sigma_pair(x, r) >= 0


def test_sigma_pair_vanishes_exactly_on_multiples():
    for r in range(1, 30):
        for x in range(r):
            assert (sigma_pair(x, r) == 0) == (x % r == 0)


def test_sigma_pair_period_sum_identity():
    # sum over a full period equals (r^2 - 1)/12
    for r in range(1, 51):
        total = sum(sigma_pair(x, r) for x in range(r))
        assert total == Fraction(r * r - 1, 12)


def test_p_adic_valuation():
    assert p_adic_valuation(12, 2) == 2
    assert p_adic_valuation(12, 3) == 1
    assert p_adic_valuation(Fraction(3, 8), 2) == -3
    assert p_adic_valuation(0, 7) == INFINITY
    with pytest.raises(ValueError):
        p_adic_valuation(10, 4)


@given(st.integers(0, 10**4), st.sampled_from([2, 3, 5, 7, 11]))
def test_p_adic_valuation_multiplicative(n, p):
    a = n + 1
    assert p_adic_valuation(a * a, p) == 2 * p_adic_valuation(a, p)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_indicator():
    assert indicator(True) == 1
    assert indicator(False) == 0


def test_prime_powers():
    assert prime_powers(84) == (3, 4, 7)
    assert prime_powers(1) == ()
    assert prime_powers(66) == (2, 3, 11)
    assert prime_powers(2 ** 5 * 3 ** 2) == (9, 32)


@given(st.integers(1, 10**5))
def test_prime_powers_multiply_back(n):
    product = 1
    for pa in prime_powers(n):
        p = next(d for d in range(2, pa + 1) if pa % d == 0)
        assert is_prime(p) and pa == p ** p_adic_valuation(n, p)
        product *= pa
    assert product == n
