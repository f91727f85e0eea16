"""Exact arithmetic primitives.

Everything downstream (Riemann-Roch corrections, degree bounds, the whole
candidate search) is built from a handful of residue-flavoured helpers over
exact rationals.  No floating point is used anywhere in the engine; display
rounding happens only in the CLI.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "InvariantViolation",
    "INFINITY",
    "sigma_pair",
    "p_adic_valuation",
    "indicator",
    "is_prime",
    "prime_powers",
]


class InvariantViolation(AssertionError):
    """An internal invariant of the engine does not hold.

    Raised explicitly rather than through ``assert`` so that the checks
    survive ``python -O``; it subclasses AssertionError so callers that
    treat a failed check as an assertion keep working.
    """


#: Sentinel for the valuation of 0.
INFINITY = math.inf


def sigma_pair(x: int, r: int) -> Fraction:
    """The even periodic correction term x-bar * (-x)-bar / (2r).

    Here x-bar denotes the smallest non-negative residue of x mod r.  This
    is the basic building block of every orbifold Riemann-Roch correction;
    it vanishes exactly when r | x and satisfies
    sum over a period = (r^2 - 1)/12.
    """
    if r <= 0:
        raise ValueError(f"modulus must be a positive integer, got {r}")
    u = x % r
    return Fraction(u * (r - u), 2 * r)


def is_prime(p: int) -> bool:
    """Deterministic primality test for the small integers used here."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def prime_powers(n: int) -> tuple:
    """Sorted prime-power factorization, e.g. 84 -> (3, 4, 7)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            pa = 1
            while n % p == 0:
                n //= p
                pa *= p
            out.append(pa)
        p += 1
    if n > 1:
        out.append(n)
    return tuple(sorted(out))


def p_adic_valuation(x, p: int):
    """p-adic valuation of a rational number; +infinity for x = 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def indicator(statement: bool) -> int:
    """1 if the statement holds, else 0."""
    return 1 if statement else 0
