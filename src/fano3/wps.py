"""Weighted projective 3-space oracle.

Counts monomials of given weighted degree by dynamic programming.  This is
the independent cross-check for the closed-form h^0 of the Group C
analysis: P(5,6,22,33) realizes exactly that section ring.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import gcd

from .arith import Frozen

__all__ = ["WeightedP3", "h0", "anticanonical_degree", "anticanonical_volume"]


class WeightedP3(Frozen):
    __slots__ = _fields = ("weights",)

    def __init__(self, weights):
        w = tuple(int(x) for x in weights)
        if len(w) != 4 or any(x <= 0 for x in w):
            raise ValueError("need four positive weights")
        object.__setattr__(self, "weights", w)
        for skip in range(4):
            triple = [w[i] for i in range(4) if i != skip]
            if gcd(gcd(triple[0], triple[1]), triple[2]) != 1:
                warnings.warn(
                    f"weights {w} are not well-formed; counting anyway", stacklevel=2
                )
                break


def h0(w: WeightedP3, s: int) -> int:
    """Number of monomials of weighted degree s (coin-change count)."""
    if s < 0:
        raise ValueError("degree must be nonnegative")
    table = [0] * (s + 1)
    table[0] = 1
    for weight in w.weights:
        for d in range(weight, s + 1):
            table[d] += table[d - weight]
    return table[s]


def anticanonical_degree(w: WeightedP3) -> int:
    """Index of the anticanonical class: the sum of the weights."""
    return sum(w.weights)


def anticanonical_volume(w: WeightedP3) -> Fraction:
    """(-K)^3 = (sum w)^3 / (prod w), exactly."""
    prod = 1
    for weight in w.weights:
        prod *= weight
    return Fraction(sum(w.weights) ** 3, prod)
