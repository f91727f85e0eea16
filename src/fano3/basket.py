"""Reid baskets and their enumeration.

A basket is a multiset of virtual orbifold points (r, b) attached to a
canonical threefold.  The admissibility budget sum(r - 1/r) < 24 makes the
set of possible baskets finite, which is what turns the whole index search
into a terminating computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm

from .arith import InvariantViolation, sigma_pair

__all__ = [
    "OrbifoldPoint",
    "Basket",
    "BUDGET",
    "gorenstein_index",
    "rX_c2c1",
    "enumerate_R",
    "enumerate_baskets",
    "rr_fano_integral",
    "r_budget",
]

#: Admissibility budget for sum(r - 1/r); strict inequality.
BUDGET = 24


@dataclass(frozen=True, order=True)
class OrbifoldPoint:
    r: int
    b: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"orbifold point needs r >= 2, got r={self.r}")
        if not (0 < self.b * 2 <= self.r):
            raise ValueError(f"need 0 < b <= r/2, got (r,b)=({self.r},{self.b})")
        if gcd(self.b, self.r) != 1:
            raise ValueError(f"need gcd(b,r)=1, got (r,b)=({self.r},{self.b})")

    def __str__(self):
        return f"({self.r},{self.b})"


@dataclass(frozen=True, order=True)
class Basket:
    """A canonically sorted multiset of orbifold points."""

    points: tuple

    def __init__(self, points):
        pts = tuple(
            sorted(p if isinstance(p, OrbifoldPoint) else OrbifoldPoint(*p) for p in points)
        )
        object.__setattr__(self, "points", pts)
        if r_budget(self.R) >= BUDGET:
            raise ValueError(f"basket {pts} violates the admissibility budget")

    @property
    def R(self):
        """The multiset of local indices r, as a sorted tuple."""
        return tuple(p.r for p in self.points)

    def as_tuples(self):
        """The points as plain (r, b) pairs."""
        return tuple((p.r, p.b) for p in self.points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __str__(self):
        return "{" + ",".join(str(p) for p in self.points) + "}"


def r_budget(R) -> Fraction:
    """sum(r - 1/r) over the multiset R, exactly."""
    return sum((Fraction(r * r - 1, r) for r in R), Fraction(0))


def gorenstein_index(B: Basket) -> int:
    """lcm of the local indices; 1 for the empty basket."""
    return lcm(*B.R)


def rX_c2c1(R) -> int:
    """r_X * c2c1 determined by R alone: lcm(R) * (24 - sum(r - 1/r)).

    A positive integer for every admissible R, since each r divides r_X.
    """
    R = tuple(R)
    total = r_budget(R)
    if total >= BUDGET:
        raise ValueError(f"R={R} is not admissible (budget {total} >= {BUDGET})")
    r_x = lcm(*R)
    value = r_x * (BUDGET - total)
    if value.denominator != 1 or value <= 0:
        raise InvariantViolation(f"r_X c2c1 of R={R} is {value}, not a positive integer")
    return int(value)


def enumerate_R(max_r: int = 24):
    """All admissible multisets of local indices, canonically ordered.

    Yields sorted tuples; lexicographic order on the tuples.  Elements are
    at most 24 because r - 1/r < 24 already fails at r = 25.
    """
    budget = Fraction(BUDGET)
    costs = {r: r_budget((r,)) for r in range(2, max_r + 1)}

    def rec(prefix, low, remaining):
        yield tuple(prefix)
        for r in range(low, max_r + 1):
            cost = costs[r]
            if cost < remaining:
                prefix.append(r)
                yield from rec(prefix, r, remaining - cost)
                prefix.pop()

    yield from rec([], 2, budget)


@lru_cache(maxsize=None)
def _b_choices(r: int):
    return tuple(b for b in range(1, r // 2 + 1) if gcd(b, r) == 1)


def enumerate_baskets(R):
    """All baskets over the multiset R, deduplicated as multisets."""
    R = tuple(sorted(R))
    groups = []  # (r, multiplicity)
    for r in R:
        if groups and groups[-1][0] == r:
            groups[-1][1] += 1
        else:
            groups.append([r, 1])
    per_group = [
        list(combinations_with_replacement(_b_choices(r), mult)) for r, mult in groups
    ]

    def rec(i, acc):
        if i == len(groups):
            yield Basket(acc)
            return
        r = groups[i][0]
        for bs in per_group[i]:
            yield from rec(i + 1, acc + [(r, b) for b in bs])

    yield from rec(0, [])


def rr_fano_integral(B: Basket, c1cubed) -> bool:
    """Integrality of the anticanonical Riemann-Roch value.

    chi(-K) = c1^3/2 + 3 - sum b(r-b)/(2r) must be an integer for basket
    data coming from an actual variety; used as a search filter.
    """
    chi = Fraction(c1cubed) / 2 + 3
    for p in B:
        chi -= sigma_pair(p.b, p.r)
    return chi.denominator == 1
