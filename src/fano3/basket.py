"""Reid baskets and their enumeration.

A basket is a multiset of virtual orbifold points (r, b) attached to a
canonical threefold.  The admissibility budget sum(r - 1/r) < 24 makes the
set of possible baskets finite, which is what turns the whole index search
into a terminating computation.

A point is a plain ``(r, b)`` tuple everywhere in the engine.  ``Basket``
is the one type that validates such tuples: it holds them sorted, with the
sorted multiset ``R`` of their indices and the Gorenstein index
``r_x`` = lcm(R).

``enumerate_R_c2c1()`` lists every admissible index multiset R with its
r_X c2c1, and ``enumerate_baskets(R)`` every basket over R.
``rX_c2c1(R)`` is the one admissibility check, which ``Basket`` and
``lb.LBContext`` both call.
``orbifold_column(r, r_x)`` is the one writer of a point's orbifold term:
``rr.orbifold_columns``, the per-index point table ``_index_points`` and
the search walk's basket offsets all read it.  ``reach(R)`` gives r_X and
the offsets the baskets over R reach, with no Basket built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import gcd, lcm

from .arith import Frozen, sigma_numerator, sigma_pair

__all__ = [
    "Basket",
    "BUDGET",
    "rX_c2c1",
    "enumerate_R_c2c1",
    "orbifold_column",
    "reach",
    "enumerate_baskets",
    "rr_fano_integral",
    "budget_units",
]

#: Admissibility budget for sum(r - 1/r); strict inequality.
BUDGET = 24


class Basket(Frozen):
    """A sorted multiset of orbifold points (r, b), with the sorted indices
    ``R`` and the Gorenstein index ``r_x`` = lcm(R), 1 when empty."""

    __slots__ = ("points", "R", "r_x")
    _fields = ("points",)

    def __init__(self, points):
        pts = tuple(sorted((r, b) for r, b in points))
        for r, b in pts:
            if r < 2:
                raise ValueError(f"orbifold point needs r >= 2, got r={r}")
            if not (0 < b * 2 <= r):
                raise ValueError(f"need 0 < b <= r/2, got (r,b)=({r},{b})")
            if gcd(b, r) != 1:
                raise ValueError(f"need gcd(b,r)=1, got (r,b)=({r},{b})")
        R = tuple(r for r, _ in pts)
        rX_c2c1(R)  # raises on a basket over budget
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "r_x", lcm(*R))

    def __iter__(self):
        return iter(self.points)

    def __str__(self):
        return "{" + ",".join(f"({r},{b})" for r, b in self.points) + "}"


def budget_units(r: int, scale: int) -> int:
    """scale * (r - 1/r): the budget cost of index r in units of 1/scale,
    an integer whenever r divides scale."""
    return r * scale - scale // r


def rX_c2c1(R) -> int:
    """r_X * c2c1 determined by R alone: r_X * 24 - sum(r * r_X - r_X / r),
    with r_X = lcm(R); a positive integer for every admissible R, and the
    one admissibility check: an R over budget raises ``ValueError``."""
    R = tuple(R)
    r_x = lcm(*R)
    total = sum(budget_units(r, r_x) for r in R)
    if total >= BUDGET * r_x:
        raise ValueError(f"R={R} is not admissible (budget {Fraction(total, r_x)} >= {BUDGET})")
    return BUDGET * r_x - total


def enumerate_R_c2c1():
    """(R, rX_c2c1(R)) for every admissible multiset R of local indices,
    as sorted tuples in lexicographic order; each index is at most 24, as
    r - 1/r < 24 fails at r = 25.  The budget is counted in integer units
    of 1/scale, scale = lcm(2..24); the recursion carries r_X and the units
    left; r_X c2c1 = r_X * left / scale."""
    indices = range(2, BUDGET + 1)  # r - 1/r < BUDGET fails at r = BUDGET + 1
    scale = lcm(*indices)
    costs = [(r, budget_units(r, scale)) for r in indices]

    def rec(prefix, i, r_x, remaining):
        yield prefix, r_x * remaining // scale
        for r, cost in costs[i:]:  # costs grow with r
            if cost >= remaining:
                break
            yield from rec(prefix + (r,), r - 2, lcm(r_x, r), remaining - cost)

    yield from rec((), 0, 1, BUDGET * scale)


def orbifold_column(r: int, r_x: int) -> list:
    """2 r_X sigma_pair(y, r) = sigma_numerator(y, r) r_X/r, the orbifold
    term of a point of index r | r_X over 2 r_X, at each residue y < r."""
    return [sigma_numerator(y, r) * (r_x // r) for y in range(r)]


@lru_cache(maxsize=None)
def _index_points(r: int) -> tuple:
    """(points, keys) for index r: the points (r, b) with 0 < b <= r/2 and
    gcd(b, r) = 1, and each one's ``orbifold_column(r, r)`` entry b(r-b)
    mod 2r.  Over R with r_X = lcm(R) a point adds (r_X/r) * key to the
    offset mod 2 r_X = (r_X/r) * 2r."""
    col = orbifold_column(r, r)
    points = tuple((r, b) for b in range(1, r // 2 + 1) if gcd(b, r) == 1)
    return points, tuple(col[b] % (2 * r) for _, b in points)


@lru_cache(maxsize=None)
def _reach_step(r_p: int, r: int) -> tuple:
    """Appending index r to a multiset of Gorenstein index r_p: the new
    r_X = lcm(r_p, r), the lift r_X / r_p, the modulus 2 r_X, and the
    distinct keys of ``_index_points(r)`` scaled by r_X/r.  Few (r_p, r)
    pairs occur, so the cache is unbounded."""
    r_x = lcm(r_p, r)
    scale = r_x // r
    return r_x, r_x // r_p, 2 * r_x, tuple(dict.fromkeys(scale * key for key in _index_points(r)[1]))


@lru_cache(maxsize=32)
def reach(R: tuple) -> tuple:
    """(r_X, offsets) for the sorted multiset R, r_X = lcm(R): the offsets
    sum (r_X/r) b(r-b) mod 2 r_X that the baskets over R reach.  They are
    the prefix R[:-1]'s offsets, lifted to the new r_X, plus the keys of
    r = R[-1] in its ``_index_points`` table, both scaled by ``_reach_step``.
    ``enumerate_R_c2c1`` lists R depth first, so the prefix is almost
    always among the 32 entries cached.  The cache stays that small on
    purpose: an unbounded one, which keeps all 1852 reach sets of a search
    alive until interpreter exit, measured about 0.7 MB more peak RSS and
    2 ms more per ``fano3 search`` job."""
    if not R:
        return 1, frozenset((0,))
    r_p, offsets = reach(R[:-1])
    r_x, lift, modulus, keys = _reach_step(r_p, R[-1])
    return r_x, frozenset({(lift * s + k) % modulus for s in offsets for k in keys})


def enumerate_baskets(R):
    """All baskets over the multiset R, deduplicated as multisets: for
    each group of m equal indices r, the m-point multisets of
    ``_index_points(r)``."""
    R = sorted(R)
    groups = [combinations_with_replacement(_index_points(r)[0], R.count(r)) for r in dict.fromkeys(R)]
    for parts in product(*groups):
        yield Basket(sum(parts, ()))


def rr_fano_integral(B: Basket, c1cubed) -> bool:
    """Integrality of the anticanonical Riemann-Roch value.

    chi(-K) = c1^3/2 + 3 - sum b(r-b)/(2r) must be an integer for basket
    data coming from an actual variety; re-checked for every candidate.
    """
    chi = Fraction(c1cubed) / 2 + 3
    for r, b in B:
        chi -= sigma_pair(b, r)
    return chi.denominator == 1
