"""Lower bounds for crepant-curve degrees.

LB(N) divides -r_X K.C for every crepant curve whose slice invariant e'
equals N; it is assembled from per-prime factors f_p read off the multiset
R of basket indices.  The case analysis below is a first-match cascade: the
guards overlap and earlier clauses win.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .arith import Frozen, factorize
from .basket import rX_c2c1

__all__ = ["LBContext", "f_p", "lb", "lb_of", "SMALL_PRIMES"]

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
#: LB(R, N) = LB(R, LB_SATURATION) for every N >= LB_SATURATION (see lb_of)
LB_SATURATION = 17


class LBContext(Frozen):
    """An admissible multiset R of basket indices with its p-valuation
    counts, (p, e) -> number of r in R with exact p-valuation e >= 1; an
    inadmissible R raises ``ValueError``."""

    __slots__ = ("R", "_counts")
    _fields = ("R",)

    def __init__(self, R):
        R = tuple(sorted(R))
        # r - 1/r < 24 fails at r = 25, so SMALL_PRIMES cover every index;
        # checked before the budget, whose units divide by r
        if R and not 2 <= R[0] <= R[-1] <= 24:
            raise ValueError(f"basket indices must lie in 2..24, got R={R}")
        rX_c2c1(R)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "_counts", Counter(pe for r in R for pe in factorize(r)))

    def n(self, p: int, e: int) -> int:
        """Number of r in R with p-valuation exactly e."""
        return self._counts.get((p, e), 0)


def f_p(ctx: LBContext, p: int, N: int) -> int:
    if N < 2:
        raise ValueError("N must be at least 2")
    if p not in SMALL_PRIMES:
        raise ValueError(f"p must be a prime at most 23, got {p}")
    if p == 2:
        return _f2(ctx, N)
    if p == 3:
        return _f3(ctx, N)
    n_p = ctx.n(p, 1)
    if n_p > 0 and N - 1 >= n_p + 1 + int((n_p + 2) % p == 0):
        return p
    return 1


def _f3(ctx: LBContext, N: int) -> int:
    n9, n3 = ctx.n(3, 2), ctx.n(3, 1)
    if n9 > 0 and N - 1 >= 3:
        if N - 1 >= n3 + 1 + int((n3 + 2) % 3 == 0):
            return 9
        return 3
    if n9 == 0 and n3 > 0 and N - 1 >= n3 + 1 + int((n3 + 2) % 3 == 0):
        return 3
    return 1


def _f2(ctx: LBContext, N: int) -> int:
    # v2(r_X) is the largest v2(r) over R
    e = max((e for p, e in ctx._counts if p == 2), default=0)
    if e == 0 or N == 2:
        return 1
    n16, n8, n4, n2 = ctx.n(2, 4), ctx.n(2, 3), ctx.n(2, 2), ctx.n(2, 1)
    # (a)
    if n16 == 1:
        if n8 != 0:
            return 2
        if n4 != 0:
            return 4
        return 8
    # (b)
    if n8 == 2:
        if n4 != 0:
            return 2
        if n2 != 0:
            return 4
        return 8
    # (c)
    if n16 == 0 and n8 <= 1 and n4 + n8 > 0 and N - 1 >= 2 * (n4 // 2) + 2:
        if n4 <= 1 and N - 1 >= 2 * ((n2 + n8) // 2) + 2:
            return 2**e
        if n4 == 2 and ctx.R.count(4) == 2 and N - 1 >= 2 * ((n2 + n8 + 2) // 2) + 2:
            return 2**e
        if n4 == 3 and ctx.R.count(4) == 3 and n2 == 0 and n8 == 0:
            return 2**e
        return 2 ** (e - 1)
    # (d)
    if n16 == 0 and n8 == 0 and n4 == 2 and N - 1 in (2, 3):
        return 2
    # (e); silent when n2 > 2 with small N, which falls through to (f)
    if n16 == 0 and n8 == 0 and n4 == 0:
        if 0 < n2 <= 2:
            return 2
        if n2 > 2 and N - 1 >= 2 * (n2 // 2) + 2:
            return 2
    # (f)
    return 1


# the search walk asks for one R at a time
_last_context = lru_cache(maxsize=1)(LBContext)


def lb(ctx: LBContext, N: int) -> int:
    """The degree lower bound LB(N) = product of the per-prime factors,
    read through ``lb_of``, since it depends only on R and N."""
    return lb_of(ctx.R, N)


def lb_of(R: tuple, N: int) -> int:
    """LB(N) for the sorted multiset R: the one kernel behind ``lb``, which
    the search walk, elimination and ``fano3 lb`` read directly.  Only the
    primes dividing some r in R enter: f_p is 1 for every other prime.

    Every N-test of the cascade is N == 2, N - 1 in {2, 3} or N - 1 >= k,
    and over admissible R every k is at most 16: the largest is branch (e)
    of ``_f2`` with fifteen indices of 2-adic valuation 1, since sixteen
    already spend 16 * 3/2 = 24 of the budget.  So LB(2) = 1, and LB(N) =
    LB(17) for every N >= 17; the kernel is cached per (R, min(N, 17)).
    Both fast paths still reject N < 2 and an inadmissible R."""
    if N < 2:
        raise ValueError("N must be at least 2")
    return _lb_saturated(R, min(N, LB_SATURATION))


@lru_cache(maxsize=None)
def _lb_saturated(R: tuple, N: int) -> int:
    ctx = _last_context(R)  # rejects an inadmissible R, at N = 2 too
    if N == 2:
        return 1
    out = 1
    for p in {p for p, _ in ctx._counts}:
        out *= f_p(ctx, p, N)
    return out
