"""Three-step candidate search for large Fano indices.

Step 1 lists the admissible index multisets R with their r_X c2c1 value;
Step 2 walks the Riemann-Roch classes of r_Xc1^3 that R reaches, reads off q
and the codimension-2 Cartier index J_A, charges each triple the curve-degree
budget (nabla) against the curves forced by the prime powers of J_A, and
builds baskets for survivors only; Step 3 attaches the degree lower bounds
and nabla to each, and ``verify_candidate`` re-checks the budget in
Fractions.  Everything is exact, and the result is independent of the
worker count.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import gcd
from typing import NamedTuple

from .arith import InvariantViolation, prime_powers
from .basket import Basket, enumerate_baskets, enumerate_R_c2c1, orbifold_column
from .basket import reach, rX_c2c1, rr_fano_integral
from .lb import LBContext, lb, lb_of
from .rr import curve_cost, demand_units, nabla, nabla_units

__all__ = [
    "Candidate",
    "step1",
    "step2",
    "step3",
    "run_search",
    "verify_candidate",
    "ceil_display",
    "enumerate_baskets",
]

GREATER = "greater"
EQUAL = "equal"


class Candidate(NamedTuple):
    basket: Basket
    q: int
    j_a: int
    rXc13: int
    rXc2c1: int
    prime_powers: tuple
    lb_values: tuple
    nabla: Fraction

    @property
    def r_x(self) -> int:
        return self.basket.r_x

    @property
    def key(self):
        return (self.basket.points, self.q, self.j_a, self.rXc13)

    @property
    def nabla_display(self) -> str:
        return ceil_display(self.nabla)

    def __str__(self):
        return f"Candidate({self.basket}, q={self.q}, J_A={self.j_a}, rXc13={self.rXc13})"


def ceil_display(value: Fraction) -> str:
    """ceil(100 * value) / 100, rendered with trailing zeros trimmed."""
    hundred = 100 * Fraction(value)
    n = -((-hundred.numerator) // hundred.denominator)  # ceil
    sign = "-" if n < 0 else ""
    n = abs(n)
    text = f"{sign}{n // 100}.{n % 100:02d}".rstrip("0").rstrip(".")
    return text


def step1(q_min: int):
    """Admissible (R, r_X c2c1) pairs with 4 * r_X c2c1 > q_min.

    The filter is sound because the test inequality forces
    r_Xc1^3 <= (4q^2/(q^2+2q-4)) r_Xc2c1 < 4 r_Xc2c1 while r_Xc1^3 >= q.
    """
    if q_min < 6:
        raise ValueError("q_min must be at least 6")
    for R, c2c1 in enumerate_R_c2c1():
        if 4 * c2c1 > q_min:
            yield R, c2c1


def step2(R, rXc2c1: int, q_min: int, mode: str = GREATER):
    """Tuples (basket, q, J_A, rXc13) within the curve-degree budget.

    A residue-first walk on integer sets.  Riemann-Roch integrality depends
    on the basket only through its offset (its ``orbifold_column`` entries
    summed mod 2 r_X), and ``reach(R)`` gives r_X and the offsets R reaches.
    Below 4 * rXc2c1 (the test inequality) rXc13 runs, in greater mode,
    through each reachable class above q_min, a progression of step 2 r_X.
    In equal mode it runs through the multiples of q_min whose residue mod
    2 r_X is reachable: a plain filter, as at q_min = 66 the 1852 Step-1 R
    have only 18 771 multiples in all (260 of them kept).
    LB depends only on (R, p^a) and the budget not on the b's, so each
    triple is charged its real demand once, after the LB >= 1 floor as a
    prefilter.  Both shortcuts pay: without the floor, or without the
    per-R ``bounds`` memo of LB(p^a), ``run_search(66, "greater")`` took
    164 ms or 135 ms against 123 ms (2-core box, Python 3.11).  R's first
    triple that passes files ``enumerate_baskets(R)`` by offset, and each
    triple that passes yields its class's Baskets.
    """
    if mode not in (GREATER, EQUAL):
        raise ValueError(f"mode must be {GREATER!r} or {EQUAL!r}")
    r_x, reach_set = reach(R)
    modulus, top = 2 * r_x, 4 * rXc2c1
    if mode == EQUAL:
        values = [v for v in range(q_min, top, q_min) if v % modulus in reach_set]
    else:
        low = q_min + 1
        values = chain.from_iterable(range(low + (c - low) % modulus, top, modulus) for c in reach_set)
    bounds = baskets = None
    for rXc13 in values:
        for q, j_a, pas, floor in _index_pairs(rXc13, q_min, mode):
            units = nabla_units(q, rXc13, rXc2c1)
            if units < floor:
                continue
            if bounds is None:  # R's first triple past the floor
                bounds = {}
            for pa in pas:  # LB(p^a) over R, read once per R
                if pa not in bounds:
                    bounds[pa] = lb_of(R, pa)
            if units < demand_units(q, pas, map(bounds.get, pas)):
                continue
            if baskets is None:  # first survivor: R's baskets, filed by offset
                baskets = {}
                cols = {r: orbifold_column(r, r_x) for r in R}
                for basket in enumerate_baskets(R):
                    baskets.setdefault(sum(cols[r][b] for r, b in basket) % modulus, []).append(basket)
            for basket in baskets[rXc13 % modulus]:
                yield basket, q, j_a, rXc13


@lru_cache(maxsize=None)
def _index_pairs(rXc13: int, q_min: int, mode: str) -> tuple:
    """(q, J_A, prime powers of J_A, LB >= 1 floor demand) for each (q, J_A)
    with q in the mode's range, J_A | q and q^2 | J_A * rXc13: q divides
    rXc13 and d = q/J_A divides gcd(q, rXc13/q).  Cached, as the greater
    walk meets most values once for each of many R."""
    if mode == EQUAL:  # the equal walk holds multiples of q_min only
        cofactors = (rXc13 // q_min,)
    else:
        cofactors = [k for k in range(1, rXc13 // (q_min + 1) + 1) if rXc13 % k == 0]
    out = []
    for k in cofactors:
        q = rXc13 // k
        g = gcd(q, k)
        for j_a in (q // d for d in range(1, g + 1) if g % d == 0):
            pas = _prime_powers(j_a)
            out.append((q, j_a, pas, demand_units(q, pas, repeat(1))))
    return tuple(out)


_prime_powers = lru_cache(maxsize=None)(prime_powers)


def step3(basket: Basket, q: int, j_a: int, rXc13: int, rXc2c1: int) -> Candidate:
    """The Candidate: attach prime powers, degree bounds and nabla.  Step 2
    has charged the budget, so nothing is filtered here."""
    if q % j_a:
        raise ValueError(f"J_A = {j_a} does not divide q = {q}")
    ctx = LBContext(basket.R)
    pas = _prime_powers(j_a)
    lbs = tuple(lb(ctx, pa) for pa in pas)
    return Candidate(basket, q, j_a, rXc13, rXc2c1, pas, lbs, nabla(q, rXc13, rXc2c1))


def _process_units(args):
    q_min, mode, units = args
    return [
        step3(basket, q, j_a, rXc13, c2c1)
        for R, c2c1 in units
        for basket, q, j_a, rXc13 in step2(R, c2c1, q_min, mode)
    ]


def run_search(q_min: int = 66, mode: str = GREATER, workers: int = 1):
    """The complete candidate list, canonically sorted.

    Work units are the Step-1 pairs (R, r_Xc2c1).  Each unit runs the
    Step-2 walk over the residue classes of R and sends every tuple it
    yields through Step 3.  With one worker the walk streams Step 1, one
    unit at a time; the pool path builds the list of units and partitions
    it round-robin over at most one process per unit and per CPU (serial
    again when that is one).  The merge sorts canonically, so the output
    does not depend on ``workers``, which must be at least 1; every
    candidate is then re-checked by ``verify_candidate``.
    """
    if mode not in (GREATER, EQUAL):
        raise ValueError(f"mode must be {GREATER!r} or {EQUAL!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    units = step1(q_min)
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        units = list(units)
        workers = min(workers, len(units))
    if workers <= 1:
        results = _process_units((q_min, mode, units))
    else:
        # imported here so that `import fano3` loads no process machinery
        from concurrent.futures import ProcessPoolExecutor

        chunks = [units[i::workers] for i in range(workers)]
        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_process_units, [(q_min, mode, c) for c in chunks]):
                results.extend(part)
    results.sort(key=lambda c: c.key)
    if len({c.key for c in results}) != len(results):
        raise InvariantViolation("duplicate candidates")
    for cand in results:
        verify_candidate(cand, q_min, mode)
    return results


def verify_candidate(c: Candidate, q_min: int, mode: str = GREATER) -> None:
    """Independent re-check of every Candidate invariant.

    Raises InvariantViolation naming the first invariant that fails.
    """
    ctx = LBContext(c.basket.R)
    q = c.q
    # nabla in Fractions, independent of the integer kernel behind c.nabla
    nab = c.rXc2c1 - Fraction(q * q + 2 * q - 4, 4 * q * q) * c.rXc13
    checks = (
        (c.q > q_min if mode == GREATER else c.q == q_min, f"index outside the {mode} range"),
        (c.q % c.j_a == 0, "J_A must divide q"),
        ((c.j_a * c.rXc13) % (c.q * c.q) == 0, "q^2 must divide J_A * rXc13"),
        (rr_fano_integral(c.basket, Fraction(c.rXc13, c.r_x)), "RR integrality"),
        (c.q <= c.rXc13, "index bounds degree"),
        ((c.q * c.q + 2 * c.q - 4) * c.rXc13 <= 4 * c.q * c.q * c.rXc2c1, "test inequality"),
        (c.rXc2c1 == rX_c2c1(c.basket.R), "rXc2c1 matches R"),
        (c.prime_powers == prime_powers(c.j_a), "prime powers of J_A"),
        (c.lb_values == tuple(lb(ctx, pa) for pa in c.prime_powers), "degree lower bounds"),
        (c.nabla == nab, "nabla"),
        (c.nabla >= sum(map(curve_cost, c.prime_powers, c.lb_values)), "budget inequality"),
    )
    for holds, what in checks:
        if not holds:
            raise InvariantViolation(f"{c}: {what}")
