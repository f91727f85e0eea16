"""Slow reference implementations that the engine is checked against.

Each one computes the same thing as an engine routine by a different and
more direct route: Fractions instead of scaled integers (the budget, step
1, the solver's residue tables), brute force over the full residue product
instead of the pruned solution walk, and the old triple-order Step 2
(every (q, J_A, rXc13) triple tested against every basket) instead of the
residue-first walk.  The published A / B / C- / C+ grouping of the 36
rows is here too, as the oracle for the engine's fixed route order.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from fano3.arith import prime_powers, sigma_numerator, sigma_pair
from fano3.basket import BUDGET, enumerate_baskets, gorenstein_index
from fano3.lb import LBContext, lb
from fano3.rr import curve_cost, nabla
from fano3.search import EQUAL, Candidate


def c_orbifold(r: int, b: int, i: int) -> Fraction:
    """Riemann-Roch correction of an orbifold point (r, b) at local index i.

    c_Q(D) = -i(r^2-1)/(12r) + sum_{k<i} sigma_pair(k*b, r); periodic in i
    with period r.
    """
    if r < 2 or not (0 < 2 * b <= r) or gcd(b, r) != 1:
        raise ValueError(f"invalid orbifold point ({r},{b})")
    if i < 0:
        raise ValueError("local index must be nonnegative")
    val = Fraction(-i * (r * r - 1), 12 * r)
    val += sum((sigma_pair(k * b, r) for k in range(i)), Fraction(0))
    return val


def admissible_R(max_r: int = 24):
    """(R, sum(r - 1/r)) for every admissible multiset R, in Fractions and
    in the lexicographic order of ``enumerate_R``."""
    out = []

    def rec(prefix, low, used):
        out.append((tuple(prefix), used))
        for r in range(low, max_r + 1):
            cost = Fraction(r * r - 1, r)
            if used + cost < BUDGET:
                rec(prefix + [r], r, used + cost)

    rec([], 2, Fraction(0))
    return out


def step1(q_min: int):
    """(R, r_X c2c1) with 4 * r_X c2c1 > q_min, from the Fraction budget."""
    for R, used in admissible_R():
        c2c1 = lcm(*R) * (BUDGET - used)
        if 4 * c2c1 > q_min:
            yield R, int(c2c1)


def q_range(q_min: int, rXc2c1: int, mode: str):
    if mode == EQUAL:
        qs = [q_min]
    else:
        qs = []
        q = q_min + 1
        # finiteness: rXc13 >= q turns the test inequality into
        # q^2 + 2q - 4 <= 4q * rXc2c1
        while q * q + 2 * q - 4 <= 4 * q * rXc2c1:
            qs.append(q)
            q += 1
    return [q for q in qs if q * q + 2 * q - 4 <= 4 * q * rXc2c1]


def step2_tuples(rXc2c1: int, q_min: int, mode: str):
    """All (q, J_A, rXc13) triples passing the test inequality, sorted.

    Since J_A | q, the divisibility q^2 | J_A * rXc13 parameterizes as
    rXc13 = m * q * d with d = q / J_A.  The cofactor d is bounded by
    roughly 4 * rXc2c1 / q, so d runs outermost and q over its multiples.
    """
    qs = q_range(q_min, rXc2c1, mode)
    out = []
    if not qs:
        return ()
    d = 1
    while d * qs[0] * (qs[0] ** 2 + 2 * qs[0] - 4) <= 4 * qs[0] ** 2 * rXc2c1:
        start = qs[0] + (-qs[0]) % d
        for q in range(start, qs[-1] + 1, d):
            stride = q * d
            bound4q2 = 4 * q * q * rXc2c1
            weight = q * q + 2 * q - 4
            rXc13 = stride
            while weight * rXc13 <= bound4q2:
                if rXc13 >= q:
                    out.append((q, q // d, rXc13))
                rXc13 += stride
        d += 1
    out.sort()
    return tuple(out)


def step2(R, rXc2c1: int, q_min: int, mode: str):
    """Every (basket, q, J_A, rXc13): each triple against each basket's
    Riemann-Roch offset."""
    triples = step2_tuples(rXc2c1, q_min, mode)
    for basket in enumerate_baskets(R):
        r_x = gorenstein_index(basket)
        offset = sum(sigma_numerator(p.b, p.r) * (r_x // p.r) for p in basket)
        for q, j_a, rXc13 in triples:
            if (rXc13 - offset) % (2 * r_x) == 0:
                yield basket, q, j_a, rXc13


def run_search(q_min: int, mode: str):
    """The candidate list in triple order with the Fraction budget test."""
    found = []
    for R, c2c1 in step1(q_min):
        ctx = LBContext(R)
        for basket, q, j_a, rXc13 in step2(R, c2c1, q_min, mode):
            pas = prime_powers(j_a)
            lbs = tuple(lb(ctx, pa) for pa in pas)
            nab = nabla(q, rXc13, c2c1)
            if nab >= sum(curve_cost(pa, val) for pa, val in zip(pas, lbs)):
                found.append(Candidate(basket, q, j_a, rXc13, c2c1, pas, lbs, nab))
    return sorted(found, key=lambda c: c.key)


def scaled_fractions(sys):
    """``eliminate._scaled`` through ``UnknownTerm.value``: every residue's
    value as its own Fraction, L the lcm of their denominators."""
    base = sys.constant + sum(sys.fixed_terms, Fraction(0))
    values = [[t.value(u) for u in range(t.modulus)] for t in sys.unknown_terms]
    big_l = lcm(base.denominator, *(v.denominator for tab in values for v in tab))
    tables = [[int(v * big_l) % big_l for v in tab] for tab in values]
    return big_l, int(base * big_l) % big_l, tables


def integral_assignments(sys):
    """Every assignment making the total integral, in lexicographic order:
    brute force over the full product of residue ranges, on the tables of
    ``scaled_fractions``.  Each prefix is summed once and every residue of
    the last unknown is tested against it."""
    big_l, base, tables = scaled_fractions(sys)
    if not tables:
        if base % big_l == 0:
            yield ()
        return
    *head, last = tables
    for prefix in product(*(range(len(tab)) for tab in head)):
        acc = base + sum(tab[u] for tab, u in zip(head, prefix))
        for u, a in enumerate(last):
            if (acc + a) % big_l == 0:
                yield prefix + (u,)


#: The published grouping of the 36 q > 66 rows, by row number.
GROUP_A = frozenset({1, 2, 5, 9, 16, 17, 18, 19, 25, 26, 28, 29, 30, 31, 34})
GROUP_B = frozenset({10, 20, 23, 24, 27, 32, 33, 35, 36})
GROUP_C_MINUS = frozenset({4, 7, 8, 12, 14, 15})
GROUP_C_PLUS = frozenset({3, 6, 11, 13, 21, 22})


def group_of(case_id: int) -> str:
    for name, group in (("A", GROUP_A), ("B", GROUP_B), ("C-", GROUP_C_MINUS), ("C+", GROUP_C_PLUS)):
        if case_id in group:
            return name
    raise ValueError(f"unknown case id {case_id}")
