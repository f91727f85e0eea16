"""Slow reference implementations that the engine is checked against.

Each one computes the same thing as an engine routine by a different and
more direct route: Fractions instead of scaled integers (nabla, the
search budget, step 1, the residue builder and its tables, the h^0
s-part, the foliation index scan, the curve-configuration thresholds and
allowed curve orders), brute force over the full residue product instead
of the solver's greedy witness and completion readout, and the old
triple-order Step 2 (the (q, J_A, rXc13) triples, built cofactor first in
the classes that R's brute-force baskets reach, classed in Fractions, and
tested against every basket) instead of the residue-first walk.  Three
elimination steps are recomputed one system
or one tuple at a time instead of from shared tables: case 24's (x_A1, y4)
grid, one residue system per (x_A1, y4, s), and case 27's A_2 degrees, one
system per y, both under their own Fraction budget caps; and the Group C
residues from Fraction h^0 (``h0_fraction``, the s-part minus one
sigma_pair(i b, r) per point) over the full local-index product.  The
published A / B / C- / C+ grouping of the 36 rows is here too, as the
oracle for the engine's fixed route order.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from fano3.arith import factorize, prime_powers, sigma_pair
from fano3.basket import BUDGET, Basket
from fano3.eliminate import Undetermined
from fano3.lb import LBContext, lb
from fano3.rr import (
    CrepantCurve,
    CurveConfig,
    ResidueConstraintSystem,
    UnknownTerm,
    a2mk,
    curve_cost,
)
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
    in the lexicographic order of ``basket.enumerate_R_c2c1``."""
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


def step2_tuples(rXc2c1: int, q_min: int, mode: str, modulus: int = 1, classes=(0,)):
    """The (q, J_A, rXc13) triples passing the test inequality with rXc13
    mod ``modulus`` in ``classes`` (by default all of them), sorted.

    Since J_A | q, the divisibility q^2 | J_A * rXc13 parameterizes as
    rXc13 = q * k with d = q / J_A dividing both q and k.  For a cofactor k
    the test inequality (q^2 + 2q - 4) k <= 4 q rXc2c1 is convex in q and
    holds at q = 0, so it holds on an initial segment of the q range, and it
    fails for every k once it fails at the least q.  So k runs outermost, d
    over its divisors and q = d * u over that segment; q * k lies in class
    c mod ``modulus`` for u in one residue class mod ``modulus`` / g when
    g = gcd(d * k, modulus) divides c, and for no u otherwise.
    """
    qs = q_range(q_min, rXc2c1, mode)
    out = []
    k = 1
    while qs and (qs[0] ** 2 + 2 * qs[0] - 4) * k <= 4 * qs[0] * rXc2c1:
        end = bisect_right(qs, False, key=lambda q: (q * q + 2 * q - 4) * k > 4 * q * rXc2c1)
        for d in (d for d in range(1, k + 1) if k % d == 0):
            low, high = -(-qs[0] // d), qs[end - 1] // d  # u with q = d * u in the segment
            g = gcd(d * k, modulus)
            period = modulus // g
            inverse = pow(d * k // g, -1, period)
            for c in classes:
                if c % g == 0:
                    first = low + (c // g * inverse - low) % period
                    out.extend((d * u, u, d * u * k) for u in range(first, high + 1, period))
        k += 1
    out.sort()
    return tuple(out)


def baskets_brute_force(R):
    """Every basket over R: a product over each point's b (gcd(b, r) = 1,
    2b <= r), deduplicated as sorted tuples, in sorted order."""
    choices = [[(r, b) for b in range(1, r // 2 + 1) if gcd(b, r) == 1] for r in R]
    return [Basket(points) for points in sorted({tuple(sorted(pts)) for pts in product(*choices)})]


def basket_classes(R):
    """(basket, class) for every ``baskets_brute_force`` basket over R: its
    Riemann-Roch class 2 r_X sum sigma_pair(b, r) mod 2 r_X, in Fractions."""
    r_x = lcm(*R)
    classes = []
    for basket in baskets_brute_force(R):
        offset = 2 * r_x * sum((sigma_pair(b, r) for r, b in basket), Fraction(0))
        if offset.denominator != 1:
            raise ValueError(f"2 r_X sigma sum of {basket} is not an integer")
        classes.append((basket, offset.numerator % (2 * r_x)))
    return classes


def step2(R, triples):
    """Every (basket, q, J_A, rXc13): each of ``triples`` (``step2_tuples``
    of R's r_X c2c1) against each basket's class from ``basket_classes``.
    Every basket over R shares r_X = lcm(R), so one pass over the triples
    files them, in order, under the baskets' classes, and each basket reads
    its own class."""
    modulus = 2 * lcm(*R)
    classes = basket_classes(R)
    by_class = {k: [] for _, k in classes}
    for triple in triples:
        k = triple[2] % modulus
        if k in by_class:
            by_class[k].append(triple)
    for basket, k in classes:
        for q, j_a, rXc13 in by_class[k]:
            yield basket, q, j_a, rXc13


def nabla_fraction(q: int, rXc13: int, rXc2c1: int) -> Fraction:
    """nabla from three Fractions: r_Xc2c1 - ((q^2+2q-4)/(4q^2)) r_Xc1^3."""
    return Fraction(rXc2c1) - Fraction(q * q + 2 * q - 4, 4 * q * q) * Fraction(rXc13)


def run_search(q_min: int, mode: str):
    """The candidate list in triple order with the Fraction budget test.
    Each R of Step 1 builds only the triples in the classes its baskets
    reach, so no triple is built that no basket over R can take."""
    found = []
    for R, c2c1 in step1(q_min):
        ctx = LBContext(R)
        classes = {k for _, k in basket_classes(R)}
        triples = step2_tuples(c2c1, q_min, mode, 2 * lcm(*R), classes)
        for basket, q, j_a, rXc13 in step2(R, triples):
            pas = prime_powers(j_a)
            lbs = tuple(lb(ctx, pa) for pa in pas)
            nab = nabla_fraction(q, rXc13, c2c1)
            if nab >= sum(curve_cost(pa, val) for pa, val in zip(pas, lbs)):
                found.append(Candidate(basket, q, j_a, rXc13, c2c1, pas, lbs, nab))
    return sorted(found, key=lambda c: c.key)


def determine_curves(c: Candidate):
    """``eliminate.determine_curves`` with its threshold summed in Fractions
    of ``curve_cost`` and compared as a Fraction against ``c.nabla``."""
    j_a = c.j_a
    if j_a == 1:
        return CurveConfig((), x_A1=0)
    if j_a == 2:
        return CurveConfig((), x_A1=None)
    ctx = LBContext(c.basket.R)
    factors = factorize(j_a)
    two_part = next((2**e for p, e in factors if p == 2), 1)
    odd_primes = [p for p, _ in factors if p > 2]
    odd_pps = sorted(p**e for p, e in factors if p > 2)
    nab = c.nabla

    def cost(m: int) -> Fraction:
        return curve_cost(m, lb(ctx, m))

    threshold = sum((cost(pa) for pa in odd_pps), Fraction(0))
    curves = [CrepantCurve(pa, lb(ctx, pa)) for pa in odd_pps]
    if two_part <= 2:
        threshold += cost(min(odd_primes))
        if not nab < threshold:
            return Undetermined(
                f"budget {nab} admits more curves than the forced set (threshold {threshold})"
            )
        return CurveConfig(tuple(curves), x_A1=0 if two_part == 1 else None)
    threshold += cost(two_part) + cost(min([4] + odd_primes))
    if not nab < threshold:
        return Undetermined(
            f"budget {nab} admits more curves than the forced set (threshold {threshold})"
        )
    curves.append(CrepantCurve(two_part, lb(ctx, two_part)))
    curves.sort(key=lambda cc: cc.j)
    return CurveConfig(tuple(curves), x_A1=None)


def curve_order_bounds(c: Candidate) -> tuple:
    """``eliminate._curve_order_bounds`` with each order's minimal cost a
    Fraction ``curve_cost`` compared against ``c.nabla``."""
    ctx = LBContext(c.basket.R)
    bounds = {j: lb(ctx, j) for j in range(2, c.j_a + 1) if c.j_a % j == 0}
    return bounds, tuple(j for j, d in bounds.items() if curve_cost(j, d) <= c.nabla)


def c_curve(j: int, unit: int, s: int) -> Fraction:
    """Riemann-Roch correction of a crepant curve of type A_{j-1}:
    -sigma_pair(s * unit, j)."""
    if j < 2:
        raise ValueError("need j >= 2")
    if gcd(unit, j) != 1:
        raise ValueError("unit must be coprime to j")
    return -sigma_pair(s * unit, j)


def vanishes(j: int, deg) -> bool:
    """Whether deg * sigma_pair(a, j) is integral for every residue a."""
    return all((deg * sigma_pair(a, j)).denominator == 1 for a in range(j))


def fraction_builder(q, rXc13, B, cfg, r_prime, s, drop_curve_terms=True):
    """``(constant, unknown_terms)`` of D = sA at r', term by term in
    Fractions: the constant is the volume term plus every fixed curve and
    A_1-aggregate term, and each unknown keeps its Fraction coefficient.
    A term integral at every residue (``vanishes``) is dropped."""
    r_x = lcm(*B.R)
    constant = Fraction(r_prime * s * s, 2) * a2mk(q, rXc13, r_x)
    unknown = []
    for c in cfg.curves:
        deg = Fraction(r_prime * c.degree_rXKC, r_x)
        if drop_curve_terms and vanishes(c.j, deg):
            continue
        if c.generator_unit is not None:
            constant += deg * c_curve(c.j, c.generator_unit, s)
        else:
            unknown.append(UnknownTerm(-deg, c.j, "quadratic", f"A_{c.j - 1} class"))
    if cfg.x_A1 != 0:
        coeff = Fraction(r_prime, r_x) * c_curve(2, 1, s)
        if cfg.x_A1 is not None:
            constant += coeff * cfg.x_A1
        elif coeff.denominator != 1:
            unknown.append(UnknownTerm(coeff, coeff.denominator, "linear", "x_A1"))
    for r, b in B:
        if not vanishes(r, r_prime):
            unknown.append(UnknownTerm(Fraction(-r_prime), r, "quadratic", f"point ({r},{b})"))
    return constant, tuple(unknown)


def scaled_fractions(terms):
    """``(L, tables)`` of unknown terms through ``UnknownTerm.value``: every
    residue's value as its own Fraction, L the lcm of their denominators."""
    values = [[t.value(u) for u in range(t.modulus)] for t in terms]
    big_l = lcm(*(v.denominator for tab in values for v in tab))
    return big_l, tuple(tuple(int(v * big_l) % big_l for v in tab) for tab in values)


def fraction_system(constants, terms) -> ResidueConstraintSystem:
    """A residue system over hand-written Fraction terms, its integer tables
    from ``scaled_fractions``."""
    big_l, tables = scaled_fractions(terms)
    return ResidueConstraintSystem(tuple(constants), tuple(terms), big_l, tables)


def integral_assignments(sys, constant):
    """Every assignment making ``constant`` plus the unknowns of ``sys``
    integral, in lexicographic order: brute force over the full product of
    residue ranges, on the tables of ``scaled_fractions``, met in the
    middle.  Every assignment of the second half of the unknowns is listed
    once, in order, under its sum mod L; each assignment of the first half
    is summed once and extended by exactly the listed tails that complete
    it, so an unsolvable system costs the two half products."""
    big_l, tables = scaled_fractions(sys.unknown_terms)
    if (constant * big_l).denominator != 1:
        return
    base = int(constant * big_l)
    head, tail = tables[: len(tables) // 2], tables[len(tables) // 2 :]
    completing = {}
    for suffix in product(*(range(len(tab)) for tab in tail)):
        total = sum(tab[u] for tab, u in zip(tail, suffix))
        completing.setdefault(-total % big_l, []).append(suffix)
    for prefix in product(*(range(len(tab)) for tab in head)):
        acc = base + sum(tab[u] for tab, u in zip(head, prefix))
        for suffix in completing.get(acc % big_l, ()):
            yield prefix + suffix


def h0_s_part_fraction(q, A2mK, cfg, B, s) -> Fraction:
    """The s-part of h^0(sA) summed term by term in Fractions:
    s^2/2 (-A^2.K) + 2 plus (deg/r_X) c_curve(j, unit, s) per curve and
    (x_A1/r_X) c_curve(2, 1, s)."""
    r_x = lcm(*B.R)
    val = Fraction(s * s, 2) * Fraction(A2mK) + 2
    for c in cfg.curves:
        val += Fraction(c.degree_rXKC, r_x) * c_curve(c.j, c.generator_unit, s)
    return val + Fraction(cfg.x_A1, r_x) * c_curve(2, 1, s)


def h0_fraction(q, A2mK, cfg, B, idx, s) -> Fraction:
    """h^0(sA) in Fractions at local indices ``idx`` (one per basket point,
    in basket order): ``h0_s_part_fraction`` minus sigma_pair(i b, r) per
    point (r, b) at local index i."""
    orbifold = sum((sigma_pair(i * b, r) for i, (r, b) in zip(idx, B, strict=True)), Fraction(0))
    return h0_s_part_fraction(q, A2mK, cfg, B, s) - orbifold


def foliation_p_min_fraction(c: Candidate, delta: Fraction) -> int:
    """The least p in (2q/3, q) with r_Xc2c1 - r_Xc1^3 / km(p) >= delta,
    scanned in Fractions, where km(p) = 4q^2 / (-4p^2 + 6pq - q^2) is the
    slope bound of a rank-2 Harder-Narasimhan piece of index p; ValueError
    when the 16/5 precondition fails or no p qualifies."""
    q = c.q
    if not c.rXc2c1 - c.rXc13 / Fraction(16, 5) < delta:
        raise ValueError("16/5 precondition fails")
    for p in range(2 * q // 3 + 1, q):
        if c.rXc2c1 - c.rXc13 / Fraction(4 * q * q, -4 * p * p + 6 * p * q - q * q) >= delta:
            return p
    raise ValueError("no admissible foliation index below q")


def case_24_grid(c: Candidate) -> set:
    """The (x_A1, y4) within the budget for which the r' = 9 systems of
    D = A and D = 3A both have an integral assignment, with x_A1 fixed:
    one system per (x_A1, y4, s), each decided by brute force."""
    ctx = LBContext(c.basket.R)
    lb3, lb4 = lb(ctx, 3), lb(ctx, 4)
    x_max = int((c.nabla - curve_cost(3, lb3) - curve_cost(4, lb4)) / curve_cost(2, 1))
    y4_max = int((c.nabla - curve_cost(3, lb3)) / curve_cost(4, lb4))

    def solvable(x, y4, s):
        cfg = CurveConfig((CrepantCurve(3, lb3, 1), CrepantCurve(4, lb4 * y4, 1)), x_A1=x)
        constant, terms = fraction_builder(c.q, c.rXc13, c.basket, cfg, r_prime=9, s=s)
        sys = fraction_system([constant], terms)
        return next(integral_assignments(sys, constant), None) is not None

    return {
        (x, y4)
        for x, y4 in product(range(x_max + 1), range(1, y4_max + 1))
        if solvable(x, y4, 1) and solvable(x, y4, 3)
    }


def case_27_ys(c: Candidate) -> tuple:
    """``(y_max, ys)`` of case 27's A_2 degree step: y_max the whole
    number of A_2 curves of degree LB(3) that the Fraction budget pays for,
    and ys the y in [1, y_max] for which the r' = 2 r_X system of D = A with
    A_2 curves of total degree LB(3) y (unit 1) and no A_1 curves has an
    integral assignment, each decided by brute force."""
    lb3 = lb(LBContext(c.basket.R), 3)
    y_max = int(c.nabla / curve_cost(3, lb3))
    r_prime = 2 * lcm(*c.basket.R)

    def solvable(y):
        cfg = CurveConfig((CrepantCurve(3, lb3 * y, 1),), x_A1=0)
        constant, terms = fraction_builder(c.q, c.rXc13, c.basket, cfg, r_prime, s=1)
        sys = fraction_system([constant], terms)
        return next(integral_assignments(sys, constant), None) is not None

    return y_max, [y for y in range(1, y_max + 1) if solvable(y)]


def group_c_residues():
    """(even, odd, residual) of the Group C derivation, from Fraction
    ``h0_fraction`` on the basket of P(5,6,22,33) at every local-index tuple.

    even: per point order, the residues i b mod r of the tuples where
    h^0(2A) is integral.  odd: per odd point order, the residues y where
    h^0(A) - h^0(3A) is integral, for residues (0, y3, y5, y11) at A and
    (0, y3 + 2, y5 + 4, y11 + 4) at 3A.  residual: h^0(A) at local
    indices (0, 1, 1, 1).
    """
    B = Basket([(2, 1), (3, 1), (5, 2), (11, 2)])
    minus_a2k = a2mk(66, 4356, lcm(*B.R))

    def h0(idx, s):
        return h0_fraction(66, minus_a2k, CurveConfig(), B, idx, s)

    def index(residues):
        return tuple(y * pow(b, -1, r) % r for y, (r, b) in zip(residues, B))

    even = {r: set() for r in B.R}
    for idx in product(*(range(r) for r in B.R)):
        if h0(idx, 2).denominator == 1:
            for i, (r, b) in zip(idx, B):
                even[r].add(i * b % r)
    odd = {3: set(), 5: set(), 11: set()}
    for y3, y5, y11 in product(range(3), range(5), range(11)):
        diff = h0(index((0, y3, y5, y11)), 1) - h0(index((0, y3 + 2, y5 + 4, y11 + 4)), 3)
        if diff.denominator == 1:
            for r, y in zip((3, 5, 11), (y3, y5, y11)):
                odd[r].add(y)
    even, odd = ({r: sorted(v) for r, v in found.items()} for found in (even, odd))
    return even, odd, h0((0, 1, 1, 1), 1)


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
