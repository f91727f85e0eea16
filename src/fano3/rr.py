"""Orbifold Riemann-Roch machinery.

Local corrections at orbifold points and crepant curves, the h^0(sA)
evaluator, the slack functional ``nabla`` that budgets total crepant-curve
degree, and the translation of integrality constraints into finite residue
systems.

``rr_terms`` writes the volume, crepant-curve and A_1-aggregate terms of
chi(sA) and ``basket.orbifold_column`` a point's orbifold term, once each.
h^0(sA) is ``h0_s_part`` (those terms plus 2, which depend on s alone)
minus ``orbifold_columns``, both integer numerators over 2 r_X, and a
residue system at auxiliary index r' is r' (h^0(sA) - 2) with the
residues left open.  A point (r, b) at local index i contributes its term
at the residue y = i b mod r, and ``orbifold_columns`` lists each point's
term at every residue, as the residue systems index their point unknowns.
``column_sums`` adds the columns over their residue product, so a table
over many residue tuples costs one integer addition per tuple and one
integer s-part per s; ``h0_integral_values`` reads integrality and the
value from one integer compare per tuple.

``nabla_units`` and ``demand_units`` are the one budget kernel: the budget
inequality nabla >= sum (j - 1/j) d over the forced curves, scaled by 4q^2
so that both sides are integers.  ``nabla`` builds its Fraction from
``nabla_units``, and ``within_budget`` compares a scaled demand against a
candidate's own Fraction budget cross-multiplied.

``residue_term_builder`` turns the integrality constraint of several
divisors D = sA at one auxiliary index r' into one residue system: the
unknown terms they share, in integer residues over one L, and one known
constant per divisor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import NamedTuple

from .arith import Frozen, InvariantViolation, sigma_numerator, sigma_pair
from .basket import Basket, orbifold_column

__all__ = [
    "CrepantCurve",
    "CurveConfig",
    "UnknownTerm",
    "ResidueConstraintSystem",
    "rr_terms",
    "h0_s_part",
    "orbifold_columns",
    "column_sums",
    "h0_integral_values",
    "suffix_reach",
    "residue_term_builder",
    "nabla",
    "nabla_units",
    "demand_units",
    "within_budget",
    "a2mk",
    "curve_cost",
    "curve_degrees",
]


class CrepantCurve(Frozen):
    """A crepant curve of type A_{j-1} (j >= 2).

    ``degree_rXKC`` is the integer -r_X K.C; ``generator_unit`` is the unit
    u mod j describing which class generator the polarization restricts to,
    or None when unknown (then integrality arguments quantify over it).
    """

    __slots__ = _fields = ("j", "degree_rXKC", "generator_unit")

    def __init__(self, j, degree_rXKC, generator_unit=None):
        if j < 2:
            raise ValueError("crepant curve type needs j >= 2")
        if degree_rXKC <= 0:
            raise ValueError("curve degree must be positive")
        if generator_unit is not None and gcd(generator_unit, j) != 1:
            raise ValueError("generator unit must be coprime to j")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "degree_rXKC", degree_rXKC)
        object.__setattr__(self, "generator_unit", generator_unit)


class CurveConfig(Frozen):
    """Crepant curves of a candidate: listed curves with j >= 3 plus the
    aggregated degree x_A1 of the transverse A_1 curves.  ``x_A1 = 0``
    means no A_1 curves; ``None`` means an aggregate of unknown degree."""

    __slots__ = _fields = ("curves", "x_A1")

    def __init__(self, curves=(), x_A1=0):
        curves = tuple(curves)
        for c in curves:
            if c.j < 3:
                raise ValueError("A_1 curves enter only through the aggregate x_A1")
        if x_A1 is not None and x_A1 < 0:
            raise ValueError("x_A1 must be nonnegative")
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "x_A1", x_A1)


def rr_terms(A2mK, cfg: CurveConfig, r_x: int, s: int, den: int, r_prime=1, drop=False) -> tuple:
    """``(known, unknown)``: r' times the volume term s^2/2 (-A^2.K), each
    curve term -(deg/r_X) sigma_pair(s u, j) and the A_1 term
    -(x_A1/r_X) sigma_pair(s, 2) of chi(sA), in integer numerators over
    N = 2 r_X den, den a multiple of lcm(d, 2, j), d = denominator(-A^2.K).
    ``known`` sums the known terms; an unknown (label, shape, modulus, a)
    is worth a sigma_numerator(u, j) / N at the unit u of a curve or
    a x_A1 / N, kept only where not integral.  ``drop`` leaves out a curve
    term integral at every residue (``_term_integral``)."""
    big_n = 2 * r_x * den
    known = r_prime * s * s * r_x * A2mK.numerator * (den // A2mK.denominator)
    unknown = []
    for c in cfg.curves:
        deg = r_prime * c.degree_rXKC  # r_X times the curve's degree at r'
        if drop and deg % r_x == 0 and _term_integral(c.j, deg // r_x):
            continue
        a = -deg * (den // c.j)
        if c.generator_unit is None:
            unknown.append((f"A_{c.j - 1} class", "quadratic", c.j, a))
        else:
            known += a * sigma_numerator(s * c.generator_unit, c.j)
    a = -r_prime * sigma_numerator(s, 2) * (den // 2)
    if cfg.x_A1 is not None:
        known += a * cfg.x_A1
    elif a % big_n:
        unknown.append(("x_A1", "linear", big_n // gcd(a, big_n), a))
    return known, unknown


def h0_s_part(q: int, A2mK, cfg: CurveConfig, B: Basket, s: int) -> int | None:
    """The part of h^0(sA) that does not depend on the residues at the
    basket points -- the ``rr_terms`` plus 2 -- as an integer numerator
    over 2 r_X, the denominator of ``orbifold_columns``.  None when that
    is not an integer: then h^0(sA) is integral at no residues.  Valid
    for 0 < s < q; needs concrete curve units and a concrete x_A1."""
    if not 0 < s < q:
        raise ValueError(f"need 0 < s < q, got s={s}, q={q}")
    den = lcm(A2mK.denominator, 2, *(c.j for c in cfg.curves))
    known, unknown = rr_terms(A2mK, cfg, B.r_x, s, den)
    if unknown or cfg.x_A1 is None:
        raise ValueError("h^0 needs concrete generator units and a concrete x_A1")
    num = known + 4 * B.r_x * den
    return None if num % den else num // den


def orbifold_columns(B: Basket) -> list:
    """One ``orbifold_column`` per basket point, in basket order, over
    2 r_X.  A point (r, b) at local index i reads its column at y = i b mod
    r; the columns depend on r and r_X alone."""
    return [orbifold_column(r, B.r_x) for r in B.R]


def column_sums(cols) -> list:
    """Every sum of one entry per column, in ``itertools.product`` order
    of the entries' positions."""
    sums = [0]
    for col in cols:
        sums = [a + t for a in sums for t in col]
    return sums


def h0_integral_values(part: int | None, r_x: int, numerators) -> list:
    """``(part - n) / (2 r_X)`` for each orbifold numerator n, with ``part``
    the integer s-part of ``h0_s_part`` (or a difference of two): the
    integer where it is integral and None elsewhere, and None throughout
    when ``part`` is None.  One integer compare per tuple.
    """
    if part is None:
        return [None for _ in numerators]
    two_rx = 2 * r_x
    return [None if (part - n) % two_rx else (part - n) // two_rx for n in numerators]


class UnknownTerm(NamedTuple):
    """One unknown residue in a constraint system.

    shape "quadratic": value(u) = coeff * sigma_pair(u, m)  (orbifold/curve term)
    shape "linear":    value(u) = coeff * u            (aggregated degree)
    In both shapes u ranges over [0, m).
    """

    coeff: Fraction
    modulus: int
    shape: str = "quadratic"
    label: str = ""

    def value(self, u: int) -> Fraction:
        if self.shape == "quadratic":
            return self.coeff * sigma_pair(u, self.modulus)
        return self.coeff * u


class ResidueConstraintSystem(Frozen):
    """Does some assignment of the unknown residues make a total integral?

    One system serves a family of divisors D = sA whose unknown terms are
    the same: member k brings only its known part ``constants[k]`` (the
    volume term and every fixed curve term).  ``unknown_terms`` hold the
    shared unknowns in Fractions, with which ``total`` re-checks a
    witness; ``scale`` L and ``tables`` hold them in integers:
    ``tables[i][u]`` is L times unknown i at residue u, mod L, and L is the
    lcm of their reduced denominators.  A total is integral exactly when
    its constant times L is an integer (``scaled``) and the scaled sum is
    0 mod L.
    """

    # no __slots__: the cached property ``reach`` is stored in the __dict__
    _fields = ("constants", "unknown_terms", "scale", "tables")

    def __init__(self, constants, unknown_terms=(), scale=1, tables=()):
        vars(self).update(constants=constants, unknown_terms=unknown_terms, scale=scale, tables=tables)

    def total(self, constant, assignment) -> Fraction:
        val = Fraction(constant)
        for t, u in zip(self.unknown_terms, assignment):
            val += t.value(u)
        return val

    def scaled(self, constant: Fraction) -> int | None:
        """``constant`` times L, mod L; None when that is not an integer,
        since the unknowns then leave every total non-integral."""
        if self.scale % constant.denominator:
            return None
        return constant.numerator * (self.scale // constant.denominator) % self.scale

    @cached_property
    def reach(self) -> list:
        """``reach[i]``: every sum mod L that unknowns i, i+1, ... can take;
        built on first use and shared by every constant."""
        return suffix_reach(self.tables, self.scale)

    @property
    def domain_size(self) -> int:
        return prod(t.modulus for t in self.unknown_terms)


def suffix_reach(tables, big_l: int) -> list:
    """``reach[i]``: every sum mod L that tables i, i+1, ... can take, one
    entry from each."""
    reach = [{0}]
    for tab in reversed(tables):
        reach.append({(a + r) % big_l for a in set(tab) for r in reach[-1]})
    reach.reverse()
    return reach


def residue_term_builder(
    q: int,
    rXc13: int,
    B: Basket,
    members,
    r_prime: int,
    drop_curve_terms: bool = True,
) -> ResidueConstraintSystem:
    """Instantiate the general integrality constraint at the auxiliary
    index r' for each member ``(cfg, s)``: D = sA with crepant curves cfg.

    The constraint says r' (h^0(sA) - 2) is an integer: the member's
    ``rr_terms`` at r', over N = 2 r_X den with one den = lcm(d, 2, every
    j) for the family, minus r' times each orbifold term.  Known terms make
    the member's constant and the rest become unknowns; a point term
    integral at every residue (``_term_integral``, the curves' rule too) is
    dropped.  A divisor that is Cartier in codimension 2 has no curve
    corrections; pass a config without curves.  ``drop_curve_terms=False``
    keeps curve unknowns even when the vanishing rule applies, so a
    certificate can exhaust the full published residue domain.

    The tables come out in integers; L is N over the gcd of N and every
    unknown numerator.  The members share the first member's unknown
    terms: one whose unknowns differ raises InvariantViolation, and an
    empty family raises ValueError.
    """
    if not members:
        raise ValueError("a residue system needs at least one member")
    r_x = B.r_x
    minus_a2k = a2mk(q, rXc13, r_x)
    den = lcm(minus_a2k.denominator, 2, *(c.j for cfg, _ in members for c in cfg.curves))
    big_n = 2 * r_x * den
    shared, constants = None, []
    for cfg, s in members:
        known, unknown = rr_terms(minus_a2k, cfg, r_x, s, den, r_prime, drop_curve_terms)
        if shared is None:
            shared = unknown
        elif unknown != shared:
            raise InvariantViolation(
                f"D={s}A has unknown terms {unknown}, not its family's {shared}"
            )
        constants.append(Fraction(known, big_n))
    shared += [
        (f"point ({r},{b})", "quadratic", r, -r_prime * (big_n // (2 * r)))
        for r, b in B
        if not _term_integral(r, r_prime)
    ]

    # the gcd of a column is taken once, so L = N / gcd(N, every value)
    # costs one gcd per term
    columns = [
        [sigma_numerator(u, m) for u in range(m)] if shape == "quadratic" else range(m)
        for _, shape, m, _ in shared
    ]
    g = big_n
    for (*_, a), col in zip(shared, columns):
        g = gcd(g, a * gcd(*col))
    big_l = big_n // g
    return ResidueConstraintSystem(
        constants=tuple(constants),
        unknown_terms=tuple(
            UnknownTerm(Fraction(a * 2 * m if shape == "quadratic" else a, big_n), m, shape, label)
            for label, shape, m, a in shared
        ),
        scale=big_l,
        tables=tuple(tuple([a * x // g % big_l for x in col]) for (*_, a), col in zip(shared, columns)),
    )


def _term_integral(j: int, deg: int) -> bool:
    """Whether deg * sigma_pair(a, j) is integral for every residue a: the
    vanishing rule of a curve of type A_{j-1} and of a point of order j."""
    return deg % (j if j % 2 else 2 * j) == 0


def nabla(q: int, rXc13, rXc2c1) -> Fraction:
    """Slack budget: r_Xc2c1 - ((q^2+2q-4)/(4q^2)) * r_Xc1^3."""
    if q < 1:
        raise ValueError("q must be positive")
    return Fraction(nabla_units(q, rXc13, rXc2c1), 4 * q * q)


def nabla_units(q: int, rXc13: int, rXc2c1: int) -> int:
    """4q^2 * nabla, an integer."""
    return 4 * q * q * rXc2c1 - (q * q + 2 * q - 4) * rXc13


def demand_units(q: int, orders, degrees) -> int:
    """4q^2 times the total ``curve_cost`` of curves of the given orders j
    and total degrees d, pairwise: (j^2 - 1)(4q^2/j) d each.  An integer
    for every j dividing 4q^2: every divisor of J_A, since J_A divides q,
    and j = 2 (the A_1 aggregate)."""
    q4 = 4 * q * q
    total = 0
    for j, d in zip(orders, degrees):
        total += (j * j - 1) * (q4 // j) * d
    return total


def within_budget(nab: Fraction, q: int, units: int) -> bool:
    """Whether a demand of ``units`` over 4q^2 is at most the budget
    ``nab``, cross-multiplied in integers."""
    return units * nab.denominator <= nab.numerator * 4 * q * q


def a2mk(q: int, rXc13: int, r_x: int) -> Fraction:
    """-A^2.K = r_Xc1^3 / (r_X q^2) for the polarization A = -K/q."""
    return Fraction(rXc13, r_x * q * q)


def curve_cost(j: int, degree) -> Fraction:
    """Budget cost (j - 1/j) * degree of crepant A_{j-1} curves of total
    degree ``degree``; the A_1 aggregate x_A1 costs curve_cost(2, x_A1).
    The Fraction form, for ``search.verify_candidate``'s independent budget
    re-check; the engine's own budget comparisons use ``demand_units``."""
    return Fraction(j * j - 1, j) * degree


def curve_degrees(cfg: CurveConfig) -> tuple:
    """``(orders, degrees)`` of the A_1 aggregate (order 2) and of every
    curve of ``cfg``, as ``demand_units`` takes them.  Needs all degrees
    known."""
    if cfg.x_A1 is None:
        raise ValueError("x_A1 still symbolic; pin it before bounding")
    return (2, *(c.j for c in cfg.curves)), (cfg.x_A1, *(c.degree_rXKC for c in cfg.curves))
