"""Orbifold Riemann-Roch machinery.

Local corrections at orbifold points and crepant curves, the h^0(sA)
evaluator, the slack functional ``nabla`` that budgets total crepant-curve
degree, the Kawamata-Miyaoka bound, and the translation of integrality
constraints into finite residue systems.

``h0_sA`` is the one h^0 formula: the s-part ``h0_s_part`` (volume, curve
and A_1-aggregate terms, which depend on s alone) minus the orbifold
corrections ``h0_orbifold_numerator``, an integer over 2 r_X that sums
one term per basket point.  ``orbifold_columns`` gives each point's term
at each local index and ``column_sums`` adds the columns over their index
product, so a table over many local-index tuples costs one integer
addition per tuple and each s-part once per s; ``h0_integral_values``
reads integrality and the value from one integer compare per tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .arith import sigma_numerator, sigma_pair
from .basket import Basket, gorenstein_index

__all__ = [
    "CrepantCurve",
    "CurveConfig",
    "UnknownTerm",
    "ResidueConstraintSystem",
    "c_curve",
    "h0_sA",
    "h0_s_part",
    "h0_orbifold_numerator",
    "orbifold_columns",
    "column_sums",
    "h0_integral_values",
    "residue_term_builder",
    "km_bound",
    "nabla",
    "a2mk",
    "curve_cost",
    "delta_lower_bound",
]


@dataclass(frozen=True)
class CrepantCurve:
    """A crepant curve of type A_{j-1} (j >= 2).

    ``degree_rXKC`` is the integer -r_X K.C; ``generator_unit`` is the unit
    u mod j describing which class generator the polarization restricts to,
    or None when unknown (then integrality arguments quantify over it).
    """

    j: int
    degree_rXKC: int
    generator_unit: int | None = None

    def __post_init__(self):
        if self.j < 2:
            raise ValueError("crepant curve type needs j >= 2")
        if self.degree_rXKC <= 0:
            raise ValueError("curve degree must be positive")
        if self.generator_unit is not None and gcd(self.generator_unit, self.j) != 1:
            raise ValueError("generator unit must be coprime to j")


@dataclass(frozen=True)
class CurveConfig:
    """Crepant curves of a candidate: listed curves with j >= 3 plus the
    aggregated degree x_A1 of the transverse A_1 curves.  ``x_A1 = 0``
    means no A_1 curves; ``None`` means an aggregate of unknown degree."""

    curves: tuple = ()
    x_A1: int | None = 0

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        for c in self.curves:
            if c.j < 3:
                raise ValueError("A_1 curves enter only through the aggregate x_A1")
        if self.x_A1 is not None and self.x_A1 < 0:
            raise ValueError("x_A1 must be nonnegative")


def c_curve(j: int, unit: int, s: int) -> Fraction:
    """Riemann-Roch correction of a crepant curve of type A_{j-1}:
    -sigma_pair(s * unit, j)."""
    if j < 2:
        raise ValueError("need j >= 2")
    if gcd(unit, j) != 1:
        raise ValueError("unit must be coprime to j")
    return -sigma_pair(s * unit, j)


def h0_s_part(q: int, A2mK, cfg: CurveConfig, B: Basket, s: int) -> Fraction:
    """The part of h^0(sA) that does not depend on the local indices:
    s^2/2 (-A^2.K) + 2 plus the crepant-curve and A_1-aggregate corrections.

    Valid for 0 < s < q; needs concrete curve units and a concrete x_A1.
    """
    if not 0 < s < q:
        raise ValueError(f"need 0 < s < q, got s={s}, q={q}")
    if cfg.x_A1 is None:
        raise ValueError("h0_sA needs a concrete x_A1")
    r_x = gorenstein_index(B)
    val = Fraction(s * s, 2) * Fraction(A2mK) + 2
    for c in cfg.curves:
        if c.generator_unit is None:
            raise ValueError("h0_sA needs concrete generator units")
        val += Fraction(c.degree_rXKC, r_x) * c_curve(c.j, c.generator_unit, s)
    if cfg.x_A1:
        val += Fraction(cfg.x_A1, r_x) * c_curve(2, 1, s)
    return val


def orbifold_columns(B: Basket) -> list:
    """One column per basket point, in basket order: the point's orbifold
    term sigma_numerator(i b, r) * r_X / r at each local index i in [0, r),
    over the common denominator 2 r_X.  The term has period r in i."""
    r_x = gorenstein_index(B)
    return [[sigma_numerator(i * p.b, p.r) * (r_x // p.r) for i in range(p.r)] for p in B]


def column_sums(cols) -> list:
    """Every sum of one entry per column, in ``itertools.product`` order
    of the entries' positions."""
    sums = [0]
    for col in cols:
        sums = [a + t for a in sums for t in col]
    return sums


def h0_orbifold_numerator(B: Basket, idx) -> int:
    """The orbifold corrections of h^0 at local indices ``idx`` (one per
    basket point, in basket order) over the common denominator 2 r_X: the
    sum of each point's ``orbifold_columns`` entry at its index."""
    return sum(col[i % len(col)] for i, col in zip(idx, orbifold_columns(B), strict=True))


def h0_sA(q: int, A2mK, cfg: CurveConfig, B: Basket, idx, s: int) -> Fraction:
    """Exact h^0(sA) for 0 < s < q, given full local data.

    ``A2mK`` is the exact value -A^2.K, see ``a2mk``; ``idx`` lists the
    local index i at each basket point, in basket order.  The result is
    the s-part ``h0_s_part`` minus ``h0_orbifold_numerator`` / (2 r_X).  It
    is an integer whenever the inputs describe a genuine variety, but the
    function does not assume it.
    """
    orbifold = Fraction(h0_orbifold_numerator(B, idx), 2 * gorenstein_index(B))
    return h0_s_part(q, A2mK, cfg, B, s) - orbifold


def h0_integral_values(part, r_x: int, numerators) -> list:
    """``part - n / (2 r_X)`` for each orbifold numerator n, as in ``h0_sA``:
    the integer where it is integral and None elsewhere.

    ``part`` is read once, so a table over many local-index tuples costs
    one integer compare per tuple.
    """
    two_rx = 2 * r_x
    top = part * two_rx
    if top.denominator != 1:
        return [None for _ in numerators]
    top = int(top)
    return [None if (top - n) % two_rx else (top - n) // two_rx for n in numerators]


@dataclass(frozen=True)
class UnknownTerm:
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


@dataclass
class ResidueConstraintSystem:
    """Does some assignment of the unknown residues make the total integral?"""

    constant: Fraction
    fixed_terms: list = field(default_factory=list)
    unknown_terms: list = field(default_factory=list)

    def total(self, assignment) -> Fraction:
        val = self.constant + sum(self.fixed_terms, Fraction(0))
        for t, u in zip(self.unknown_terms, assignment):
            val += t.value(u)
        return val

    @property
    def domain_size(self) -> int:
        size = 1
        for t in self.unknown_terms:
            size *= t.modulus
        return size


def residue_term_builder(
    q: int,
    rXc13: int,
    B: Basket,
    cfg: CurveConfig,
    r_prime: int,
    s: int,
    drop_curve_terms: bool = True,
) -> ResidueConstraintSystem:
    """Instantiate the general integrality constraint for D = sA and a
    chosen auxiliary index r'.

    The constraint says -(r'/2) D^2.K + sum (-r'K.C) c_C(D) - sum of
    orbifold corrections is an integer; curve and point terms integral for
    every residue (one rule, ``_term_integral``) are dropped, the rest
    become unknowns.  An unknown x_A1 becomes a linear unknown unless its
    coefficient is integral (as for every even s).  A divisor that is
    Cartier in codimension 2 has no curve corrections; pass a config
    without curves.  ``drop_curve_terms=False`` keeps curve unknowns even
    when the vanishing rule applies, so a certificate can exhaust the full
    published residue domain.
    """
    r_x = gorenstein_index(B)
    sys = ResidueConstraintSystem(
        constant=Fraction(r_prime * s * s, 2) * a2mk(q, rXc13, r_x)
    )
    for c in cfg.curves:
        deg = Fraction(r_prime * c.degree_rXKC, r_x)
        if drop_curve_terms and deg.denominator == 1 and _term_integral(c.j, int(deg)):
            continue
        if c.generator_unit is not None:
            sys.fixed_terms.append(deg * c_curve(c.j, c.generator_unit, s))
        else:
            sys.unknown_terms.append(
                UnknownTerm(-deg, c.j, "quadratic", f"A_{c.j - 1} class")
            )
    if cfg.x_A1 != 0:
        coeff = Fraction(r_prime, r_x) * c_curve(2, 1, s)
        if cfg.x_A1 is not None:
            sys.fixed_terms.append(coeff * cfg.x_A1)
        elif coeff.denominator != 1:
            sys.unknown_terms.append(
                UnknownTerm(coeff, coeff.denominator, "linear", "x_A1")
            )
    for p in B:
        if not _term_integral(p.r, r_prime):
            sys.unknown_terms.append(
                UnknownTerm(Fraction(-r_prime), p.r, "quadratic", f"point ({p.r},{p.b})")
            )
    return sys


def _term_integral(j: int, deg: int) -> bool:
    """Whether deg * sigma_pair(a, j) is integral for every residue a: the
    vanishing rule of a curve of type A_{j-1} and of a point of order j."""
    if j % 2 == 1:
        return deg % j == 0
    return deg % (2 * j) == 0


def km_bound(l: int, r1: int, p: int = 0, q: int = 0) -> Fraction:
    """Kawamata-Miyaoka type upper bound on c1^3 / (c2.c1-hat).

    Piecewise in the Harder-Narasimhan shape (l, r1) of the tangent sheaf;
    p is the index of the destabilizing rank-2 subsheaf where relevant.
    """
    if (l, r1) == (1, 3):
        return Fraction(3)
    if (l, r1) == (2, 1):
        return Fraction(16, 5)
    if (l, r1) == (2, 2):
        return Fraction(4 * q * q, p * (4 * q - 3 * p))
    if (l, r1) == (3, 1):
        return Fraction(4 * q * q, -4 * p * p + 6 * p * q - q * q)
    raise ValueError(f"invalid Harder-Narasimhan shape ({l},{r1})")


def nabla(q: int, rXc13, rXc2c1) -> Fraction:
    """Slack budget: r_Xc2c1 - ((q^2+2q-4)/(4q^2)) * r_Xc1^3."""
    if q < 1:
        raise ValueError("q must be positive")
    return Fraction(rXc2c1) - Fraction(q * q + 2 * q - 4, 4 * q * q) * Fraction(rXc13)


def a2mk(q: int, rXc13: int, r_x: int) -> Fraction:
    """-A^2.K = r_Xc1^3 / (r_X q^2) for the polarization A = -K/q."""
    return Fraction(rXc13, r_x * q * q)


def curve_cost(j: int, degree) -> Fraction:
    """Budget cost (j - 1/j) * degree of crepant A_{j-1} curves of total
    degree ``degree``; the A_1 aggregate x_A1 costs curve_cost(2, x_A1)."""
    return Fraction(j * j - 1, j) * degree


def delta_lower_bound(cfg: CurveConfig) -> Fraction:
    """Total crepant-curve demand: the curve_cost of every curve and of the
    A_1 aggregate.  Needs all degrees known."""
    if cfg.x_A1 is None:
        raise ValueError("x_A1 still symbolic; pin it before bounding")
    total = curve_cost(2, cfg.x_A1)
    for c in cfg.curves:
        total += curve_cost(c.j, c.degree_rXKC)
    return total
