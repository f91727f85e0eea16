"""Elimination pipeline for the 36 large-index candidates.

Every candidate that survives the search is killed by one of four routes:

* Group A: a single residue system (D = 2A, r' = 2 r_X) with no integral
  solution over the full product of curve-class residues.
* Group B: per-case scripts chaining residue systems, interval bounds on
  the aggregated A_1 degree, and (for two cases) geometric parity inputs
  recorded as cited-lemma steps.
* Group C-: the shared closed-form h^0 forces x_A1 = r_X, overshooting the
  curve-degree budget nabla.
* Group C+: foliation index bounds (p_min), a leaf-degree decision tree,
  and the final inequality 60 p^2/(330 q) > 8 against the Hirzebruch
  anticanonical square.

The routes run in a fixed order.  A candidate on the Group C list (the
rows whose h^0 is that of P(5,6,22,33)) tries C- and then C+; any other
tries Group A and then the Group B scripts of cases 10, 23, 24, 27,
32/33, 35, 36 and 20, in that order.  The first contradiction wins, so the
group a candidate falls in is found, not looked up.  No table row, and
no candidate of the searches at q_min 40, 50 or 60, is killed by two Group
B scripts, so their order only sets the cost of the stalls: case 20's
script stalls on an open curve configuration after a full residue solve,
so it runs last.  Off the table, Group A and case 32/33's script both kill
two q_min 40 candidates (q = 48 and 54): there the order A before B
decides which certificate is issued.

Every residue question goes to one of two primitives over the integer
tables of ``residue_term_builder``: ``exists_integral_solution`` (a greedy
witness) or ``_completions`` (the residue tuples of chosen unknowns that
complete).  Both take one system and a constant per divisor D = sA: the
routes build one system per family of divisors whose unknown terms agree
-- case 35's aggregate-A_1 residues over s in {1, 3, 5} (and likewise
cases 10 and 32/33) and its half-point parities over s in {1, 4, 5},
case 24's (y4, s) grid, case 27's index pairs over s in {2, 4} and the
A_2 degrees of cases 27 and 32/33 -- and read every member off it.  Group
A and the scripts of cases 20, 23 and 36 are each one ``_refute_at`` call
with their case data: the system of one divisor D = sA at one auxiliary
index r' has no integral assignment.

All arithmetic is exact; each step lands in an EliminationCertificate.  A
route is a body ``(c, cert)`` that ``@_route`` turns into the
``(case_id, c) -> Verdict`` callable: Group A, C-, C+ and every Group B
script.  A body that finishes has recorded its contradiction; one whose
argument does not fit the candidate stalls, and its certificate ends in
one inconclusive step.  When every route stalls, the last stall is the
verdict and the candidate stands.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, wraps
from itertools import compress, product as iproduct
from typing import NamedTuple

from .arith import InvariantViolation, factorize
from .basket import Basket
from .certificates import CITED_LEMMA, MECHANICAL, EliminationCertificate, Verdict
from .lb import lb_of
from .rr import (
    CrepantCurve,
    CurveConfig,
    ResidueConstraintSystem,
    a2mk,
    column_sums,
    curve_degrees,
    demand_units,
    h0_integral_values,
    h0_s_part,
    orbifold_columns,
    residue_term_builder,
    suffix_reach,
    within_budget,
)
from .search import Candidate, step3
from .tables import GROUP_C_KEYS, TABLE_MAIN, row

__all__ = [
    "Undetermined",
    "exists_integral_solution",
    "determine_curves",
    "eliminate_group_a",
    "run_group_b_script",
    "group_c_closed_form",
    "movable_thresholds",
    "decompose",
    "foliation_bounds",
    "eliminate_group_c_plus",
    "eliminate_group_c_minus",
    "eliminate_candidate",
    "run_full_pipeline",
    "PipelineReport",
    "candidate_for_case",
]


class Undetermined(NamedTuple):
    """The curve-determination hypothesis fails; a per-case script must
    pin the configuration instead."""

    reason: str


#: No crepant curves at all, the A_1 aggregate included.
_NO_CURVES = CurveConfig((), x_A1=0)


# ---------------------------------------------------------------------------
# Residue-system solver
# ---------------------------------------------------------------------------

def exists_integral_solution(sys: ResidueConstraintSystem, constant: Fraction):
    """Exhaustive solvability of ``constant`` plus the unknown terms of
    ``sys`` over the product of their residue ranges.

    Returns ``(True, {"witness": assignment})`` or ``(False, {"exhausted":
    domain})``; the domain is the full logical product.  Each unknown in
    turn takes the least residue the next suffix can complete
    (``sys.reach``, built once per system and shared by every constant), so
    the witness is the lexicographically least integral assignment, found
    without backtracking in work L times the sum of the moduli.  ``sys.total`` re-checks it in Fractions,
    independently of the tables.
    """
    big_l, acc = sys.scale, sys.scaled(constant)
    reach = sys.reach
    if acc is None or -acc % big_l not in reach[0]:
        return False, {"exhausted": sys.domain_size}
    witness = ()
    for tab, tail in zip(sys.tables, reach[1:]):
        u = next(u for u, a in enumerate(tab) if -(acc + a) % big_l in tail)
        witness += (u,)
        acc += tab[u]
    if sys.total(constant, witness).denominator != 1:
        raise InvariantViolation(f"solver witness {witness} leaves {sys.total(constant, witness)}")
    return True, {"witness": witness}


def _completions(sys: ResidueConstraintSystem, positions, constants) -> list:
    """For each of ``constants``, the residue tuples of the unknowns at
    ``positions``, in that order, that the other unknowns complete to an
    integral total.  The kept columns are summed once by ``column_sums``
    and reduced mod L, and the others enter as one reach set, so a constant
    costs one set lookup per tuple; only the tuples that complete are
    built."""
    big_l = sys.scale
    kept = [sys.tables[i] for i in positions]
    others = suffix_reach([t for i, t in enumerate(sys.tables) if i not in positions], big_l)[0]
    ranges = [range(len(t)) for t in kept]
    sums = [t % big_l for t in column_sums(kept)]
    out = []
    for constant in constants:
        base = sys.scaled(constant)
        if base is None:
            out.append(set())
        else:
            needed = {-(base + r) % big_l for r in others}
            out.append(set(compress(iproduct(*ranges), map(needed.__contains__, sums))))
    return out


# ---------------------------------------------------------------------------
# Curve-configuration determination
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)  # every route of a candidate runs before the next candidate's
def determine_curves(c: Candidate):
    """Crepant-curve configuration forced by the degree budget.

    Every curve class order divides J_A, and each prime power dividing J_A
    forces a curve whose degree is a multiple of the LB bound.  When the
    budget nabla is smaller than the cost of doubling any forced curve,
    the configuration is pinned to exactly one curve per prime power
    (plus, possibly, an aggregate of transverse-A_1 curves).  The threshold
    is compared in integers scaled by 4q^2 against the candidate's own
    nabla; its Fraction is built only for an ``Undetermined`` reason.  LB
    is read through ``lb_of`` over R, never from ``c.lb_values``.
    """
    j_a = c.j_a
    if j_a == 1:
        return _NO_CURVES
    if j_a == 2:
        return CurveConfig((), x_A1=None)

    R = c.basket.R
    factors = factorize(j_a)
    two_part = next((2**e for p, e in factors if p == 2), 1)
    odd_primes = [p for p, _ in factors if p > 2]
    # by value, the order Group A prints its curves in
    odd_pps = sorted(p**e for p, e in factors if p > 2)
    if two_part <= 2:
        # doubling the cheapest odd-prime curve must already overshoot
        orders = [*odd_pps, min(odd_primes)]
    else:
        # even part 2^a >= 4 contributes its own curve
        orders = [*odd_pps, two_part, min([4] + odd_primes)]
    threshold = demand_units(c.q, orders, [lb_of(R, j) for j in orders])
    if within_budget(c.nabla, c.q, threshold):
        return Undetermined(
            f"budget {c.nabla} admits more curves than the forced set "
            f"(threshold {Fraction(threshold, 4 * c.q * c.q)})"
        )
    forced = sorted(odd_pps + [two_part]) if two_part > 2 else odd_pps
    curves = tuple(CrepantCurve(j, lb_of(R, j)) for j in forced)
    return CurveConfig(curves, x_A1=0 if two_part == 1 else None)


# ---------------------------------------------------------------------------
# Table row -> candidate
# ---------------------------------------------------------------------------

def candidate_for_case(case_id: int) -> Candidate:
    """Rebuild the search candidate from the frozen table row."""
    r = row(case_id)
    cand = step3(Basket(r.basket), r.q, r.j_a, r.rXc13, r.rXc2c1)
    if cand is None:
        raise InvariantViolation(f"table row {case_id} fails the budget inequality")
    return cand


class _Stall(Exception):
    """A route's argument does not fit the candidate, which stays standing."""


def _expect(holds: bool, why: str) -> None:
    """Stall the route with ``why`` unless ``holds``."""
    if not holds:
        raise _Stall(why)


def _first_contradiction(verdicts) -> Verdict:
    """The first eliminating verdict of a lazy sequence, else the last one."""
    for verdict in verdicts:
        if verdict.eliminated:
            break
    return verdict


def _route(body):
    """The route ``(case_id, c) -> Verdict`` that runs ``body(c, cert)``.  A
    body that finishes has recorded its contradiction; a stall becomes one
    inconclusive step and leaves the candidate standing.  ``case_id`` only
    labels the certificate."""
    @wraps(body)
    def route(case_id: int, c: Candidate) -> Verdict:
        cert = EliminationCertificate(case_id)
        try:
            body(c, cert)
        except _Stall as stall:
            cert.mechanical(str(stall), "inconclusive")
            return Verdict(False, cert)
        return Verdict(True, cert)

    return route


def _forced(c: Candidate) -> CurveConfig:
    """The curve configuration the budget forces; stalls when it is open."""
    cfg = determine_curves(c)
    if isinstance(cfg, Undetermined):
        raise _Stall(f"curve configuration not forced: {cfg.reason}")
    return cfg


def _refute_at(c, cfg, r_prime, s, cert, claim=None, drop_curve_terms=True) -> None:
    """Contradiction when the residue system of D = sA alone, with
    auxiliary index ``r_prime``, has no integral assignment; the exhausted
    domain is its size.  ``claim`` is a ``str.format`` template over
    ``r_prime``, ``s``, ``constant`` and ``moduli``."""
    sys = residue_term_builder(c.q, c.rXc13, c.basket, [(cfg, s)], r_prime, drop_curve_terms)
    [constant] = sys.constants
    solvable, info = exists_integral_solution(sys, constant)
    _expect(not solvable, f"residue system is solvable; witness {info.get('witness')}")
    claim = claim or (
        "residue system (r'={r_prime}, D={s}A) with constant {constant} has no "
        "integral assignment over moduli {moduli}"
    )
    moduli = [t.modulus for t in sys.unknown_terms]
    text = claim.format(r_prime=r_prime, s=s, constant=constant, moduli=moduli)
    cert.mechanical(text, "contradiction", domain_size=info["exhausted"])


def _demand(c: Candidate, cfg: CurveConfig) -> tuple:
    """Whether the total curve demand of ``cfg`` fits the budget, compared
    in integers, and that demand as the Fraction a certificate prints."""
    units = demand_units(c.q, *curve_degrees(cfg))
    return within_budget(c.nabla, c.q, units), Fraction(units, 4 * c.q * c.q)


def _room(c: Candidate, spent, j: int, d: int = 1) -> Fraction:
    """How many curves of order ``j`` and degree ``d`` the budget leaves
    room for once the ``(order, degree)`` pairs ``spent`` are paid: the
    exact Fraction (4q^2 nabla - demand of ``spent``) / demand of (j, d),
    whose integer part bounds a degree or a count."""
    orders, degrees = zip(*spent) if spent else ((), ())
    left = c.nabla * 4 * c.q * c.q - demand_units(c.q, orders, degrees)
    return left / demand_units(c.q, (j,), (d,))


def _refute_budget(c, cfg, cert, context: str) -> None:
    """Contradiction when the pinned curves demand more than the budget."""
    fits, demand = _demand(c, cfg)
    _expect(not fits, f"{context}: curve demand {demand} fits budget {c.nabla}")
    cert.mechanical(
        f"{context}: total curve demand {demand} exceeds budget {c.nabla}",
        "contradiction",
    )


# ---------------------------------------------------------------------------
# Group A
# ---------------------------------------------------------------------------

@_route
def eliminate_group_a(c, cert) -> None:
    """One unsolvable residue system kills the candidate: D = 2A with
    auxiliary index r' = 2 r_X makes every basket term vanish, leaving the
    curve-class residues; no assignment makes the total integral."""
    cfg = _forced(c)
    curve_desc = ", ".join(f"A_{cc.j - 1} deg {cc.degree_rXKC}" for cc in cfg.curves)
    cert.mechanical(
        f"forced curve configuration: {curve_desc}"
        + ("; A_1 aggregate possible" if cfg.x_A1 is None else "; no A_1 curves"),
        "determined",
    )
    _refute_at(c, cfg, 2 * c.r_x, 2, cert, drop_curve_terms=False)


# ---------------------------------------------------------------------------
# Group B scripts
# ---------------------------------------------------------------------------

def run_group_b_script(case_id: int, c: Candidate) -> Verdict:
    """Each Group B script in turn on the candidate; the first contradiction
    wins, and when every script stalls the last stall is the verdict.  The
    module docstring says why the order sets only the cost of the stalls."""
    return _first_contradiction(script(case_id, c) for script in _GROUP_B_SCRIPTS)


@lru_cache(maxsize=1)  # every script of a candidate runs before the next candidate's
def _curve_order_bounds(c: Candidate) -> tuple:
    """``(bounds, allowed)``: LB(j) for every curve class order j | J_A, and
    the orders whose minimal degree cost fits the budget."""
    bounds = {j: lb_of(c.basket.R, j) for j in range(2, c.j_a + 1) if c.j_a % j == 0}
    allowed = tuple(
        j for j, d in bounds.items() if within_budget(c.nabla, c.q, demand_units(c.q, (j,), (d,)))
    )
    return bounds, allowed


def _curve_orders(c: Candidate, cert, expected: tuple) -> dict:
    """LB(j) for every curve class order j | J_A, once the orders whose
    minimal degree cost fits the budget are found to be ``expected``."""
    bounds, allowed = _curve_order_bounds(c)
    excluded = [j for j in bounds if j not in allowed]
    cert.mechanical(
        f"allowed curve class orders {list(allowed)} (minimal cost of each of {excluded} "
        f"exceeds budget {c.nabla})",
        "narrowed",
        domain_size=len(bounds),
    )
    _expect(allowed == expected, f"unexpected allowed orders {allowed}")
    return bounds


def _forced_curves(c: Candidate, cert, curves: tuple, prose: str) -> CurveConfig:
    """The forced configuration, once its curves are the ``(j, degree)``
    pairs ``curves`` with the A_1 aggregate possible, as ``prose`` says."""
    cfg = _forced(c)
    found = tuple((cc.j, cc.degree_rXKC) for cc in cfg.curves)
    _expect(
        found == curves and cfg.x_A1 is None,
        f"forced curves {found} (A_1 possible: {cfg.x_A1 is None}) differ from {curves}",
    )
    cert.mechanical(prose, "determined")
    return cfg


def _a2_degree_solutions(c: Candidate, lb3: int, s: int, ys) -> tuple:
    """Canonical-part integrality for D = sA: with r' = 2 r_X every basket
    term vanishes, and A_2 curves of total degree LB(3) y (unit 1) are the
    only other term -- the A_1 aggregate is absent or, for even s, drops.
    The constant without A_2 curves and the y in ``ys`` leaving an integral
    total, all read off one system."""
    cfgs = [CurveConfig((CrepantCurve(3, lb3 * y, 1),) if y else (), x_A1=0) for y in (0, *ys)]
    sys = residue_term_builder(c.q, c.rXc13, c.basket, [(cfg, s) for cfg in cfgs], 2 * c.r_x)
    const, *constants = sys.constants
    return const, [y for y, k in zip(ys, constants) if exists_integral_solution(sys, k)[0]]


def _x_a1_residues(sys: ResidueConstraintSystem):
    """``(residues, modulus)`` of the A_1 aggregate: for each member of
    ``sys``, the residues that complete to an integral total.  Stalls when
    x_A1 drops out of the system."""
    at = [i for i, t in enumerate(sys.unknown_terms) if t.label == "x_A1"]
    _expect(len(at) == 1, "the A_1 aggregate drops out of the residue system")
    sets = [{u for (u,) in tuples} for tuples in _completions(sys, at, sys.constants)]
    return sets, sys.unknown_terms[at[0]].modulus


def _x_a1_residues_over_s(c, cfg, r_prime, s_values, cert):
    """Intersection over s of the admissible aggregate-A_1 residues."""
    sys = residue_term_builder(c.q, c.rXc13, c.basket, [(cfg, s) for s in s_values], r_prime)
    goods, modulus = _x_a1_residues(sys)
    common = set.intersection(*goods)
    cert.mechanical(
        f"integrality for D=sA, s in {list(s_values)}, r'={r_prime} restricts the "
        f"A_1 aggregate degree to residues {sorted(common)} mod {modulus}",
        "narrowed",
        domain_size=len(s_values) * sys.domain_size,
    )
    return common, modulus


@_route
def _case_20(c, cert) -> None:
    # No forced curve configuration exists, but D = J_A * A is Cartier in
    # codimension 2, so every curve correction vanishes and the basket terms
    # alone must balance the constant -- they cannot.
    cfg = determine_curves(c)
    _expect(isinstance(cfg, Undetermined), "the curve configuration is forced, not open")
    cert.mechanical(
        f"curve configuration not forced ({cfg.reason}); using D = {c.j_a}A, "
        "Cartier in codimension 2, so curve corrections vanish",
        "determined",
    )
    _refute_at(c, _NO_CURVES, 1, c.j_a, cert)


@_route
def _case_23(c, cert) -> None:
    cfg = _forced_curves(
        c, cert, ((3, 14), (4, 14)),
        "forced curves: A_2 and A_3, each of degree 14; A_1 aggregate possible",
    )
    # r' = r_X J_A = 336: every term vanishes
    _refute_at(
        c, cfg, c.r_x * c.j_a, 1, cert,
        "r'={r_prime} makes every curve and basket term vanish, leaving the "
        "non-integral constant {constant}",
    )


@_route
def _case_36(c, cert) -> None:
    lbs = _curve_orders(c, cert, (2, 5, 7))
    # each prime power in J_A forces a curve of the matching order
    lb5, lb7 = lbs[5], lbs[7]
    d_max = _room(c, ((5, lb5), (2, 1)), 7)
    degrees = list(range(lb7, int(d_max) + 1, lb7))
    cert.mechanical(
        f"forced: one A_6 (degree a multiple of {lb7}), one A_4 (degree a multiple "
        f"of {lb5}), at least one A_1; the A_6 degree is at most {d_max} so it "
        f"equals {degrees}",
        "determined",
    )
    _expect(degrees == [lb7], "A_6 degree not pinned")
    r_prime = 120  # kills the A_4 terms (5 | 20 deg), the A_1 terms, and the basket
    cfg = CurveConfig((CrepantCurve(7, lb7),), x_A1=None)
    cert.mechanical(
        f"r'={r_prime}: A_4 and A_1 corrections vanish for every degree "
        "(their scaled degrees are multiples of 5 and 4)",
        "narrowed",
    )
    _refute_at(
        c, cfg, r_prime, 1, cert,
        "residue system (r'={r_prime}, D=A) with constant {constant} has no "
        "integral assignment over the A_6 class residues",
    )


@_route
def _case_10(c, cert) -> None:
    cfg = _forced_curves(
        c, cert, ((5, 18),),
        "forced curves: one A_4 of degree 18; at least one A_1 (the even part "
        "of J_A forces one)",
    )
    good, modulus = _x_a1_residues_over_s(c, cfg, r_prime=40, s_values=(1, 3), cert=cert)
    _expect(good == {0}, f"A_1 residues {sorted(good)} not pinned to 0")
    _refute_budget(
        c, CurveConfig(cfg.curves, x_A1=modulus), cert,
        f"x_A1 is a positive multiple of {modulus}, so x_A1 >= {modulus}",
    )


@_route
def _case_32_33(c, cert) -> None:
    lb3 = _curve_orders(c, cert, (2, 3))[3]
    cert.mechanical(
        f"both primes of J_A force a curve: at least one A_2 (total degree {lb3}y, "
        f"y >= 1, since LB(3) = {lb3}) and at least one A_1",
        "determined",
    )
    const, y_sols = _a2_degree_solutions(c, lb3, s=2, ys=range(3))
    # the least positive y in the residues, where residue 0 gives y = 3
    least = min((y or 3 for y in y_sols), default=None)
    cert.mechanical(
        f"canonical-part integrality for D=2A, r'={2 * c.r_x}: {const} - {2 * lb3}y/3 "
        f"is integral only for y = {y_sols} mod 3, so "
        + (f"y >= {least}" if least else "no y fits"),
        "narrowed",
        domain_size=3,
    )
    _expect(y_sols == [2], "y residue not pinned")
    cfg = CurveConfig((CrepantCurve(3, lb3, 1),), x_A1=None)
    good, _ = _x_a1_residues_over_s(c, cfg, r_prime=18, s_values=(1, 3, 5), cert=cert)
    _expect(not any(u % 35 for u in good), f"A_1 residues {sorted(good)} not multiples of 35")
    cert.mechanical("the A_1 aggregate degree is a positive multiple of 35", "narrowed")
    pinned = CurveConfig((CrepantCurve(3, 2 * lb3, 1),), x_A1=35)
    _refute_budget(c, pinned, cert, "x_A1 >= 35 with y >= 2")


@_route
def _case_24(c, cert) -> None:
    lbs = _curve_orders(c, cert, (2, 3, 4))
    lb3, lb4 = lbs[3], lbs[4]
    cert.mechanical(
        f"each prime power of J_A forces a curve: at least one A_2 (total degree "
        f"{lb3}*y3) and at least one A_3 (total degree {lb4}*y4)",
        "determined",
    )
    x_max = int(_room(c, ((3, lb3), (4, lb4)), 2))
    y4_max = int(_room(c, ((3, lb3),), 4, lb4))
    # y4_max >= 1 leaves the pair's demand paid, so neither cap is negative
    _expect(y4_max >= 1, "the budget cannot pay for one A_2 and one A_3 curve")
    cert.mechanical(
        f"budget bounds: x_A1 <= {x_max} and y4 <= {y4_max}", "narrowed"
    )

    # r' = 9, s odd: the A_2 term and the order-3 points drop, leaving
    # s^2/40 - 3 x/20 - 9 y4/8 - 9 a(5-a)/10, which must be integral.  x_A1
    # stays symbolic and y4 enters only the constant, so one system serves
    # every (y4, s) and gives every admissible x mod 20
    members = [
        (CurveConfig((CrepantCurve(3, lb3, 1), CrepantCurve(4, lb4 * y4, 1)), x_A1=None), s)
        for y4 in range(1, y4_max + 1)
        for s in (1, 3)
    ]
    sys = residue_term_builder(c.q, c.rXc13, c.basket, members, r_prime=9)
    goods, modulus = _x_a1_residues(sys)
    sols = {
        (x, y4)
        for y4, good1, good3 in zip(range(1, y4_max + 1), goods[::2], goods[1::2])
        for x in range(x_max + 1)
        if x % modulus in good1 & good3
    }
    cert.mechanical(
        f"integrality for D=sA, s in [1, 3], r'=9 leaves (x_A1, y4) in {sorted(sols)}",
        "narrowed",
        domain_size=2 * (x_max + 1) * y4_max * 5,
    )
    _expect(sols == {(10, 1)}, "joint residue solution not unique")
    x_a1, y4 = 10, 1
    y3_max = int(_room(c, ((2, x_a1), (4, lb4 * y4)), 3, lb3))
    cert.mechanical(f"budget then forces y3 = 1 (y3 <= {y3_max})", "narrowed")
    _expect(y3_max == 1, "y3 not pinned")

    # full h^0 formula with one A_2 and one A_3 curve of degree 5 and x_A1 = 10,
    # over every choice of residues at the basket points
    cfg = CurveConfig((CrepantCurve(3, lb3, 1), CrepantCurve(4, lb4, 1)), x_A1=x_a1)
    expected = {2: 1, 3: 1, 6: 1, 30: 4, 31: 3}
    _expect(max(expected) < c.q, f"h^0 degree {max(expected)} is not below q = {c.q}")
    computed = _h0_value_sets(c, cfg, expected)
    cert.mechanical(
        f"h^0 is pinned by integrality alone: {sorted((s, sorted(v)) for s, v in computed.items())}",
        "narrowed",
        domain_size=5 * 135,
    )
    _expect(all(v == {expected[s]} for s, v in computed.items()), "h^0 values not unique")
    cert.mechanical(
        "h^0(2A) = h^0(3A) = h^0(6A) = 1 forces a section of A (the unique cubic "
        "of the degree-2 element equals the unique square of the degree-3 element), "
        "yet h^0(31A) = 3 < 4 = h^0(30A) forces h^0(A) = 0",
        "contradiction",
    )


def _h0_value_sets(c: Candidate, cfg: CurveConfig, s_values) -> dict:
    """s -> every integral value of h^0(sA) over all residue tuples at the
    basket points, read by ``h0_integral_values`` over the ``column_sums``
    of the basket's ``orbifold_columns``."""
    numerators = column_sums(orbifold_columns(c.basket))
    minus_a2k = a2mk(c.q, c.rXc13, c.r_x)
    return {
        s: set(h0_integral_values(h0_s_part(c.q, minus_a2k, cfg, c.basket, s), c.r_x, numerators))
        - {None}
        for s in s_values
    }


@_route
def _case_27(c, cert) -> None:
    lb3 = _curve_orders(c, cert, (3,))[3]
    y_max = int(_room(c, (), 3, lb3))
    cert.mechanical(
        f"every crepant curve is an A_2; total degree {lb3}y with 1 <= y <= {y_max}",
        "determined",
    )
    const, y_sols = _a2_degree_solutions(c, lb3, s=1, ys=range(1, y_max + 1))
    cert.mechanical(
        f"canonical-part integrality for D=A: {const} - {2 * lb3}y/3 integral only "
        f"for y = {y_sols}",
        "narrowed",
        domain_size=y_max,
    )
    _expect(y_sols == [2], "y not pinned")
    cert.mechanical(
        "two cases: a single A_2 curve of degree 140, or two A_2 curves of degree "
        "70 each",
        "narrowed",
    )

    # r' = 70, s in {2, 4}: local indices at the order-3 and order-6 points
    cfg = CurveConfig((CrepantCurve(3, 2 * lb3, 1),), x_A1=0)
    sys = residue_term_builder(c.q, c.rXc13, c.basket, [(cfg, 2), (cfg, 4)], r_prime=70)
    moduli = [t.modulus for t in sys.unknown_terms]
    _expect(moduli == [3, 6], f"r'=70 leaves unknowns mod {moduli}, not [3, 6]")
    pairs2, pairs4 = _completions(sys, (0, 1), sys.constants)
    (i3_2, i6_2), (i3_4, i6_4) = (
        ({p[0] for p in pairs}, {p[1] for p in pairs}) for pairs in (pairs2, pairs4)
    )
    cert.mechanical(
        f"r'=70 integrality for D=2A, 4A: order-3 indices {sorted(i3_2)} / {sorted(i3_4)}, "
        f"order-6 indices {sorted(i6_2)} / {sorted(i6_4)}",
        "narrowed",
        domain_size=2 * 18,
    )
    _expect(
        pairs2 == set(iproduct(i3_2, i6_2)) and pairs4 == set(iproduct(i3_4, i6_4)),
        "index sets are not products",
    )

    cert.cite(
        "crepant-point-classification",
        "the candidate has no non-Gorenstein crepant point, so every exceptional "
        "divisor over a point has vanishing local indices modulo the point orders",
    )
    cert.cite(
        "weil-pullback-additivity",
        "the difference of round-down pullbacks of 4A and twice 2A is exceptional "
        "over crepant centers; its local indices are the corresponding differences",
    )
    g3 = {(a - 2 * b) % 3 for a in i3_4 for b in i3_2}
    g6 = {(a - 2 * b) % 6 for a in i6_4 for b in i6_2}
    _expect(
        0 not in g3 and 0 not in g6,
        f"difference indices {sorted(g3)} mod 3, {sorted(g6)} mod 6 allow 0",
    )
    cert.mechanical(
        f"the difference divisor has order-3 index in {sorted(g3)} and order-6 "
        f"index in {sorted(g6)}; exceptional divisors over the single-curve case "
        "need order-6 index 0 and over the two-curve case order-3 index 0 -- "
        "impossible in both cases",
        "contradiction",
        domain_size=len(i3_4) * len(i3_2) + len(i6_4) * len(i6_2),
    )


@_route
def _case_35(c, cert) -> None:
    _forced_curves(
        c, cert, ((4, 35),), "forced curves: one A_3 of degree 35; A_1 aggregate possible"
    )
    unit_curves = (CrepantCurve(4, 35, 1),)
    good, _ = _x_a1_residues_over_s(
        c, CurveConfig(unit_curves, x_A1=None), r_prime=1, s_values=(1, 3, 5), cert=cert
    )
    _expect(not any(u % 35 for u in good), f"A_1 residues {sorted(good)} not multiples of 35")
    fits, demand = _demand(c, CurveConfig(unit_curves, x_A1=35))
    _expect(not fits, "x_A1 = 35 fits the budget")
    cert.mechanical(
        f"a positive multiple of 35 would cost {demand} > {c.nabla}, so x_A1 = 0",
        "narrowed",
    )

    # parities of the four half-point indices, s in {1, 4, 5}
    cfg = CurveConfig(unit_curves, x_A1=0)
    sys = residue_term_builder(c.q, c.rXc13, c.basket, [(cfg, s) for s in (1, 4, 5)], r_prime=1)
    half = [i for i, t in enumerate(sys.unknown_terms) if t.modulus == 2]
    _expect(len(half) == 4, f"{len(half)} half-points, not four")
    p1, p4, p5 = _completions(sys, half, sys.constants)
    two_two = {t for t in iproduct((0, 1), repeat=4) if sum(t) == 2}
    all_equal = {(0, 0, 0, 0), (1, 1, 1, 1)}
    cert.mechanical(
        "half-point parities: for D=A exactly two of the four indices are odd; "
        "for D=4A and D=5A all four parities agree",
        "narrowed",
        domain_size=3 * sys.domain_size,
    )
    _expect(
        p1 == two_two and p4 <= all_equal and p5 <= all_equal,
        "parity patterns do not match",
    )
    cert.cite(
        "weil-pullback-additivity",
        "the defect divisor of pulling back 5A versus A + 4A is exceptional over "
        "finitely many crepant points",
    )
    cert.cite(
        "crepant-point-classification",
        "a crepant point met by that defect divisor has Gorenstein index 2",
    )
    cert.cite(
        "half-point-parity",
        "each component of the defect divisor has equal parities at the four "
        "half-points",
    )
    # the D=A parities are e5 - e4 - eg for all-equal patterns e5, e4, eg
    differences = {((e5 - e4 - eg) % 2,) * 4 for e5, e4, eg in iproduct((0, 1), repeat=3)}
    _expect(not differences & two_two, "parity algebra admits a consistent pattern")
    cert.mechanical(
        "the D=A parities equal the componentwise difference of three all-equal "
        "patterns, hence are all equal -- but exactly two must be odd",
        "contradiction",
        domain_size=8,
    )


_GROUP_B_SCRIPTS = (
    _case_10, _case_23, _case_24, _case_27, _case_32_33, _case_35, _case_36, _case_20
)


# ---------------------------------------------------------------------------
# Group C: closed form, residue derivation, movable set
# ---------------------------------------------------------------------------

# Every Group C candidate shares the h^0 of P(5,6,22,33): index 66, basket
# {(2,1),(3,1),(5,2),(11,2)}, r_X(-K)^3 = 330 * 66^3 / (5*6*22*33) = 4356
# and no crepant curves.
_GROUP_C_BASKET = Basket({(2, 1), (3, 1), (5, 2), (11, 2)})
_GROUP_C_A2MK = a2mk(66, 4356, _GROUP_C_BASKET.r_x)
_GROUP_C_COLUMNS = orbifold_columns(_GROUP_C_BASKET)


def _group_c_s_part(s: int) -> int:
    """The integer s-part of the shared h^0, over 2 r_X."""
    return h0_s_part(66, _GROUP_C_A2MK, _NO_CURVES, _GROUP_C_BASKET, s)


def group_c_closed_form(s: int) -> int:
    """Shared h^0(sA) of every Group C candidate, 0 < s < 66: the local
    index of sA is s at every basket point, so a point (r, b) reads its
    column at the residue s b mod r.  ``h0_s_part`` raises ValueError for
    any other s."""
    numerator = sum(col[s * b % r] for col, (r, b) in zip(_GROUP_C_COLUMNS, _GROUP_C_BASKET))
    [val] = h0_integral_values(_group_c_s_part(s), _GROUP_C_BASKET.r_x, [numerator])
    if val is None:
        raise InvariantViolation(f"closed form not integral at s={s}")
    return val


@cache  # no step here depends on the candidate
def _group_c_shared_steps():
    """The even step, the odd step and the h^0(A) residual of the Group C
    derivation: ``(even, odd, residual, steps)``, the two steps as frozen
    ``CertStep``s shared by every Group C certificate.  The even step's 330
    orbifold numerators are the ``column_sums`` of the ``orbifold_columns``,
    and the odd step's 165 differences those of per-point column differences,
    both in the order of the residue tuples.
    """
    derivation = EliminationCertificate(None)  # only its steps are kept
    residues = iproduct(*(range(r) for r in _GROUP_C_BASKET.R))
    values = h0_integral_values(
        _group_c_s_part(2), _GROUP_C_BASKET.r_x, column_sums(_GROUP_C_COLUMNS)
    )
    sols = {(y, v) for y, v in zip(residues, values) if v is not None}
    even = {r: sorted({x[k] for x, _ in sols}) for k, r in enumerate(_GROUP_C_BASKET.R)}
    h0_2a_vals = {v for _, v in sols}
    derivation.mechanical(
        f"h^0(2A) integral only for even-multiple residues {even} "
        f"(sign-symmetric pairs); its value is always {sorted(h0_2a_vals)}",
        "narrowed",
        2 * 3 * 5 * 11,
    )
    if even != {2: [0], 3: [1, 2], 5: [1, 4], 11: [4, 7]} or h0_2a_vals != {0}:
        raise InvariantViolation(f"unexpected h^0(2A) residues {even} or values {h0_2a_vals}")

    # canonical sign choice: 0, 2, 4, 4; the half-point residue stays 0.
    # h^0(A) - h^0(3A) is the difference of the s-parts minus the
    # difference of the orbifold numerators over 2 r_X: one column of
    # differences per odd-order point
    differences = [
        [col[y] - col[(y + shift) % len(col)] for y in range(len(col))]
        for col, shift in zip(_GROUP_C_COLUMNS[1:], (2, 4, 4))
    ]
    odd_residues = list(iproduct(range(3), range(5), range(11)))
    values = h0_integral_values(
        _group_c_s_part(1) - _group_c_s_part(3), _GROUP_C_BASKET.r_x, column_sums(differences)
    )
    odd_sols = {y for y, v in zip(odd_residues, values) if v is not None}
    odd = {r: sorted({y[k] for y in odd_sols}) for k, r in enumerate((3, 5, 11))}
    derivation.mechanical(
        f"h^0(A) - h^0(3A) integral only for odd-correction residues {odd}",
        "narrowed",
        3 * 5 * 11,
    )
    if odd != {3: [1], 5: [2], 11: [2]}:
        raise InvariantViolation(f"unexpected odd-correction residues {odd}")

    # h^0(A) = 0 forces x_A1/(4 r_X) + F_2(y_2) = 1/4; the residual is h^0(A)
    # at the odd residues above and residue 0 at the half-point
    numerator = sum(col[y] for col, y in zip(_GROUP_C_COLUMNS, (0, *(y for [y] in odd.values()))))
    residual = Fraction(_group_c_s_part(1) - numerator, 2 * _GROUP_C_BASKET.r_x)
    if residual != Fraction(1, 4):
        raise InvariantViolation(f"h^0(A) residual is {residual}, not 1/4")
    return even, odd, residual, tuple(derivation.steps)


def movable_thresholds(h0) -> set:
    """Degrees s <= 34 at which a divisor can avoid both low-degree
    generators: h^0 must strictly exceed both 5- and 6-step lookbacks.

    ``h0`` maps s in 1..34 to values; the empty divisor contributes
    h^0(0) = 1 and negative degrees 0.
    """
    g = {**dict.fromkeys(range(-6, 0), 0), 0: 1, **h0}
    return {0} | {s for s in range(1, 35) if g[s] > g[s - 5] and g[s] > g[s - 6]}


#: The largest q - p the leaf-degree decision tree covers.
_TREE_REACH = 10


@cache  # no step here depends on the candidate
def _leaf_degree_steps() -> tuple:
    """The candidate-free steps of the C+ route: ``(before, after)``, the
    frozen ``CertStep``s that every C+ certificate copies in before and
    after its foliation-window step.  The leaf-degree decision tree's facts
    are checked once, for every q - p up to ``_TREE_REACH``: the movable
    set of the closed-form h^0 table, its least positive degree g_floor
    against the window, no leaf degree g != 44 in [g_floor, 60) with a
    generator-free non-reduced member (a doubled degree-22 part plus a
    generator-free remainder, so g - 44 would be movable), and the g = 44
    excess degrees against the ramification degree 88 - (q - p).
    """
    movable = movable_thresholds({s: group_c_closed_form(s) for s in range(1, 35)})
    g_floor = min(m for m in movable if m > 0)
    gens = (5, 6)
    bad_g = [g for g in range(g_floor, 60) if g != 44 and g - 44 in movable]
    shapes44 = decompose(44)
    excess_degrees = _nonreduced_excesses(movable)
    if not (
        movable == {0, 22, 30, 33}
        and g_floor > _TREE_REACH
        and sum(gens) > _TREE_REACH
        and not bad_g
        and all(e % 11 == 0 for e in excess_degrees)
        and all((88 - d) % 11 for d in range(1, _TREE_REACH + 1))
    ):
        raise InvariantViolation(
            f"leaf-degree tree fails: movable set {sorted(movable)}, leaf degrees "
            f"{bad_g} with a generator-free member, g = 44 excess degrees {excess_degrees}"
        )

    tree = EliminationCertificate(None)  # only its steps are kept
    tree.mechanical(
        f"closed-form h^0 gives admissible generator-avoiding degrees {sorted(movable)}",
        "determined",
        domain_size=34,
    )
    tree.cite(
        "rank2-foliation-exists",
        "the failed 16/5 slope bound leaves a rank-2 Harder-Narasimhan piece "
        "which is an algebraically integrable foliation of positive minimal slope",
    )
    tree.cite(
        "rational-connectedness",
        "the leaf family is parameterized by the projective line, so the "
        "ramification divisor class is 2 * leaf - q + p in polarization degree",
    )
    tree.cite(
        "leaf-family-movability",
        "the pushed-forward leaf moves with no fixed component, and distinct "
        "members share no component",
    )
    # Leaf-degree decision tree: suppose the leaf degree g is at most 59.
    tree.mechanical(
        f"leaf degree g >= {g_floor} (movable set); ramification degree "
        f"2g - (q - p) forces at least two non-reduced members (g > q - p), and "
        f"two are impossible since their reduced parts cost at least "
        f"{gens[0]}+{gens[1]} = {sum(gens)} > q - p; hence at least three "
        "pairwise component-disjoint non-reduced members",
        "narrowed",
    )
    tree.mechanical(
        "for every leaf degree g <= 59 except g = 44, each non-reduced member "
        "contains one of the two generators, so three pairwise-disjoint members "
        "force g = 44",
        "narrowed",
        domain_size=60 - g_floor,
    )
    tree.mechanical(
        f"g = 44 writings over (5, 6, 22): {shapes44}; every excess degree "
        f"{excess_degrees} is a multiple of 11, yet the ramification degree "
        f"88 - (q - p) is never one -- so g >= 60",
        "narrowed",
        domain_size=len(shapes44),
    )
    tree.cite(
        "hirzebruch-bound",
        "with p > 5q/6 a general leaf maps to a Hirzebruch surface of "
        "anticanonical square 8, bounding the nef square from above",
    )
    return tuple(tree.steps[:2]), tuple(tree.steps[2:])


def decompose(n: int):
    """All multiset writings of n over the parts (5, 6, 22): the count
    tuples (a, b, c) with 5a + 6b + 22c = n, sorted."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sorted(
        (a, b, c)
        for c in range(n // 22 + 1)
        for b in range((n - 22 * c) // 6 + 1)
        for a, rest in [divmod(n - 22 * c - 6 * b, 5)]
        if rest == 0
    )


def foliation_bounds(c: Candidate, delta: Fraction) -> int:
    """Least admissible index of the rank-2 foliation's anticanonical class.

    The Kawamata-Miyaoka type slope bound c1^3 / c2.c1 <= 16/5 must
    already fail (otherwise the curve-degree excess could not reach
    ``delta``); the remaining Harder-Narasimhan shape, a rank-2 piece of
    index p, bounds c1^3 / c2.c1 by 4q^2/(-4p^2+6pq-q^2), and the slope
    ordering of the filtration confines p to (2q/3, q).  Each p is tested
    cross-multiplied in integers: with delta = n/d,
    r_Xc2c1 - r_Xc1^3 (-4p^2 + 6pq - q^2) / (4q^2) >= delta exactly when
    4q^2 (r_Xc2c1 d - n) >= r_Xc1^3 d (-4p^2 + 6pq - q^2).
    """
    q = c.q
    if not c.rXc2c1 - c.rXc13 / Fraction(16, 5) < delta:
        raise ValueError(
            "16/5 precondition fails: the candidate would satisfy the stronger "
            "slope bound and no rank-2 foliation is forced"
        )
    n, d = delta.numerator, delta.denominator
    slack = 4 * q * q * (c.rXc2c1 * d - n)
    for p in range(2 * q // 3 + 1, q):
        if slack >= c.rXc13 * d * (-4 * p * p + 6 * p * q - q * q):
            return p
    raise ValueError("no admissible foliation index below q")


def _group_c_curves(c: Candidate, cert) -> CurveConfig:
    """Replay the residue derivation that pins the Group C h^0 formula into
    ``cert``; the forced curves with the x_A1 it pins.

    Integrality of h^0(2A) fixes the even-multiple residues up to sign;
    integrality of h^0(A) - h^0(3A) fixes the odd corrections; h^0(A) = 0
    then ties the A_1 aggregate to r_X (or to 0 when no A_1 curve can
    exist because the polarization is Cartier at the half-points); when
    r_X and J_A are both even it pins neither, and the route stalls.  Only
    that last step depends on the candidate; the others are computed once.
    The derivation holds only for candidates on the Group C list; any other
    raises ValueError, and so do both Group C routes, which start here.
    """
    if c.key not in GROUP_C_KEYS:
        raise ValueError(f"candidate {c.key} is not on the Group C list")
    _, _, residual, steps = _group_c_shared_steps()
    if c.r_x % 2 == 1:
        x_a1 = c.r_x
        why = "r_X is odd, so the half-point correction is absent and x_A1 = r_X"
    elif c.j_a % 2 == 1:
        x_a1 = 0
        why = (
            "the polarization is Cartier at the half-points (odd J_A), so no A_1 "
            "curve exists and the half-point correction absorbs the 1/4"
        )
    else:
        raise _Stall("r_X and J_A are both even, so h^0(A) = 0 does not pin x_A1")
    cert.steps.extend(steps)
    cert.mechanical(
        f"h^0(A) = 0 forces x_A1/(4 r_X) + F_2(y_2) = {residual}; {why}", "determined"
    )
    return CurveConfig(_forced(c).curves, x_A1=x_a1)


@_route
def eliminate_group_c_minus(c, cert) -> None:
    cfg = _group_c_curves(c, cert)
    fits, demand = _demand(c, cfg)
    _expect(not fits, f"curve demand {demand} fits budget {c.nabla}")
    r0 = cfg.curves[0].j if cfg.curves else 1
    cert.mechanical(
        f"x_A1 = {cfg.x_A1} plus the forced curve (order r0 = {r0}) demands "
        f"{demand} > budget {c.nabla}",
        "contradiction",
    )


@_route
def eliminate_group_c_plus(c, cert) -> None:
    q = c.q
    delta = _demand(c, _group_c_curves(c, cert))[1]
    cert.mechanical(f"total crepant-curve demand delta = {delta}", "determined")
    before, after = _leaf_degree_steps()
    cert.steps.extend(before)
    try:
        p_min = foliation_bounds(c, delta)
    except ValueError as exc:
        raise _Stall(str(exc)) from None
    d_max = q - p_min
    cert.mechanical(
        f"foliation index p lies in [{p_min}, {q - 1}] (16/5 precondition checked; "
        f"q - p <= {d_max})",
        "determined",
        domain_size=q - 1 - 2 * q // 3,
    )
    # On the Group C list (every q >= 67) only d_max <= _TREE_REACH can
    # fail here: 1 <= d_max since foliation_bounds returns p < q, and for
    # q > 60, p_min >= q - 10 gives 6 p_min >= 6q - 60 > 5q.  For q >= 64,
    # p > 5q/6 gives 60 p^2 > 125 q^2 / 3 >= 2640 q = 8 * 330 q, so the
    # leaf-square check below holds too.  Both guards stay, so that the
    # contradiction steps remain sound if the list changes.
    _expect(
        1 <= d_max <= _TREE_REACH and 6 * p_min > 5 * q,
        "index window outside the decision tree's reach",
    )
    cert.steps.extend(after)
    worst = f"{60 * p_min * p_min}/{330 * q}"
    _expect(
        all(60 * p * p > 8 * 330 * q for p in range(p_min, q)),
        f"leaf square {worst} does not exceed 8",
    )
    cert.mechanical(
        f"for every feasible p the leaf square 60 p^2/(330 q) >= {worst} > 8, "
        "exceeding the Hirzebruch anticanonical square",
        "contradiction",
        domain_size=q - p_min,
    )


def _nonreduced_excesses(movable) -> list:
    """The possible excess degrees, sorted, of a non-reduced member of leaf
    degree 44.

    A non-reduced member contains a doubled prime divisor of degree 5, 6 or
    22: either twice a degree-22 member (excess 22), or generators with
    multiplicity whose remainder is movable (the empty remainder of degree
    0 included).  The excess is the degree beyond the reduced part of each
    present generator component; the reduced remainder stays.
    """
    return sorted({22} | {
        5 * max(a - 1, 0) + 6 * max(b - 1, 0)
        for a, b in iproduct(range(9), range(8))
        if max(a, b) >= 2 and 44 - 5 * a - 6 * b in movable
    })


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

class PipelineReport(NamedTuple):
    total: int
    eliminated: int
    survivors: list
    verdicts: list  # (case_id, Verdict), ordered by case id
    mechanical_steps: int
    cited_steps: int


def eliminate_candidate(case_id: int, c: Candidate) -> Verdict:
    """The routes in their fixed order (the module docstring); ``case_id``
    only labels the certificate."""
    if c.key in GROUP_C_KEYS:
        routes = (eliminate_group_c_minus, eliminate_group_c_plus)
    else:
        routes = (eliminate_group_a, run_group_b_script)
    return _first_contradiction(route(case_id, c) for route in routes)


def run_full_pipeline(workers: int = 1) -> PipelineReport:
    """Search above the threshold, route every candidate to its eliminator,
    and aggregate the certificates in case-id order."""
    from .search import run_search

    found = {c.key: c for c in run_search(66, "greater", workers)}
    nos = {r.key: r.no for r in TABLE_MAIN}
    if found.keys() != nos.keys():
        raise InvariantViolation(
            f"search and frozen table differ: only the search has {sorted(found.keys() - nos.keys())}, "
            f"only the table has {sorted(nos.keys() - found.keys())}"
        )
    verdicts = sorted((nos[key], eliminate_candidate(nos[key], c)) for key, c in found.items())
    survivors = [no for no, v in verdicts if not v.eliminated]
    counts = [v.certificate.kind_counts() for _, v in verdicts]
    return PipelineReport(
        total=len(verdicts),
        eliminated=len(verdicts) - len(survivors),
        survivors=survivors,
        verdicts=verdicts,
        mechanical_steps=sum(n[MECHANICAL] for n in counts),
        cited_steps=sum(n[CITED_LEMMA] for n in counts),
    )
