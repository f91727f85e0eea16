import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from fano3.arith import InvariantViolation, sigma_numerator, sigma_pair
from fano3.basket import Basket
from fano3.eliminate import _h0_value_sets, candidate_for_case, determine_curves
from fano3.lb import LBContext, lb
from fano3.rr import (
    CrepantCurve,
    CurveConfig,
    UnknownTerm,
    a2mk,
    column_sums,
    curve_cost,
    curve_degrees,
    demand_units,
    h0_integral_values,
    h0_s_part,
    nabla,
    nabla_units,
    orbifold_columns,
    residue_term_builder,
    within_budget,
)

from fano3.tables import TABLE_MAIN

from oracles import c_curve, c_orbifold, h0_fraction, h0_s_part_fraction, nabla_fraction


def test_c_orbifold_periodicity():
    # c_Q(D) shifts by an integer over a period: the residue part repeats
    for r in range(2, 25):
        for b in range(1, r // 2 + 1):
            try:
                c_orbifold(r, b, 0)
            except ValueError:
                continue
            for i in range(r):
                diff = c_orbifold(r, b, i + r) - c_orbifold(r, b, i)
                assert diff.denominator == 1, (r, b, i)


def test_c_orbifold_values():
    assert c_orbifold(2, 1, 0) == 0
    assert c_orbifold(2, 1, 1) == Fraction(-1, 8) + Fraction(0)
    with pytest.raises(ValueError):
        c_orbifold(4, 2, 1)


def test_c_curve():
    assert c_curve(3, 1, 3) == 0
    assert c_curve(3, 1, 1) == -Fraction(1, 3)
    assert c_curve(4, 3, 2) == c_curve(4, 1, 2)
    with pytest.raises(ValueError):
        c_curve(4, 2, 1)


def test_h0_s_part_matches_term_by_term_sum():
    # oracle: every correction added as its own Fraction
    rng = random.Random(5522)
    baskets = [
        Basket([(2, 1), (3, 1), (5, 2), (11, 2)]),
        Basket([(4, 1), (7, 3), (7, 2)]),
        Basket([(8, 3), (9, 4)]),
    ]
    for _ in range(300):
        B = rng.choice(baskets)
        r_x = lcm(*B.R)
        curves = []
        for j in rng.sample(range(3, 9), rng.randint(0, 2)):
            unit = rng.choice([u for u in range(1, j) if gcd(u, j) == 1])
            curves.append(CrepantCurve(j, rng.randint(1, 40), unit))
        cfg = CurveConfig(tuple(curves), x_A1=rng.randint(0, 20))
        idx = tuple(rng.randrange(3 * r) for r in B.R)
        q, s = 70, rng.randint(1, 69)
        a2mk_value = Fraction(rng.randint(1, 500), r_x * q * q)
        expected = Fraction(s * s, 2) * a2mk_value + 2
        for c in curves:
            expected += Fraction(c.degree_rXKC, r_x) * c_curve(c.j, c.generator_unit, s)
        expected += Fraction(cfg.x_A1, r_x) * c_curve(2, 1, s)
        for i, (r, b) in zip(idx, B):
            expected -= sigma_pair(i * b, r)
        # the integer s-part minus the orbifold columns read at the residues
        # i b mod r, both over 2 r_X; no s-part when 2 r_X times it is not
        # an integer
        part = h0_s_part(q, a2mk_value, cfg, B, s)
        numerator = sum(col[i * b % r] for col, i, (r, b) in zip(orbifold_columns(B), idx, B))
        if part is not None:
            assert Fraction(part - numerator, 2 * r_x) == expected
        want = expected.numerator if expected.denominator == 1 else None
        assert h0_integral_values(part, r_x, [numerator]) == [want]


def test_integer_s_part_matches_fraction_oracle():
    """On every table row, with no curves and with the forced curves at
    every unit, x_A1 in {0, 1, r_X}: 2 r_X times the Fraction s-part, or
    None where that is not an integer, for s in 1..65."""
    checked = 0
    for r in TABLE_MAIN:
        c = candidate_for_case(r.no)
        minus_a2k = a2mk(c.q, c.rXc13, c.r_x)
        for cfg, s in product(_table_row_configs(c), range(1, 66)):
            top = 2 * c.r_x * h0_s_part_fraction(c.q, minus_a2k, cfg, c.basket, s)
            want = top.numerator if top.denominator == 1 else None
            assert h0_s_part(c.q, minus_a2k, cfg, c.basket, s) == want, (r.no, cfg, s)
            checked += want is not None
    assert checked > 0
    # integral inputs whose common denominator lcm(d, 2, j) exceeds the
    # denominator d of -A^2.K, which no table row has: d odd and dividing
    # s^2 r_X, curve degrees multiples of j, x_A1 even
    rng = random.Random(3301)
    B = Basket([(3, 1), (5, 2)])
    for _ in range(200):
        s = rng.randint(1, 69)
        d = rng.choice([k for k in range(1, 100, 2) if s * s * B.r_x % k == 0])
        curves = []
        for j in rng.sample(range(3, 9), rng.randint(0, 2)):
            unit = rng.choice([u for u in range(1, j) if gcd(u, j) == 1])
            curves.append(CrepantCurve(j, j * rng.randint(1, 9), unit))
        cfg = CurveConfig(tuple(curves), x_A1=2 * rng.randint(0, 9))
        minus_a2k = Fraction(rng.randint(1, 500) * d + 1, d)
        top = 2 * B.r_x * h0_s_part_fraction(70, minus_a2k, cfg, B, s)
        assert top.denominator == 1
        assert h0_s_part(70, minus_a2k, cfg, B, s) == top.numerator, (cfg, s, minus_a2k)



def _table_row_configs(c):
    """No curves and the forced curve orders at every unit (degree 7j),
    each with x_A1 in {0, 1, r_X}."""
    forced = determine_curves(c)
    orders = [cc.j for cc in getattr(forced, "curves", ())]
    configs = [CurveConfig((), x_A1=x) for x in (0, 1, c.r_x)]
    for units in product(*([u for u in range(1, j) if gcd(u, j) == 1] for j in orders)):
        curves = tuple(CrepantCurve(j, 7 * j, u) for j, u in zip(orders, units))
        configs += [CurveConfig(curves, x_A1=x) for x in (0, 1, c.r_x)]
    return configs


def test_residue_system_constant_is_r_prime_times_h0_minus_2():
    """A residue system at auxiliary index r' with its curve terms kept is
    r' (h^0(sA) - 2) with the residues left open: its constant is r' times
    the Fraction s-part less 2, on every table row."""
    checked = 0
    for r in TABLE_MAIN:
        c = candidate_for_case(r.no)
        minus_a2k = a2mk(c.q, c.rXc13, c.r_x)
        for cfg, r_prime, s in product(_table_row_configs(c), (1, 2, 9, 2 * c.r_x), (1, 2, 3, 5)):
            sys = residue_term_builder(c.q, c.rXc13, c.basket, [(cfg, s)], r_prime, drop_curve_terms=False)
            want = r_prime * (h0_s_part_fraction(c.q, minus_a2k, cfg, c.basket, s) - 2)
            assert sys.constants[0] == want, (r.no, cfg, r_prime, s)
            checked += 1
    assert checked == 11136  # 696 configurations x 4 r' x 4 s


def _random_basket(rng):
    while True:
        points = []
        for _ in range(rng.randint(1, 4)):
            r = rng.randint(2, 13)
            points.append((r, rng.choice([b for b in range(1, r // 2 + 1) if gcd(b, r) == 1])))
        try:
            return Basket(points)
        except ValueError:  # over the admissibility budget
            continue


def test_column_sums_match_per_tuple_numerators():
    rng = random.Random(6606)
    for _ in range(60):
        B = _random_basket(rng)
        r_x = lcm(*B.R)
        cols = orbifold_columns(B)
        assert [len(col) for col in cols] == list(B.R)
        residues = list(product(*(range(r) for r in B.R)))
        # against the terms written out one point at a time, by residue
        assert column_sums(cols) == [
            sum(sigma_numerator(y, r) * (r_x // r) for y, r in zip(ys, B.R)) for ys in residues
        ]
    # the columns read R and r_X, not b
    assert orbifold_columns(Basket([(5, 1), (7, 1)])) == orbifold_columns(Basket([(5, 2), (7, 3)]))
    assert column_sums([]) == [0]


def test_case_24_integer_h0_table_matches_h0_s_part():
    c = candidate_for_case(24)
    ctx = LBContext(c.basket.R)
    cfg = CurveConfig((CrepantCurve(3, lb(ctx, 3), 1), CrepantCurve(4, lb(ctx, 4), 1)), x_A1=10)
    minus_a2k = a2mk(c.q, c.rXc13, c.r_x)
    local = list(product(*(range(r) for r in c.basket.R)))
    assert len(local) == 135
    s_values = (2, 3, 6, 30, 31)
    tables = _h0_value_sets(c, cfg, s_values)
    for s in s_values:
        values = (h0_fraction(c.q, minus_a2k, cfg, c.basket, idx, s) for idx in local)
        assert tables[s] == {int(v) for v in values if v.denominator == 1}, s


def test_nabla():
    # budget formula against a hand evaluation
    assert nabla(66, 198, 162) == Fraction(162) - Fraction(66**2 + 2 * 66 - 4, 4 * 66**2) * 198
    with pytest.raises(ValueError, match="q must be positive"):
        nabla(0, 1, 1)


def test_nabla_matches_three_fraction_formula(candidates_equal, candidates_q40):
    """The Fraction built from the integer numerator, on every table row and
    every candidate of the q_min 66 and 40 searches."""
    rows = [candidate_for_case(n) for n in range(1, 37)]
    for c in rows + candidates_equal + candidates_q40:
        want = nabla_fraction(c.q, c.rXc13, c.rXc2c1)
        assert nabla(c.q, c.rXc13, c.rXc2c1) == want == c.nabla, c
        assert nabla_units(c.q, c.rXc13, c.rXc2c1) == want * 4 * c.q * c.q, c


def test_budget_kernel_matches_fractions():
    """demand_units is 4q^2 times the Fraction curve_cost sum for orders
    dividing 4q^2, and within_budget is the Fraction comparison."""
    rng = random.Random(4096)
    for _ in range(3000):
        q = rng.randint(1, 400)
        orders = [2, 4] + [j for j in range(2, q + 1) if q % j == 0]
        pairs = [(rng.choice(orders), rng.randint(0, 300)) for _ in range(rng.randint(0, 4))]
        units = demand_units(q, [j for j, _ in pairs], [d for _, d in pairs])
        demand = sum((curve_cost(j, d) for j, d in pairs), Fraction(0))
        assert units == demand * 4 * q * q, (q, pairs)
        shift = Fraction(rng.randint(-9, 9), rng.randint(1, 50))
        for nab in (demand, demand - Fraction(1, 4 * q * q), demand + shift):
            assert within_budget(nab, q, units) == (demand <= nab), (q, pairs, nab)


def test_unknown_term_values():
    t = UnknownTerm(Fraction(-6), 3, "quadratic", "demo")
    assert t.value(0) == 0
    assert t.value(1) == -6 * Fraction(2, 6)
    lin = UnknownTerm(Fraction(-5, 9), 9, "linear", "x_A1")
    assert lin.value(3) == Fraction(-5, 3)


def test_s_part_needs_s_strictly_between_0_and_q():
    c = candidate_for_case(1)
    args = (c.q, a2mk(c.q, c.rXc13, c.r_x), CurveConfig(), c.basket)
    for s in (0, c.q):
        with pytest.raises(ValueError, match="0 < s < q"):
            h0_s_part(*args, s)
    for s in (1, c.q - 1):
        h0_s_part(*args, s)


def test_s_part_needs_concrete_units_and_x_a1():
    """A curve of unknown generator unit, or an open A_1 aggregate, leaves
    the s-part undetermined."""
    c = candidate_for_case(1)
    minus_a2k = a2mk(c.q, c.rXc13, c.r_x)
    for cfg in (CurveConfig((CrepantCurve(7, 5),), x_A1=0), CurveConfig((), x_A1=None)):
        with pytest.raises(ValueError, match="concrete"):
            h0_s_part(c.q, minus_a2k, cfg, c.basket, 1)
    h0_s_part(c.q, minus_a2k, CurveConfig((CrepantCurve(7, 5, 1),), x_A1=0), c.basket, 1)


def test_curve_config_rejects_low_j():
    with pytest.raises(ValueError):
        CurveConfig((CrepantCurve(2, 5),))


def test_curve_degrees():
    cfg = CurveConfig((CrepantCurve(5, 33),), x_A1=33)
    assert curve_degrees(cfg) == ((2, 5), (33, 33))
    assert demand_units(70, *curve_degrees(cfg)) == (Fraction(3, 2) + Fraction(24, 5)) * 33 * 4 * 70 * 70
    with pytest.raises(ValueError):
        curve_degrees(CurveConfig((), x_A1=None))


def test_builder_drops_and_keeps():
    basket = Basket([(2, 1), (2, 1), (3, 1), (9, 4)])
    cfg = CurveConfig((CrepantCurve(5, 18),), x_A1=None)
    sys = residue_term_builder(70, 980, basket, [(cfg, 1)], r_prime=40)
    labels = [t.label for t in sys.unknown_terms]
    # A_4 curve drops (5 | 40 * 18 / 18 is false; 40*18/18=40, 5|40), the
    # half points drop (4 | 40), the (9,4) point and x_A1 stay
    assert "x_A1" in labels
    assert any(lab.startswith("point (9") for lab in labels)
    assert not any(lab.startswith("point (2") for lab in labels)
    assert not any(lab.startswith("A_4") for lab in labels)


def test_builder_keep_curve_terms_flag():
    basket = Basket([(2, 1), (2, 1), (3, 1), (9, 4)])
    cfg = CurveConfig((CrepantCurve(5, 18),), x_A1=None)
    kept = residue_term_builder(70, 980, basket, [(cfg, 1)], r_prime=40, drop_curve_terms=False)
    assert any(t.label.startswith("A_4") for t in kept.unknown_terms)


def test_builder_cartier_codim2():
    # Cartier in codimension 2: no curve corrections, only the basket terms
    basket = Basket([(2, 1), (3, 1)])
    cfg = CurveConfig((), x_A1=0)
    sys = residue_term_builder(66, 66, basket, [(cfg, 6)], r_prime=1)
    assert sys.constants == (Fraction(1 * 36 * 66, 2 * 6 * 66 * 66),)
    assert [t.label for t in sys.unknown_terms] == ["point (2,1)", "point (3,1)"]


def test_builder_even_multiple_drops_a1():
    basket = Basket([(2, 1)])
    cfg = CurveConfig((), x_A1=None)
    sys = residue_term_builder(66, 66, basket, [(cfg, 2)], r_prime=3)
    assert all(t.label != "x_A1" for t in sys.unknown_terms)
    assert sys.constants == (Fraction(3 * 4 * 66, 2 * 2 * 66 * 66),)
    # an odd multiple keeps it: (3/2) c_curve(2, 1, 1) = -3/8
    odd = residue_term_builder(66, 66, basket, [(cfg, 1)], r_prime=3)
    assert (odd.unknown_terms[0].label, odd.unknown_terms[0].coeff) == ("x_A1", Fraction(-3, 8))
    # a known x_A1 joins the constant, and x_A1 = 0 (no A_1 curves) adds nothing
    members = [(CurveConfig((), x_A1=x), 1) for x in (0, 5)]
    none, five = residue_term_builder(66, 66, basket, members, r_prime=3).constants
    assert five - none == Fraction(-15, 8)


def test_builder_family_rejects_differing_unknowns():
    """Members share the first member's unknown terms; an odd and an even
    multiple of A differ in the A_1 aggregate, so they cannot share."""
    basket = Basket([(2, 1)])
    cfg = CurveConfig((), x_A1=None)
    with pytest.raises(InvariantViolation):
        residue_term_builder(66, 66, basket, [(cfg, 1), (cfg, 2)], r_prime=3)
    # curves with an unknown unit are unknowns, so their degree must agree too
    members = [(CurveConfig((CrepantCurve(5, d),), x_A1=0), 1) for d in (1, 2)]
    with pytest.raises(InvariantViolation):
        residue_term_builder(66, 66, basket, members, r_prime=1)
    # fixed curve terms only move the constant
    members = [(CurveConfig((CrepantCurve(5, d, 1),), x_A1=0), 1) for d in (1, 2)]
    sys = residue_term_builder(66, 66, basket, members, r_prime=1)
    assert len(sys.constants) == 2 and sys.constants[0] != sys.constants[1]
