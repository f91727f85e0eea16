from math import gcd

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from fano3.duval import (
    DuValType,
    WeilClass,
    cartan_matrix,
    class_group,
    class_representatives,
    has_integral_multiplicity,
    invariants,
    smith_normal_form,
)


ALL_TYPES = (
    [DuValType("A", n) for n in range(1, 25)]
    + [DuValType("D", m) for m in range(4, 25)]
    + [DuValType("E", n) for n in (6, 7, 8)]
)


def test_invariants_table():
    assert invariants(DuValType.parse("A10")) == (11, 11, 11, 11)
    assert invariants(DuValType.parse("D5")) == (6, 5, 12, 4)
    assert invariants(DuValType.parse("E7")) == (8, 7, 48, 2)
    assert invariants(DuValType.parse("E6")) == (7, 6, 24, 3)
    assert invariants(DuValType.parse("E8")) == (9, 8, 120, 1)


def test_bad_types_rejected():
    with pytest.raises(ValueError):
        DuValType("A", 0)
    with pytest.raises(ValueError):
        DuValType("D", 3)
    with pytest.raises(ValueError):
        DuValType("E", 9)
    with pytest.raises(ValueError):
        DuValType.parse("F4")


def test_cartan_small():
    assert cartan_matrix(DuValType("A", 1)) == [[-2]]
    assert cartan_matrix(DuValType("A", 2)) == [[-2, 1], [1, -2]]
    d4 = cartan_matrix(DuValType("D", 4))
    degrees = sorted(sum(1 for x in row if x == 1) for row in d4)
    assert degrees == [1, 1, 1, 3]


def test_cartan_determinant_a_series():
    for n in range(1, 15):
        det = sympy.Matrix(cartan_matrix(DuValType("A", n))).det()
        assert det == (-1) ** n * (n + 1)


def test_snf_matches_sympy_oracle():
    for t in ALL_TYPES:
        mine, u = smith_normal_form(cartan_matrix(t))
        assert abs(sympy.Matrix(u).det()) == 1, t
        oracle = sympy_snf(sympy.Matrix(cartan_matrix(t)))
        oracle_diag = [abs(oracle[i, i]) for i in range(oracle.rows)]
        assert mine == oracle_diag, f"SNF mismatch for {t}"


def test_class_group_order_equals_j():
    for t in ALL_TYPES:
        order = 1
        for d in class_group(t):
            order *= d
        assert order == invariants(t)[3], f"class group order mismatch for {t}"


def test_class_group_shapes():
    assert class_group(DuValType("A", 3)) == [4]
    assert class_group(DuValType("D", 4)) == [2, 2]
    assert class_group(DuValType("D", 5)) == [4]
    assert class_group(DuValType("E", 8)) == []


def test_modifiability_dichotomy_a_series():
    # unmodifiable classes of A_n are exactly the primitive ones
    for n in range(1, 25):
        t = DuValType("A", n)
        for k in range(n + 1):
            c = WeilClass((k,) + (0,) * (n - 1))
            expected = not (k > 0 and gcd(k, n + 1) == 1)
            assert has_integral_multiplicity(t, c) == expected, (n, k)


def test_modifiability_non_a_types():
    # every class of a D/E type admits an integral multiplicity
    for t in [DuValType("D", m) for m in range(4, 15)] + [
        DuValType("E", n) for n in (6, 7, 8)
    ]:
        for c in class_representatives(t):
            assert has_integral_multiplicity(t, c), (t, c)


def test_class_representatives_count():
    for t in (DuValType("A", 6), DuValType("D", 7), DuValType("E", 6)):
        assert len(class_representatives(t)) == invariants(t)[3]
