from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest

from fano3.basket import (
    BUDGET,
    Basket,
    enumerate_R_c2c1,
    enumerate_baskets,
    _index_points,
    orbifold_column,
    reach,
    rX_c2c1,
    rr_fano_integral,
)

from fano3.arith import sigma_pair

from oracles import admissible_R, baskets_brute_force


def test_basket_point_validation():
    assert Basket([(5, 2)]).points == ((5, 2),)
    with pytest.raises(ValueError, match="r >= 2"):
        Basket([(1, 1)])
    with pytest.raises(ValueError, match="gcd"):
        Basket([(4, 2)])
    with pytest.raises(ValueError, match="b <= r/2"):
        Basket([(5, 3)])
    with pytest.raises(ValueError, match="b <= r/2"):
        Basket([(5, 0)])


def test_basket_sorts_points_and_carries_R_and_r_x():
    B = Basket([(11, 1), (5, 2), (3, 1), (2, 1)])
    assert B.points == ((2, 1), (3, 1), (5, 2), (11, 1))
    assert B.R == (2, 3, 5, 11)
    assert B.r_x == 330
    assert str(B) == "{(2,1),(3,1),(5,2),(11,1)}"
    assert B == Basket(B.points) and hash(B) == hash(Basket(B.points))
    assert Basket([[5, 2], [2, 1]]) == Basket([(2, 1), (5, 2)])  # pairs become tuples
    assert Basket([]).r_x == 1 and Basket([]).R == ()
    assert Basket([(5, 1), (5, 2)]).r_x == 5


def test_rX_c2c1_values():
    assert rX_c2c1((5,)) == 96
    assert rX_c2c1((3, 3)) == 56
    assert rX_c2c1(()) == 24
    with pytest.raises(ValueError):
        rX_c2c1((16, 9))


def test_rX_c2c1_always_positive_integer():
    for R, _ in enumerate_R_c2c1():
        v = rX_c2c1(R)
        assert isinstance(v, int) and v > 0


def test_enumerate_R_membership():
    everything = {R for R, _ in enumerate_R_c2c1()}
    assert (24,) in everything
    assert (8, 16) in everything  # 7.875 + 15.9375 < 24
    assert (9, 16) not in everything
    assert () in everything


def test_enumerate_R_canonical_and_admissible():
    budget = dict(admissible_R())
    seen = set()
    max_len = 0
    for R, _ in enumerate_R_c2c1():
        assert R == tuple(sorted(R))
        assert R not in seen
        seen.add(R)
        assert budget[R] < BUDGET
        assert all(2 <= r <= 24 for r in R)
        max_len = max(max_len, len(R))
    assert max_len <= 15


def test_enumerate_baskets():
    five = sorted(b.points for b in enumerate_baskets((5,)))
    assert five == [((5, 1),), ((5, 2),)]
    assert [b.points for b in enumerate_baskets((2,))] == [((2, 1),)]
    assert [b.points for b in enumerate_baskets((4, 4))] == [((4, 1), (4, 1))]
    # multiset dedup: {(5,1),(5,2)} appears once
    pairs = sorted(b.points for b in enumerate_baskets((5, 5)))
    assert pairs == [
        (((5, 1), (5, 1))),
        (((5, 1), (5, 2))),
        (((5, 2), (5, 2))),
    ]
    # the order of R does not change the order the baskets come in
    assert list(enumerate_baskets((7, 5))) == list(enumerate_baskets((5, 7)))



def test_orbifold_column_is_twice_r_x_sigma_pair():
    for r in range(2, 25):
        for r_x in (r, 2 * r, 3 * r, 60 * r):
            assert orbifold_column(r, r_x) == [2 * r_x * sigma_pair(y, r) for y in range(r)]


def test_baskets_and_reach_match_brute_force():
    """For every admissible R, ``enumerate_baskets`` lists exactly the
    brute-force baskets, and ``reach`` exactly their classes
    2 r_X sum sigma_pair(b, r) mod 2 r_X, summed in Fractions."""
    for R, _ in enumerate_R_c2c1():
        brute = baskets_brute_force(R)
        assert sorted(b.points for b in enumerate_baskets(R)) == [b.points for b in brute], R
        r_x = lcm(*R)
        classes = {
            int(2 * r_x * sum((sigma_pair(b, r) for r, b in basket), Fraction(0))) % (2 * r_x)
            for basket in brute
        }
        assert reach(R) == (r_x, classes), R


def test_index_points_table():
    """``_index_points(r)`` holds the points (r, b), 0 < b <= r/2 and b
    coprime to r, in increasing b, each with its class 2r sigma_pair(b, r)
    mod 2r, summed in Fractions."""
    for r in range(2, 25):
        points, keys = _index_points(r)
        assert points == tuple((r, b) for b in range(1, r + 1) if 2 * b <= r and gcd(b, r) == 1), r
        assert keys == tuple(int(2 * r * sigma_pair(b, r)) % (2 * r) for _, b in points), r


def _sumset_reach(R) -> set:
    """The offsets mod 2 r_X of every basket over R, as the sumset over
    R's groups of the brute-force classes of m points of index r: each
    multiset of m values b, coprime to r with 0 < b <= r/2, gives
    2 r_X sum sigma_pair(b, r) mod 2 r_X, summed in Fractions."""
    r_x = lcm(*R)
    reach = {0}
    for r in dict.fromkeys(R):
        choices = [b for b in range(1, r // 2 + 1) if gcd(b, r) == 1]
        keys = {
            int(2 * r_x * sum((sigma_pair(b, r) for b in bs), Fraction(0))) % (2 * r_x)
            for bs in combinations_with_replacement(choices, R.count(r))
        }
        reach = {(s + k) % (2 * r_x) for s in reach for k in keys}
    return reach


def test_prefix_reach_matches_point_class_sumset():
    """``reach`` builds each R from its prefix, lifted to the new r_X, plus
    one point; its offsets equal the brute-force sumset over R's groups
    for every admissible R, in enumeration order (prefixes cached) and in
    reverse order with a cleared cache (prefixes rebuilt)."""
    expected = {R: _sumset_reach(R) for R, _ in enumerate_R_c2c1()}
    every_R = list(expected)
    reach.cache_clear()
    for order in (every_R, every_R[::-1]):
        for R in order:
            assert reach(R)[1] == expected[R], R
        reach.cache_clear()


def test_reach_offsets_share_the_all_ones_class():
    """Every offset in ``reach(R)`` is congruent mod gcd(6, 2 r_X) to
    sum (r - 1) r_X/r, the offset of the basket whose points all have
    b = 1.  For every point (r, b), b(r - b) = r - 1 mod 2 (both odd for
    even r, both even for odd r), and mod 3 when 3 | r (both are 2, as b
    is prime to 3); when 3 divides r_X but not r, r_X/r is a multiple of 3."""
    for R, _ in enumerate_R_c2c1():
        r_x, offsets = reach(R)
        modulus = gcd(6, 2 * r_x)
        ones = sum((r - 1) * (r_x // r) for r in R)
        assert {offset % modulus for offset in offsets} == {ones % modulus}, R


def test_basket_budget_enforced():
    with pytest.raises(ValueError):
        Basket([(16, 1), (9, 1)])


def test_rr_fano_integral():
    assert rr_fano_integral(Basket([(5, 1)]), Fraction(84, 5))
    assert rr_fano_integral(Basket([]), 2)
    assert not rr_fano_integral(Basket([(5, 1)]), Fraction(83, 5))


def test_integer_budget_matches_fractions():
    """enumerate_R_c2c1 and rX_c2c1 count the budget in integers; the
    reference sums r - 1/r in Fractions."""
    reference = [(R, lcm(*R) * (BUDGET - used)) for R, used in admissible_R()]
    assert list(enumerate_R_c2c1()) == reference
    for R, c2c1 in reference:
        assert rX_c2c1(R) == c2c1
