from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
import sympy

from fano3.eliminate import eliminate_candidate
from fano3.wps import WeightedP3, anticanonical_degree, anticanonical_volume, h0


def test_h0_small_cases():
    straight = WeightedP3((1, 1, 1, 1))
    # ordinary P^3: binomial(s+3, 3)
    for s in range(12):
        assert h0(straight, s) == (s + 1) * (s + 2) * (s + 3) // 6


def test_h0_matches_sympy_series_oracle():
    # generating function 1 / prod(1 - t^w), coefficients to degree 200
    # as the product of the geometric series 1/(1 - t^w), each truncated
    # past degree 200
    w = WeightedP3((5, 6, 22, 33))
    t = sympy.symbols("t")
    poly = sympy.Poly(1, t)
    for weight in w.weights:
        poly *= sympy.Poly(sum(t ** (k * weight) for k in range(200 // weight + 1)), t)
    for s in range(201):
        assert h0(w, s) == int(poly.coeff_monomial(t**s)), s


def test_degree_and_volume():
    w = WeightedP3((5, 6, 22, 33))
    assert anticanonical_degree(w) == 66
    assert anticanonical_volume(w) == Fraction(66**3, 5 * 6 * 22 * 33)


def test_validation_and_warning():
    with pytest.raises(ValueError):
        WeightedP3((1, 2, 3))
    with pytest.raises(ValueError):
        WeightedP3((0, 1, 1, 1))
    with pytest.warns(UserWarning, match="well-formed") as caught:
        WeightedP3((2, 2, 2, 3))
    # the warning blames the line that built the space, not its caller's caller
    assert [w.filename for w in caught] == [__file__]


def test_h0_negative_degree_rejected():
    with pytest.raises(ValueError):
        h0(WeightedP3((1, 1, 1, 1)), -1)


def reid_tai_canonical(weights) -> bool:
    """Each vertex chart 1/a_i(a_j, a_k, a_l) passes Reid-Tai:
    sum_j {k a_j / a_i} >= 1 for k = 1..a_i - 1."""
    return all(
        sum(k * a % ai for j, a in enumerate(weights) if j != i) >= ai
        for i, ai in enumerate(weights)
        for k in range(1, ai)
    )


def canonical_weighted_p3(h_min: int, h_max: int) -> list:
    """Every well-formed P(a_0, ..., a_3), a_0 <= ... <= a_3, with
    h_min <= sum a_i < h_max that is canonical by ``reid_tai_canonical``."""
    found = []
    for a0 in range(1, h_max // 4 + 1):
        for a1 in range(a0, (h_max - a0) // 3 + 1):
            for a2 in range(a1, (h_max - a0 - a1) // 2 + 1):
                for a3 in range(max(a2, h_min - a0 - a1 - a2), h_max - a0 - a1 - a2):
                    w = (a0, a1, a2, a3)
                    if all(gcd(*t) == 1 for t in combinations(w, 3)) and reid_tai_canonical(w):
                        found.append(WeightedP3(w))
    return found


def test_reid_tai_examples():
    assert reid_tai_canonical((1, 1, 1, 1)) and reid_tai_canonical((5, 6, 22, 33))
    # 1/2(1, 1, 1) is terminal, 1/3(1, 1, 1) canonical, 1/5(1, 1, 1) not
    assert reid_tai_canonical((1, 1, 1, 2)) and reid_tai_canonical((1, 1, 1, 3))
    assert not reid_tai_canonical((1, 1, 1, 5))


def test_canonical_weighted_p3_stand(candidates_q6):
    """Negative controls: the 102 canonical well-formed weighted P^3 with
    6 <= q < 80 exist, none has q > 66, and for each some candidate of the
    whole search with the same (q, (-K)^3) is left standing by every route."""
    spaces = canonical_weighted_p3(6, 80)
    assert len(spaces) == 102
    assert max(anticanonical_degree(w) for w in spaces) == 66
    by_key = {}
    for c in candidates_q6:
        by_key.setdefault((c.q, Fraction(c.rXc13, c.r_x)), []).append(c)
    keys = {(anticanonical_degree(w), anticanonical_volume(w)) for w in spaces}
    assert len(keys) == 101
    killed = [
        key for key in sorted(keys)
        if all(eliminate_candidate(-1, c).eliminated for c in by_key.get(key, []))
    ]
    assert killed == []
