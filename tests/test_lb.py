import random
from math import gcd, lcm

import pytest

from fano3.basket import enumerate_R_c2c1
from fano3.lb import SMALL_PRIMES, LBContext, f_p, lb, lb_of
from fano3.tables import TABLE_MAIN

from oracles import admissible_R

#: every sorted R with sum(r - 1/r) < 24, summed in Fractions
ADMISSIBLE = {R for R, _ in admissible_R()}


def test_n_counts_exact_valuations():
    # n(p, e) counts the r in R that p^e divides and p^(e+1) does not
    for R, _ in enumerate_R_c2c1():
        ctx = LBContext(R)
        for p in SMALL_PRIMES:
            for e in range(1, 6):
                expected = sum(1 for r in R if r % p**e == 0 and r % p ** (e + 1))
                assert ctx.n(p, e) == expected, (R, p, e)


def test_context_rejects_indices_below_two():
    with pytest.raises(ValueError):
        LBContext((0, 3))
    with pytest.raises(ValueError):
        LBContext((1,))


def test_context_rejects_indices_above_24():
    # r - 1/r < 24 fails at r = 25, and SMALL_PRIMES stop at 23
    with pytest.raises(ValueError):
        LBContext((29,))
    with pytest.raises(ValueError):
        LBContext((2, 25))


def test_context_rejects_inadmissible_R():
    # sum(r - 1/r) >= 24: 478/15 for (12, 20), 575/8 for (24, 24, 24)
    with pytest.raises(ValueError):
        LBContext((12, 20))
    with pytest.raises(ValueError):
        LBContext((24, 24, 24))
    # lb_of's fast paths, LB(2) = 1 and LB(N) = LB(17) for N >= 17, still
    # check R and N
    for R, N in (((12, 20), 2), ((12, 20), 29), ((5,), 1)):
        with pytest.raises(ValueError):
            lb_of(R, N)


def test_f_p_examples():
    assert f_p(LBContext((5,)), 5, 3) == 5
    assert f_p(LBContext((2, 4, 4, 7)), 2, 3) == 2
    assert f_p(LBContext((3, 3)), 7, 10) == 1
    with pytest.raises(ValueError, match="N must be"):
        f_p(LBContext((5,)), 5, 1)
    with pytest.raises(ValueError, match="p must be"):
        f_p(LBContext((5,)), 29, 3)


def test_lb_reads_only_the_primes_of_R():
    """LB(N) is the product of f_p over every small prime: f_p is 1 for a
    prime that divides no r in R, so lb skips those primes.  The N reach
    past 17, where lb reads the saturated LB(17), and include N = 2, where
    it returns 1 without the cascade."""
    for R, _ in enumerate_R_c2c1():
        ctx = LBContext(R)
        for N in (2, 3, 4, 5, 7, 8, 9, 16, 17, 18, 19, 24, 25, 29, 31, 64):
            full = 1
            for p in SMALL_PRIMES:
                full *= f_p(ctx, p, N)
            assert lb(ctx, N) == full, (R, N)
    with pytest.raises(ValueError):
        lb(LBContext(()), 1)


def test_lb_examples():
    assert lb(LBContext((3, 3)), 5) == 3
    assert lb(LBContext((5,)), 7) == 5
    assert lb(LBContext((2, 4, 4, 7)), 3) == 14


@pytest.mark.parametrize(
    "R, f2_values, lb_values",
    [
        ((4, 4), [1, 2, 2, 4, 4, 4, 4], [1, 2, 2, 4, 4, 4, 4]),
        ((4, 4, 4), [1, 1, 1, 4, 4, 4, 4], [1, 1, 1, 4, 4, 4, 4]),
        # indices of 2-adic valuation 2 that are 12 or 20, not 4
        ((4, 12), [1, 2, 2, 2, 2, 2, 2], [1, 2, 6, 6, 6, 6, 6]),
        ((12, 12), [1, 2, 2, 2, 2, 2, 2], [1, 2, 6, 6, 6, 6, 6]),
        ((4, 4, 12), [1, 1, 1, 2, 2, 2, 2], [1, 1, 3, 6, 6, 6, 6]),
    ],
)
def test_f2_clause_c_needs_index_four_itself(R, f2_values, lb_values):
    """Clause (c) gives 2^e at n4 = 2 or 3 only when those indices are 4
    itself; LB(N) for N = 2..8."""
    ctx = LBContext(R)
    assert [f_p(ctx, 2, N) for N in range(2, 9)] == f2_values
    assert [lb(ctx, N) for N in range(2, 9)] == lb_values


def test_lb_table_regression():
    # every frozen table row's LB column is reproduced from its R alone
    for row in TABLE_MAIN:
        ctx = LBContext(tuple(r for r, _ in row.basket))
        computed = tuple(lb(ctx, pa) for pa in row.prime_powers)
        assert computed == row.lb_values, f"row {row.no}"


def _random_admissible_R(rng):
    R = []
    while True:
        r = rng.randint(2, 24)
        if tuple(sorted(R + [r])) not in ADMISSIBLE:
            break
        R.append(r)
        if rng.random() < 0.25:
            break
    return tuple(sorted(R))


def test_lb2_is_one_and_divides_rx():
    rng = random.Random(20230814)
    for _ in range(500):
        ctx = LBContext(_random_admissible_R(rng))
        assert lb(ctx, 2) == 1
        for N in (2, 3, 4, 7, 12, 24):
            assert lcm(*ctx.R) % lb(ctx, N) == 0


def test_lb_divisibility_monotone_random():
    rng = random.Random(99173)
    for _ in range(500):
        ctx = LBContext(_random_admissible_R(rng))
        values = [lb(ctx, N) for N in range(2, 25)]
        for i in range(len(values) - 1):
            assert values[i + 1] % values[i] == 0, (ctx.R, i + 2)


def test_lb4_for_coprime_squarefree():
    rng = random.Random(4451)
    squarefree = [r for r in range(2, 25) if all(r % (p * p) for p in (2, 3))]
    checked = 0
    while checked < 200:
        rng.shuffle(squarefree)
        R = []
        for r in squarefree:
            if all(gcd(r, x) == 1 for x in R) and tuple(sorted(R + [r])) in ADMISSIBLE:
                R.append(r)
        if not R:
            continue
        ctx = LBContext(tuple(sorted(R)))
        r_x = lcm(*ctx.R)
        assert lb(ctx, 4) == r_x, ctx.R
        if r_x % 3:
            assert lb(ctx, 3) == r_x, ctx.R
        checked += 1
