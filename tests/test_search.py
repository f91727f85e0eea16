import hashlib
from fractions import Fraction

import pytest

from fano3.arith import InvariantViolation
from fano3.basket import Basket, rX_c2c1
from fano3 import search
from fano3.eliminate import candidate_for_case
from fano3.rr import curve_cost
from fano3.search import ceil_display, run_search, step1, step2, step3, verify_candidate
from fano3.tables import TABLE_EQ66, TABLE_MAIN

import oracles
from conftest import run_python


def test_ceil_display():
    assert ceil_display(Fraction(149, 2)) == "74.5"
    assert ceil_display(Fraction(6259, 84)) == "74.52"
    assert ceil_display(Fraction(135, 2)) == "67.5"
    assert ceil_display(Fraction(60)) == "60"


def test_step1_contains_known_rows():
    pairs = dict(step1(66))
    assert pairs[(5,)] == 96
    assert pairs[()] == 24
    assert ((2,) in pairs) == (4 * 45 > 66)


@pytest.mark.parametrize("q_min", [6, 66])
def test_step1_matches_fraction_oracle(q_min):
    """The integer budget carried down the enumerate_R_c2c1 recursion gives
    the same (R, r_X c2c1) pairs as the Fraction budget, in the same order."""
    assert list(step1(q_min)) == list(oracles.step1(q_min))


def _within_fraction_budget(c) -> bool:
    """The budget inequality in Fractions, apart from the integer kernels."""
    return sum(map(curve_cost, c.prime_powers, c.lb_values)) <= c.nabla


def test_step2_matches_triple_order_oracle():
    """At q_min 66, equal mode, on every Step-1 unit: each tuple the walk
    yields is an oracle tuple within the Fraction budget, and each oracle
    tuple within it is yielded.  Step 2 is the one budget charge."""
    yielded = kept = 0
    for R, c2c1 in step1(66):
        walk = [(b.points, q, j_a, x) for b, q, j_a, x in step2(R, c2c1, 66, "equal")]
        assert len(set(walk)) == len(walk)
        oracle = {}
        for b, q, j_a, x in oracles.step2(R, oracles.step2_tuples(c2c1, 66, "equal")):
            oracle[(b.points, q, j_a, x)] = b
        assert set(walk) <= set(oracle)
        for key, basket in oracle.items():
            within = _within_fraction_budget(step3(basket, *key[1:], c2c1))
            assert within == (key in walk), key
            kept += within
        yielded += len(walk)
    assert (yielded, kept) == (7, 7)


def test_greater_walk_yields_only_what_step3_keeps():
    """At q_min 63, greater mode, every tuple the walk yields is within the
    Fraction budget: Step 3 filters nothing, so the walk alone charges
    each triple its real demand."""
    yielded = 0
    for R, c2c1 in step1(63):
        for basket, q, j_a, x in step2(R, c2c1, 63, "greater"):
            assert _within_fraction_budget(step3(basket, q, j_a, x, c2c1)), (basket, q, j_a, x)
            yielded += 1
    assert yielded == len(run_search(63, "greater")) > 36



def test_walk_builds_baskets_only_through_enumerate_baskets(monkeypatch):
    """Step 2 files ``search.enumerate_baskets(R)`` by offset on R's first
    surviving triple: at q_min 66, equal mode, one call per distinct R among
    the 7 candidates, and every candidate's basket is one it yielded."""
    calls, built = [], []
    enumerate_baskets = search.enumerate_baskets

    def counting(R):
        calls.append(R)
        for basket in enumerate_baskets(R):
            built.append(basket)
            yield basket

    monkeypatch.setattr(search, "enumerate_baskets", counting)
    found = run_search(66, "equal")
    assert len(calls) == len(set(calls)) == len({c.basket.R for c in found}) == 7
    assert all(any(c.basket is b for b in built) for c in found)
    assert len(built) == 23

@pytest.mark.parametrize(
    "R, q_min, mode, triple, spent",
    [
        ((5,), 83, "greater", (84, 84, 84), False),
        ((2,) * 10, 6, "equal", (6, 2, 54), True),
        ((2,) * 8 + (5,), 15, "greater", (16, 4, 192), True),
    ],
)
def test_walk_reaches_its_boundary_triples(R, q_min, mode, triple, spent):
    """The walk yields the least greater-mode rXc13, q_min + 1, and the
    triples whose budget the forced curves spend exactly, at the LB >= 1
    floor (LB(2) = 1) or only with the real LB (LB(4) = 5 over R), since
    the budget inequality is not strict."""
    c2c1 = rX_c2c1(R)
    found = [(b, q, j_a, x) for b, q, j_a, x in step2(R, c2c1, q_min, mode) if (q, j_a, x) == triple]
    assert found
    for basket, *key in found:
        cand = step3(basket, *key, c2c1)
        demand = sum(map(curve_cost, cand.prime_powers, cand.lb_values))
        assert (cand.nabla == demand) == spent


def test_step3_attaches_budget():
    cand = step3(Basket([(5, 1)]), 84, 84, 84, 96)
    assert cand.lb_values == (5, 5, 5)
    assert cand.nabla == Fraction(6259, 84)
    with pytest.raises(ValueError):
        step3(Basket([(5, 1)]), 84, 5, 84, 96)  # J_A must divide q


def test_table_main_regression(candidates_greater):
    assert len(candidates_greater) == 36
    table = {row.key: row for row in TABLE_MAIN}
    assert len(table) == 36
    for cand in candidates_greater:
        row = table.get(cand.key)
        assert row is not None, f"unexpected candidate {cand}"
        assert cand.r_x == row.r_x
        assert cand.rXc2c1 == row.rXc2c1
        assert cand.prime_powers == row.prime_powers
        assert cand.lb_values == row.lb_values
        assert cand.nabla_display == row.nabla_display


def test_rows_33_34_share_numerics_but_not_j_a(candidates_greater):
    pairs = [
        c for c in candidates_greater
        if (c.basket.points, c.q, c.rXc13) in {
            (r.basket, r.q, r.rXc13) for r in TABLE_MAIN if r.no in (33, 34)
        }
    ]
    assert len(pairs) == 2
    assert pairs[0].j_a != pairs[1].j_a


def test_table_eq66_regression(candidates_equal):
    assert len(candidates_equal) == 7
    table = {row.key: row for row in TABLE_EQ66}
    for cand in candidates_equal:
        row = table.get(cand.key)
        assert row is not None, f"unexpected candidate {cand}"
        assert cand.nabla_display == row.nabla_display


#: (count, sha256 of repr of the key list) of run_search(q_min, mode);
#: q_min = 66 is pinned by the contract bytes in test_cli.py
SEARCH_KEYS = {
    (40, "greater"): (453, "9491db91afaebb5d0155283673f0fbc478bdaba6e6a19c8b61538d7da7c990c3"),
    (40, "equal"): (112, "a037486de8851247b9d7154ab505521545c5578a544451bdc0336c189164ac28"),
    (50, "greater"): (187, "57d605b06738887aa58f88ffa3863b4ab2ea5a69073863cd3fefbebcaecc8e7e"),
    (50, "equal"): (23, "31886aeff574430d0ca37bdd3feaa6e80c75d7b4547b34941534d927b7aec1a1"),
    (60, "greater"): (60, "e3ddfc1b84ebe334fd9c0c1e88d9a664c60d7f0bddd429c07eba091c9c58d4c0"),
    (60, "equal"): (43, "cf2f267e8644375b928afbee03a63419feb8deb91704965f42ae2805ca8c96c5"),
}


@pytest.mark.parametrize("q_min, mode", sorted(SEARCH_KEYS))
def test_search_keys_pinned(q_min, mode):
    """The candidate keys, in order, below the frozen tables' threshold."""
    keys = [c.key for c in run_search(q_min, mode)]
    assert (len(keys), hashlib.sha256(repr(keys).encode()).hexdigest()) == SEARCH_KEYS[q_min, mode]


def test_worker_determinism(candidates_greater, candidates_greater_w4, candidates_greater_w8):
    assert candidates_greater_w4 == candidates_greater
    assert candidates_greater_w8 == candidates_greater


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in
    this process and starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "q_min, cpus, expected",
    [
        (66, 3, 3), (5000, 10**6, len(list(step1(5000)))), (66, None, None), (66, 1, None),
        (9956, 4, None), (9955, 4, None),
    ],
)
def test_pool_size_is_clamped(monkeypatch, candidates_equal, q_min, cpus, expected):
    """`--jobs 5000` asks for at most one process per work unit and per CPU
    (serial, with no pool, when that is one or none).  The largest r_X c2c1
    is 2489, so Step 1 is empty at q_min 9956 and has one unit at 9955."""
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    _SerialPool.sizes = []
    found = run_search(q_min, "equal", 5000)
    assert _SerialPool.sizes == ([] if expected is None else [expected])
    if q_min == 66:
        assert found == candidates_equal


def test_serial_search_streams_step1(monkeypatch, candidates_equal):
    """With one worker, Step 2 runs on each Step-1 unit before Step 1
    yields the next: no list of units is built."""
    yielded, at_step2 = [0], []
    step1, step2 = search.step1, search.step2

    def counting_step1(q_min):
        for unit in step1(q_min):
            yielded[0] += 1
            yield unit

    def recording_step2(*args):
        at_step2.append(yielded[0])
        return step2(*args)

    monkeypatch.setattr(search, "step1", counting_step1)
    monkeypatch.setattr(search, "step2", recording_step2)
    assert run_search(66, "equal") == candidates_equal
    assert at_step2 == list(range(1, yielded[0] + 1))
    assert yielded[0] == len(list(step1(66)))


def test_verify_candidate_rejects_tampering(candidates_greater):
    good = candidates_greater[0]
    verify_candidate(good, 66, "greater")
    bad = good._replace(rXc2c1=good.rXc2c1 + 1)
    with pytest.raises(AssertionError):
        verify_candidate(bad, 66, "greater")


def test_verify_candidate_checks_test_inequality():
    # rXc2c1 one below the least value (q^2 + 2q - 4) rXc13 <= 4 q^2 rXc2c1 allows
    for case_id in (1, 20, 35):
        c = candidate_for_case(case_id)
        least = -(-(c.q * c.q + 2 * c.q - 4) * c.rXc13 // (4 * c.q * c.q))
        with pytest.raises(InvariantViolation, match="test inequality"):
            verify_candidate(c._replace(rXc2c1=least - 1), 66)


def test_verify_candidate_rejects_tampering_under_optimize():
    """The invariant checks are explicit raises, so `python -O` keeps them."""
    code = (
        "from fano3.arith import InvariantViolation\n"
        "from fano3.eliminate import candidate_for_case\n"
        "from fano3.search import verify_candidate\n"
        "c = candidate_for_case(1)\n"
        "verify_candidate(c, 66)\n"
        "try:\n"
        "    verify_candidate(c._replace(q=c.q + 1), 66)\n"
        "except InvariantViolation:\n"
        "    print(__debug__, 'rejected')\n"
    )
    done = run_python("-O", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "rejected"]


def test_verify_candidate_rederives_nabla(monkeypatch):
    """A budget kernel that is off by one unit reaches every candidate's
    nabla through rr.nabla; verify_candidate's own Fraction formula
    rejects it."""
    from fano3 import rr

    kernel = rr.nabla_units
    monkeypatch.setattr(rr, "nabla_units", lambda *args: kernel(*args) + 1)
    with pytest.raises(InvariantViolation, match="nabla"):
        run_search(66, "equal")


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        run_search(66, "sideways", 1)
    with pytest.raises(ValueError, match="mode must be"):
        next(step2((5,), 96, 66, "sideways"))


def test_bad_mode_rejected_before_any_work(monkeypatch):
    """A bad mode is refused before Step 1, so no worker pool is started."""
    def no_step1(q_min):
        raise AssertionError("step 1 ran")

    monkeypatch.setattr(search, "step1", no_step1)
    with pytest.raises(ValueError):
        run_search(66, "sideways", 2)


def test_duplicate_candidates_rejected(monkeypatch):
    """A work unit that reports a candidate twice fails the merge."""
    process = search._process_units
    monkeypatch.setattr(search, "_process_units", lambda args: 2 * process(args))
    with pytest.raises(InvariantViolation, match="duplicate candidates"):
        run_search(66, "equal")


def test_non_positive_workers_rejected_before_any_work(monkeypatch):
    def no_step1(q_min):
        raise AssertionError("step 1 ran")

    monkeypatch.setattr(search, "step1", no_step1)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_search(66, "equal", workers)


@pytest.mark.parametrize(
    "q_min, mode",
    [
        (30, "equal"), (33, "equal"), (40, "equal"), (50, "equal"), (60, "equal"),
        (65, "equal"), (66, "equal"), (63, "greater"),
    ],
)
def test_walk_matches_triple_order_oracle(q_min, mode):
    """The residue-first walk finds exactly the candidates of the triple-order
    Step 2 with the Fraction budget test.  With an odd q_min, gcd(q_min, 2 r_X)
    is 1 for many R (460 of 1984 at q_min = 33, 1016 of 1852 at 65)."""
    assert run_search(q_min, mode) == oracles.run_search(q_min, mode)
