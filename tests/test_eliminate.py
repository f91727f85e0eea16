import hashlib
import inspect
import json
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from fano3 import eliminate
from fano3.arith import InvariantViolation
from fano3.basket import Basket
from fano3.certificates import (
    CITED_LEMMA,
    MECHANICAL,
    CertStep,
    EliminationCertificate,
    certificate_to_dict,
)
from fano3.eliminate import (
    Undetermined,
    _completions,
    _group_c_curves,
    _group_c_shared_steps,
    candidate_for_case,
    decompose,
    determine_curves,
    eliminate_candidate,
    eliminate_group_a,
    eliminate_group_c_minus,
    eliminate_group_c_plus,
    exists_integral_solution,
    foliation_bounds,
    group_c_closed_form,
    movable_thresholds,
    run_group_b_script,
)
from fano3.search import Candidate, step3
from fano3.rr import (
    CrepantCurve,
    CurveConfig,
    ResidueConstraintSystem,
    UnknownTerm,
    residue_term_builder,
)
from fano3.tables import GROUP_C_KEYS, TABLE_MAIN, row
from fano3.wps import WeightedP3, h0 as wps_h0

import oracles
from conftest import run_python
from oracles import (
    GROUP_A,
    GROUP_B,
    GROUP_C_MINUS,
    GROUP_C_PLUS,
    case_24_grid,
    foliation_p_min_fraction,
    fraction_builder,
    fraction_system,
    group_c_residues,
    group_of,
    integral_assignments,
    scaled_fractions,
)

GOLDEN = Path(__file__).parent / "data" / "cited_lemma_steps.json"


def reference_solve(sys, constant):
    """Direct enumerator with a deliberately different iteration order:
    every Fraction prefix of the unknowns but the last, in reversed residue
    order, is tested against the fractional parts that the last unknown's
    values need to make the total integral."""
    tables = [[t.value(u) for u in reversed(range(t.modulus))] for t in sys.unknown_terms]
    if not tables:
        return constant.denominator == 1
    *head, last = tables
    needed = {-v % 1 for v in last}
    return any((constant + sum(values)) % 1 in needed for values in product(*head))


def _random_system(rng):
    """``(sys, constant)``: random Fraction terms, the constant with its
    fixed terms folded in, and the integer tables of ``fraction_system``."""
    n = rng.randint(1, 4)
    terms = []
    while True:
        moduli = [rng.randint(2, 13) for _ in range(n)]
        size = 1
        for m in moduli:
            size *= m
        if size <= 10**5:
            break
    for m in moduli:
        shape = rng.choice(("quadratic", "linear"))
        coeff = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        terms.append(UnknownTerm(coeff, m, shape, f"u{len(terms)}"))
    constant = Fraction(rng.randint(-100, 100), rng.randint(1, 60))
    fixed = [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(rng.randint(0, 2))]
    constant += sum(fixed, Fraction(0))
    return fraction_system([constant], terms), constant


def test_solver_matches_reference_on_random_systems():
    rng = random.Random(271828)
    for trial in range(1000):
        sys, constant = _random_system(rng)
        got, record = exists_integral_solution(sys, constant)
        want = reference_solve(sys, constant)
        assert got == want, (trial, sys)
        if got:
            assert sys.total(constant, record["witness"]).denominator == 1
        else:
            assert record["exhausted"] == sys.domain_size


def _table_systems():
    """``(sys, constant)`` for the residue systems of the 36 table
    candidates at r' in {1, 2 r_X} and s in {1, 2}, with the forced curves
    where the budget pins them."""
    for r in TABLE_MAIN:
        c = candidate_for_case(r.no)
        cfg = determine_curves(c)
        if isinstance(cfg, Undetermined):
            cfg = CurveConfig((), x_A1=None)
        for r_prime, s in product((1, 2 * c.r_x), (1, 2)):
            sys = residue_term_builder(c.q, c.rXc13, c.basket, [(cfg, s)], r_prime)
            yield sys, sys.constants[0]


def _builder_inputs():
    """``(c, cfg, r_prime, s, drop)`` over the 36 table candidates: the
    forced (or open) curves with unknown units, with unit 1 and with a known
    x_A1, at every r' a route uses, s in 1..4, and both drop rules."""
    for r in TABLE_MAIN:
        c = candidate_for_case(r.no)
        forced = determine_curves(c)
        curves = () if isinstance(forced, Undetermined) else forced.curves
        unit_one = tuple(CrepantCurve(cc.j, cc.degree_rXKC, 1) for cc in curves)
        configs = [
            CurveConfig(curves, x_A1=None),
            CurveConfig(unit_one, x_A1=None),
            CurveConfig(unit_one, x_A1=c.r_x),
            CurveConfig((), x_A1=0),
        ]
        r_primes = {1, 9, 18, 40, 70, 120, 2 * c.r_x, c.r_x * c.j_a}
        for cfg, r_prime, s in product(configs, sorted(r_primes), range(1, 5)):
            yield c, cfg, r_prime, s, s == 2
    # -A^2.K = 1/735 and curve orders 3 and 5, all odd, which no table row
    # has: the members' common denominator must still be even for the
    # A_1 aggregate's sigma(s, 2)/4
    odd = Candidate(Basket([(3, 1), (5, 2)]), 7, 7, 1, 0, (), (), Fraction(0))
    curves = (CrepantCurve(3, 2, 1), CrepantCurve(5, 1))
    for x_a1, r_prime, s in product((None, 1, 4), (1, 3), (1, 2, 3)):
        yield odd, CurveConfig(curves, x_A1=x_a1), r_prime, s, False


def test_integer_tables_match_fraction_oracle():
    """The builder's integer tables, unknown terms and constant against the
    same constraint built term by term in Fractions and scaled value by
    value."""
    count = 0
    for c, cfg, r_prime, s, drop in _builder_inputs():
        sys = residue_term_builder(c.q, c.rXc13, c.basket, [(cfg, s)], r_prime, drop)
        constant, terms = fraction_builder(c.q, c.rXc13, c.basket, cfg, r_prime, s, drop)
        assert sys.constants == (constant,), (c.key, cfg, r_prime, s)
        assert sys.unknown_terms == terms, (c.key, cfg, r_prime, s)
        assert (sys.scale, sys.tables) == scaled_fractions(terms), (c.key, cfg, r_prime, s)
        count += 1
    assert count >= 36 * 4 * 4 * 6  # at least six distinct r' per row


def test_solver_witness_and_completions_match_oracle():
    rng = random.Random(31415)
    for trial in range(200):
        sys, constant = _random_system(rng)
        solutions = list(integral_assignments(sys, constant))
        ok, record = exists_integral_solution(sys, constant)
        assert ok == bool(solutions), trial
        if ok:
            # the least integral assignment in lexicographic order
            assert record["witness"] == solutions[0], trial
        for i in range(len(sys.unknown_terms)):
            assert _completions(sys, [i], [constant]) == [{(a[i],) for a in solutions}], (trial, i)
        everyone = range(len(sys.unknown_terms))
        assert _completions(sys, everyone, [constant]) == [set(solutions)], trial


def test_solver_witness_matches_brute_force():
    rng = random.Random(31415)
    systems = [_random_system(rng) for _ in range(200)] + list(_table_systems())
    for k, (sys, constant) in enumerate(systems):
        first = next(integral_assignments(sys, constant), None)
        ok, record = exists_integral_solution(sys, constant)
        assert record.get("witness") == first and ok == (first is not None), (k, sys)


def test_solver_trivial_systems():
    sys = ResidueConstraintSystem((Fraction(3), Fraction(1, 2)))
    ok, record = exists_integral_solution(sys, Fraction(3))
    assert ok and record["witness"] == ()
    bad, record = exists_integral_solution(sys, Fraction(1, 2))
    assert not bad and record["exhausted"] == 1
    assert _completions(sys, [], sys.constants) == [{()}, set()]


def _route_families(monkeypatch):
    """Every residue system the routes build on the 36 rows, with the
    builder's arguments: each route eliminate_candidate may try, run on
    every row whether or not an earlier route kills it."""
    built = []
    inner = eliminate.residue_term_builder

    def recording(*args, **kwargs):
        sys = inner(*args, **kwargs)
        built.append((inspect.signature(inner).bind(*args, **kwargs).arguments, sys))
        return sys

    monkeypatch.setattr(eliminate, "residue_term_builder", recording)
    for r in TABLE_MAIN:
        c = candidate_for_case(r.no)
        eliminate_group_a(r.no, c)
        for script in eliminate._GROUP_B_SCRIPTS:
            script(r.no, c)
        if c.key in GROUP_C_KEYS:
            eliminate_group_c_minus(r.no, c)
            eliminate_group_c_plus(r.no, c)
    return built


def test_family_readout_matches_per_system(monkeypatch):
    """Each member of a family, read off the shared tables, against the
    system built for that member alone and, where the domain is small
    enough, against brute force over the member's Fraction terms."""
    built = _route_families(monkeypatch)
    assert sum(len(sys.constants) > 1 for _, sys in built) >= 8
    for arguments, family in built:
        positions = [[i] for i in range(len(family.unknown_terms))]
        positions.append(range(len(family.unknown_terms)))
        readouts = {tuple(p): _completions(family, p, family.constants) for p in positions}
        for k, member in enumerate(arguments["members"]):
            alone = residue_term_builder(**dict(arguments, members=[member]))
            (constant,) = alone.constants
            assert family.constants[k] == constant
            assert exists_integral_solution(family, constant) == exists_integral_solution(
                alone, constant
            )
            for p in positions:
                assert readouts[tuple(p)][k] == _completions(alone, p, [constant])[0]
            if family.domain_size <= 2 * 10**5:
                solutions = set(integral_assignments(alone, constant))
                assert readouts[tuple(positions[-1])][k] == solutions


def test_each_row_killed_by_exactly_one_route():
    """Group A, every Group B script, C- and C+: on each row exactly one of
    the routes eliminate_candidate may try kills, so their order changes
    no certificate."""
    for r in TABLE_MAIN:
        c = candidate_for_case(r.no)
        if c.key in GROUP_C_KEYS:
            verdicts = [route(r.no, c) for route in (eliminate_group_c_minus, eliminate_group_c_plus)]
        else:
            verdicts = [eliminate_group_a(r.no, c)]
            verdicts += [script(r.no, c) for script in eliminate._GROUP_B_SCRIPTS]
        assert sum(v.eliminated for v in verdicts) == 1, r.no


def test_group_b_scripts_kill_disjoint_candidates_off_the_table(candidates_q40):
    """No q_min 40 candidate (those of q = 50 and 60 among them) is killed
    by two Group B scripts, so their order changes no certificate.  Group A
    and case 32/33's script both kill two of the 18 that one script kills,
    so there the order A before B picks the certificate."""
    killed, also_a = 0, []
    for c in candidates_q40:
        kills = [s.__name__ for s in eliminate._GROUP_B_SCRIPTS if s(-1, c).eliminated]
        assert len(kills) <= 1, c
        killed += len(kills)
        if kills and eliminate_group_a(-1, c).eliminated:
            also_a.append((c.basket.points, c.q, c.j_a, c.rXc13, kills[0]))
    assert killed == 18
    assert sorted(also_a) == [
        (((2, 1), (3, 1), (5, 1), (6, 1), (7, 1)), 48, 6, 768, "_case_32_33"),
        (((2, 1), (3, 1), (5, 2), (6, 1), (7, 2)), 54, 6, 972, "_case_32_33"),
    ]


def test_group_b_stall_order_puts_case_20_last():
    """A candidate every script stalls on reports case 20's stall."""
    assert eliminate._GROUP_B_SCRIPTS[-1] is eliminate._case_20
    c = candidate_for_case(1)  # a Group A row: every Group B script stalls
    last = run_group_b_script(1, c).certificate.steps[-1]
    assert last.outcome == "inconclusive"
    assert last.description == "the curve configuration is forced, not open"


def test_case_32_33_prints_the_candidates_lb3():
    """Row 20 has LB(3) = 10, so case 32/33's stalled certificate states
    total degree 10y (rows 32 and 33 have LB(3) = 35), and its one residue
    y = 1 mod 3 bounds y below by 1, not by rows 32 and 33's 2."""
    verdict = eliminate._case_32_33(20, candidate_for_case(20))
    assert not verdict.eliminated
    forced = verdict.certificate.steps[1].description
    assert "(total degree 10y, y >= 1, since LB(3) = 10)" in forced
    narrowed = verdict.certificate.steps[2].description
    assert narrowed.endswith("is integral only for y = [1] mod 3, so y >= 1")


def test_candidate_for_case_matches_search(candidates_greater):
    by_key = {c.key: c for c in candidates_greater}
    for r in TABLE_MAIN:
        assert candidate_for_case(r.no) == by_key[r.key], r.no


# ---------------------------------------------------------------------------
# Curve determination
# ---------------------------------------------------------------------------

def test_budget_thresholds_match_fraction_oracle(candidates_equal, candidates_q40):
    """The integer thresholds of determine_curves and _curve_order_bounds
    against the Fraction ones, on every table row, every candidate of the
    q_min 66 and 40 searches, and the table rows with their nabla moved
    across the thresholds.  An Undetermined compares by its reason text."""
    rows = [candidate_for_case(n) for n in range(1, 37)]
    moved = [c._replace(nabla=c.nabla + Fraction(k, 7)) for c in rows for k in range(-140, 141, 20)]
    outcomes = set()
    for c in rows + candidates_equal + candidates_q40 + moved:
        cfg = determine_curves(c)
        assert cfg == oracles.determine_curves(c), c
        assert eliminate._curve_order_bounds(c) == oracles.curve_order_bounds(c), c
        outcomes.add(type(cfg))
    assert outcomes == {Undetermined, CurveConfig}


def test_leaf_degree_classification_runs_once():
    """The C+ routes share one candidate-free leaf-degree classification,
    built once however many C+ rows run: every C+ certificate holds the
    builder's step objects themselves, the two before the foliation window
    and the six after it."""
    eliminate._leaf_degree_steps.cache_clear()
    before, after = eliminate._leaf_degree_steps()
    for cid in sorted(GROUP_C_PLUS):
        verdict = eliminate_group_c_plus(cid, candidate_for_case(cid))
        assert verdict.eliminated, cid
        steps = verdict.certificate.steps
        assert len(steps) == 14, cid
        assert all(s is t for s, t in zip(steps[4:6] + steps[7:13], before + after, strict=True))
    assert eliminate._leaf_degree_steps.cache_info().misses == 1


def test_leaf_degree_tree_checks_its_facts(monkeypatch):
    """A movable set other than {0, 22, 30, 33} breaks the decision tree:
    with 12 movable, g = 56 has a generator-free non-reduced member.  The
    builder raises instead of letting a C+ route stall."""
    eliminate._leaf_degree_steps.cache_clear()
    monkeypatch.setattr(eliminate, "movable_thresholds", lambda h0: {0, 12, 22, 30, 33})
    try:
        with pytest.raises(InvariantViolation, match=r"leaf degrees \[56\]"):
            eliminate_group_c_plus(3, candidate_for_case(3))
    finally:
        eliminate._leaf_degree_steps.cache_clear()


def test_determine_curves_trivial_j_a():
    c21 = candidate_for_case(21)
    cfg = determine_curves(c21)
    assert cfg.curves == () and cfg.x_A1 == 0

    c12 = candidate_for_case(12)  # J_A = 2
    cfg = determine_curves(c12)
    assert cfg.curves == () and cfg.x_A1 is None


def test_determine_curves_case_1():
    cfg = determine_curves(candidate_for_case(1))
    assert sorted((c.j, c.degree_rXKC) for c in cfg.curves) == [(3, 5), (4, 5), (7, 5)]


def test_determine_curves_fails_where_scripts_take_over():
    for cid in (20, 24, 27, 32, 33, 36):
        assert isinstance(determine_curves(candidate_for_case(cid)), Undetermined), cid


def test_determine_curves_succeeds_elsewhere():
    for r in (10, 23, 35):
        assert not isinstance(determine_curves(candidate_for_case(r)), Undetermined), r


# ---------------------------------------------------------------------------
# Group A
# ---------------------------------------------------------------------------

# product of the curve class orders in each forced configuration
GROUP_A_DOMAINS = {
    1: 84, 2: 35, 5: 9, 9: 35, 16: 15, 17: 15, 18: 15, 19: 7,
    25: 21, 26: 15, 28: 3, 29: 21, 30: 12, 31: 20, 34: 12,
}


def test_group_a_all_eliminated_mechanically():
    assert set(GROUP_A_DOMAINS) == GROUP_A
    for cid in sorted(GROUP_A):
        verdict = eliminate_group_a(cid, candidate_for_case(cid))
        assert verdict.eliminated, cid
        assert verdict.certificate.kind_counts()[CITED_LEMMA] == 0, cid
        final = verdict.certificate.steps[-1]
        assert final.outcome == "contradiction"
        assert final.domain_size == GROUP_A_DOMAINS[cid], cid


# ---------------------------------------------------------------------------
# Group B
# ---------------------------------------------------------------------------

# sha256 of the 36 certificates as compact JSON lines in case order, as
# `fano3 eliminate --case N` serialises them
CERTIFICATES_SHA256 = "d8e96ae2b03480abd53a481d2f467db7429a07db8dc0fb83638babefe41f88ff"


def test_certificates_byte_identical():
    text = "".join(
        json.dumps(certificate_to_dict(eliminate_candidate(n, candidate_for_case(n)).certificate))
        + "\n"
        for n in range(1, 37)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATES_SHA256


def test_certificates_byte_identical_under_optimize():
    """The stalls and invariant checks are explicit raises, so `python -O`
    eliminates every case with the same certificates."""
    code = (
        "import hashlib, json\n"
        "from fano3.certificates import certificate_to_dict\n"
        "from fano3.eliminate import candidate_for_case, eliminate_candidate\n"
        "verdicts = [eliminate_candidate(n, candidate_for_case(n)) for n in range(1, 37)]\n"
        "text = ''.join(json.dumps(certificate_to_dict(v.certificate)) + '\\n' for v in verdicts)\n"
        "print(__debug__, hashlib.sha256(text.encode()).hexdigest())\n"
    )
    done = run_python("-O", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", CERTIFICATES_SHA256]


def test_group_a_negative_control(candidates_equal):
    """On the q = 66 rows Group A kills only two baskets; the realised
    P(5,6,22,33) row must survive."""
    assert len(candidates_equal) == 7
    verdicts = {c.basket.points: (c, eliminate_group_a(-1, c)) for c in candidates_equal}
    eliminated = {key for key, (_, v) in verdicts.items() if v.eliminated}
    assert eliminated == {((2, 1), (2, 1), (5, 1)), ((7, 2),)}
    realised, verdict = verdicts[((5, 2),)]
    assert (realised.q, realised.rXc13) == (66, 66)
    assert not verdict.eliminated
    assert not verdict.certificate.has_contradiction


def test_group_b_mechanical_cases():
    for cid in (10, 20, 23, 24, 32, 33, 36):
        verdict = run_group_b_script(cid, candidate_for_case(cid))
        assert verdict.eliminated, cid
        assert verdict.certificate.kind_counts()[CITED_LEMMA] == 0, cid


def test_group_b_cited_cases_match_golden():
    golden = json.loads(GOLDEN.read_text())
    for cid in (27, 35):
        verdict = run_group_b_script(cid, candidate_for_case(cid))
        assert verdict.eliminated, cid
        cited = [
            {"citation": s.citation, "description": s.description}
            for s in verdict.certificate.steps
            if s.kind == CITED_LEMMA
        ]
        assert cited == golden[str(cid)], cid


def test_group_b_and_c_negative_control(candidates_equal):
    """No Group B script eliminates a q = 66 row, the realised P(5,6,22,33)
    row among them: each stalls with one inconclusive step.  The Group C
    routes refuse these rows, and the realised row survives the whole route
    order."""
    assert len(candidates_equal) == 7
    for c in candidates_equal:
        verdict = run_group_b_script(-1, c)
        assert not verdict.eliminated, c.key
        assert not verdict.certificate.has_contradiction, c.key
        assert verdict.certificate.steps[-1].outcome == "inconclusive", c.key
        for route in (eliminate_group_c_minus, eliminate_group_c_plus):
            with pytest.raises(ValueError):
                route(-1, c)
    (realised,) = (c for c in candidates_equal if c.basket.points == ((5, 2),))
    assert not eliminate_candidate(-1, realised).eliminated


# ---------------------------------------------------------------------------
# Route order
# ---------------------------------------------------------------------------

ROUTES = {
    "A": "eliminate_group_a",
    "B": "run_group_b_script",
    "C-": "eliminate_group_c_minus",
    "C+": "eliminate_group_c_plus",
}


def test_route_order_reproduces_groups(monkeypatch):
    """eliminate_candidate reaches the routes through the module globals;
    on every row the routes before the published group's stall and that
    group's route kills.  So Group A stalls on every B row and C- on every
    C+ row."""
    tried = []
    for group, name in ROUTES.items():
        def recording(case_id, candidate, group=group, route=getattr(eliminate, name)):
            verdict = route(case_id, candidate)
            tried.append((group, verdict.eliminated))
            return verdict

        monkeypatch.setattr(eliminate, name, recording)
    for r in TABLE_MAIN:
        tried.clear()
        assert eliminate.eliminate_candidate(r.no, candidate_for_case(r.no)).eliminated, r.no
        assert tried[-1] == (group_of(r.no), True), (r.no, tried)
        assert not any(killed for _, killed in tried[:-1]), (r.no, tried)
    assert GROUP_C_KEYS == {row(n).key for n in GROUP_C_MINUS | GROUP_C_PLUS}
    with pytest.raises(ValueError):
        row(99)


def test_group_b_stalls_on_group_a():
    for cid in sorted(GROUP_A):
        verdict = run_group_b_script(cid, candidate_for_case(cid))
        assert not verdict.eliminated, cid
        assert verdict.certificate.steps[-1].outcome == "inconclusive", cid


def test_group_c_routes_refuse_other_rows():
    for cid in sorted(GROUP_A | GROUP_B):
        for route in (eliminate_group_c_minus, eliminate_group_c_plus):
            with pytest.raises(ValueError):
                route(cid, candidate_for_case(cid))


# ---------------------------------------------------------------------------
# Group C
# ---------------------------------------------------------------------------

H0_TABLE_1_TO_34 = [
    0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 1,
    1, 2, 1, 1, 1, 1, 2, 2, 1, 2, 1, 2, 3, 2,
]


def test_group_c_closed_form_integral_and_tabulated():
    for s in range(1, 66):
        group_c_closed_form(s)  # raises if not integral
    assert [group_c_closed_form(s) for s in range(1, 35)] == H0_TABLE_1_TO_34
    with pytest.raises(ValueError):
        group_c_closed_form(0)
    with pytest.raises(ValueError):
        group_c_closed_form(66)


def test_group_c_closed_form_flags_non_integral_value(monkeypatch):
    # one unit more at the half-point's index-1 entry leaves 1/660 at odd s
    cols = [list(col) for col in eliminate._GROUP_C_COLUMNS]
    cols[0][1] += 1
    monkeypatch.setattr(eliminate, "_GROUP_C_COLUMNS", cols)
    assert group_c_closed_form(2) == H0_TABLE_1_TO_34[1]
    with pytest.raises(InvariantViolation):
        group_c_closed_form(1)


def test_group_c_closed_form_matches_wps_oracle():
    w = WeightedP3((5, 6, 22, 33))
    for s in range(1, 66):
        assert group_c_closed_form(s) == wps_h0(w, s), s


def test_movable_thresholds():
    h0 = {s: group_c_closed_form(s) for s in range(1, 35)}
    assert movable_thresholds(h0) == {0, 22, 30, 33}


def test_decompose():
    assert decompose(44) == [(0, 0, 2), (2, 2, 1), (4, 4, 0)]
    assert decompose(11) == [(1, 1, 0)]
    assert decompose(0) == [(0, 0, 0)]


def test_nonreduced_excess_counts_only_present_generators():
    """At g = 44 a writing 5a + 6b + rest with a or b zero has no excess on
    the absent generator: on the movable set {0, 22, 30, 32, 33}, (a, b) =
    (0, 2) with rest 32 has excess 6, and (2, 2) and (4, 4) have 11 and 33;
    on {0, 34}, (2, 0) with rest 34 has excess 5.  The doubled degree-22
    member's excess 22 is always present."""
    assert eliminate._nonreduced_excesses({0, 22, 30, 32, 33}) == [6, 11, 22, 33]
    assert eliminate._nonreduced_excesses({0, 34}) == [5, 22, 33]


def _group_c_delta(cid):
    """The candidate and the curve demand its Group C derivation pins."""
    c = candidate_for_case(cid)
    return c, eliminate._demand(c, _group_c_curves(c, EliminationCertificate(cid)))[1]


def test_group_c_curves():
    even, odd, residual, steps = _group_c_shared_steps()
    assert even == {2: [0], 3: [1, 2], 5: [1, 4], 11: [4, 7]}
    assert odd == {3: [1], 5: [2], 11: [2]}
    assert residual == Fraction(1, 4)
    assert all(isinstance(s, CertStep) for s in steps)
    assert "its value is always [0]" in steps[0].description  # h^0(2A) = 0

    cert = EliminationCertificate(3)
    assert _group_c_curves(candidate_for_case(3), cert).x_A1 == 33  # r_X, odd
    assert cert.steps[:2] == list(steps) and cert.steps[2].outcome == "determined"
    assert _group_c_curves(candidate_for_case(11), cert).x_A1 == 0  # no A_1 curves possible

    with pytest.raises(ValueError):
        _group_c_curves(candidate_for_case(1), EliminationCertificate(1))


def test_group_c_both_even_stalls(monkeypatch):
    """When r_X and J_A are both even, h^0(A) = 0 does not pin x_A1: both
    Group C routes stall and the candidate stands."""
    c = candidate_for_case(10)
    assert c.r_x % 2 == 0 and c.j_a % 2 == 0
    monkeypatch.setattr(eliminate, "GROUP_C_KEYS", GROUP_C_KEYS | {c.key})
    for route in (eliminate_group_c_minus, eliminate_group_c_plus):
        verdict = route(10, c)
        assert not verdict.eliminated
        assert [s.outcome for s in verdict.certificate.steps] == ["inconclusive"]
        assert "both even" in verdict.certificate.steps[-1].description
    assert not eliminate_candidate(10, c).eliminated


def test_group_c_shared_steps_match_fraction_oracle():
    """The column-kernel derivation against Fraction h^0 at every tuple."""
    assert _group_c_shared_steps()[:3] == group_c_residues()


def test_case_24_grid_matches_per_tuple_oracle():
    """One symbolic-x_A1 system per (y4, s) leaves what one system per
    (x_A1, y4, s) leaves."""
    c = candidate_for_case(24)
    assert case_24_grid(c) == {(10, 1)}
    steps = eliminate_candidate(24, c).certificate.steps
    grid = [s for s in steps if "leaves (x_A1, y4) in" in s.description]
    assert len(grid) == 1
    assert grid[0].description.endswith(f"in {sorted(case_24_grid(c))}")
    assert grid[0].domain_size == 340


def _step_texts(route, c) -> list:
    """The step descriptions of ``route``'s certificate on ``c``."""
    return [s.description for s in route(-1, c).certificate.steps]


def test_case_27_degrees_off_the_table(candidates_q40):
    """On every q_min 40 candidate that reaches case 27's A_2 degree step,
    the printed cap and y list are those of the Fraction budget and one
    brute-force system per y.  For 13 of them y = 1 is integral, which a y
    range starting at 2 would miss."""
    reached = []
    for c in candidates_q40:
        texts = _step_texts(eliminate._case_27, c)
        at = [i for i, text in enumerate(texts) if "1 <= y <= " in text]
        if at:
            y_max, ys = oracles.case_27_ys(c)
            cap, printed = texts[at[0]:at[0] + 2]
            assert cap.endswith(f"1 <= y <= {y_max}"), c
            assert printed.endswith(f"integral only for y = {ys}"), c
            reached.append(ys)
    assert len(reached) == 28
    assert sum(1 in ys for ys in reached) == 13


def test_case_24_grid_off_the_table(candidates_q40):
    """On every q_min 40 candidate that reaches case 24's (x_A1, y4) grid,
    the printed set is the per-tuple oracle's under its own Fraction caps."""
    reached = 0
    for c in candidates_q40:
        grid = [t for t in _step_texts(eliminate._case_24, c) if "leaves (x_A1, y4) in" in t]
        if grid:
            assert grid == [
                f"integrality for D=sA, s in [1, 3], r'=9 leaves (x_A1, y4) in "
                f"{sorted(case_24_grid(c))}"
            ], c
            reached += 1
    assert reached == 14


def test_case_24_y3_cap_off_the_table():
    """Row 24 with its budget raised by 4 keeps the grid {(10, 1)} but
    leaves room for a second A_2 curve once x_A1 = 10 and one A_3 curve
    are paid: the cap reads y3 <= 2 and the script stalls."""
    c = candidate_for_case(24)
    texts = _step_texts(eliminate._case_24, c._replace(nabla=c.nabla + 4))
    assert texts[-3].endswith("leaves (x_A1, y4) in [(10, 1)]")
    assert texts[-2:] == ["budget then forces y3 = 1 (y3 <= 2)", "y3 not pinned"]


def test_case_24_stalls_when_the_forced_curves_overshoot():
    """With nabla = 25, one A_2 (40/3) and one A_3 (75/4) each fit the
    budget but not together: the y4 cap reads 0 and the script stalls
    before it prints its caps (x_A1 would read -4) and before it builds a
    residue system over an empty (y4, s) family."""
    c = candidate_for_case(24)._replace(nabla=Fraction(25))
    texts = _step_texts(eliminate._case_24, c)
    assert texts[-1] == "the budget cannot pay for one A_2 and one A_3 curve"
    assert not any("budget bounds" in text for text in texts)
    assert not any(re.search(r"<= -\d", text) for text in texts)
    assert not eliminate_candidate(24, c).eliminated
    with pytest.raises(ValueError, match="at least one member"):
        residue_term_builder(c.q, c.rXc13, c.basket, [], r_prime=9)



def test_case_24_stalls_when_an_h0_degree_reaches_q():
    """Off the table, {(3,1),(3,1),(3,1),(5,1)} at q = 24 passes case 24's
    grid and y3 steps, but its h^0 table reads degrees up to 31 >= q, where
    h^0 = chi no longer holds: the script stalls there instead of raising,
    and ``eliminate_candidate`` returns a verdict."""
    c = step3(Basket([(3, 1)] * 3 + [(5, 1)]), 24, 12, 432, 168)
    texts = _step_texts(eliminate._case_24, c)
    assert texts[-3:] == [
        "integrality for D=sA, s in [1, 3], r'=9 leaves (x_A1, y4) in [(10, 1)]",
        "budget then forces y3 = 1 (y3 <= 1)",
        "h^0 degree 31 is not below q = 24",
    ]
    assert not eliminate_candidate(24, c).eliminated

FOLIATION_P_MIN = {3: 66, 6: 71, 11: 64, 13: 61, 21: 57, 22: 68}

DELTA_FORMULAS = {
    3: Fraction(3, 2) + Fraction(24, 5),
    6: Fraction(3, 2) + Fraction(8, 3),
    11: Fraction(8, 3),
    13: Fraction(3, 2),
    21: Fraction(0),
    22: Fraction(0),
}


def test_foliation_bounds_table():
    for cid, expected in FOLIATION_P_MIN.items():
        c, delta = _group_c_delta(cid)
        assert delta == DELTA_FORMULAS[cid] * c.r_x, cid
        assert foliation_bounds(c, delta) == expected, cid
    # spot value from the table
    assert _group_c_delta(3)[1] == Fraction(2079, 10)


def test_foliation_bounds_match_fraction_scan():
    """The integer scan against the Fraction slope-bound scan on each C+ row,
    at its own delta and over a sweep of delta through the 16/5 threshold
    and past the last admissible p."""
    for cid in sorted(GROUP_C_PLUS):
        c, delta = _group_c_delta(cid)
        assert foliation_bounds(c, delta) == foliation_p_min_fraction(c, delta), cid
        outcomes = set()
        for k in range(-400, 2400, 7):
            sweep = c.rXc2c1 - Fraction(5 * c.rXc13, 16) + Fraction(k, 13)
            try:
                want = foliation_p_min_fraction(c, sweep)
            except ValueError as exc:
                with pytest.raises(ValueError):
                    foliation_bounds(c, sweep)
                outcomes.add(str(exc))
                continue
            assert foliation_bounds(c, sweep) == want, (cid, sweep)
            outcomes.add(want)
        # the sweep meets both refusals and several indices
        assert len(outcomes) > 4, (cid, outcomes)


def test_foliation_precondition_guard():
    c = candidate_for_case(3)
    with pytest.raises(ValueError):
        foliation_bounds(c, Fraction(-10**6))


def test_group_c_minus_eliminated():
    for cid in sorted(GROUP_C_MINUS):
        verdict = eliminate_group_c_minus(cid, candidate_for_case(cid))
        assert verdict.eliminated, cid
        assert verdict.certificate.kind_counts()[CITED_LEMMA] == 0, cid


def test_group_c_plus_eliminated_with_cited_steps():
    expected_axioms = {
        "rank2-foliation-exists",
        "rational-connectedness",
        "leaf-family-movability",
        "hirzebruch-bound",
    }
    for cid in sorted(GROUP_C_PLUS):
        verdict = eliminate_group_c_plus(cid, candidate_for_case(cid))
        assert verdict.eliminated, cid
        cited = {
            s.citation for s in verdict.certificate.steps if s.kind == CITED_LEMMA
        }
        assert cited == expected_axioms, cid


def test_group_c_plus_stall_guards(monkeypatch):
    """Row 3 moved to q = 60 and q = 59 on the Group C list, with the
    foliation index p_min set by hand.  At q = 60, p_min = 50 sits on the
    window's edge 6 p = 5 q, p_min = 51 passes it but its leaf square
    156060/19800 stays below 8, and p_min = 52 is eliminated.  At q = 59,
    p_min = 51 clears 8 by 300/19470, less than one unit of the 330."""
    outcomes = {}
    for q, p_min in ((60, 50), (60, 51), (60, 52), (59, 51)):
        c = candidate_for_case(3)._replace(q=q)
        monkeypatch.setattr(eliminate, "GROUP_C_KEYS", GROUP_C_KEYS | {c.key})
        monkeypatch.setattr(eliminate, "foliation_bounds", lambda c, delta: p_min)
        verdict = eliminate_group_c_plus(3, c)
        outcomes[q, p_min] = (verdict.eliminated, verdict.certificate.steps[-1].description)
    assert outcomes[60, 50] == (False, "index window outside the decision tree's reach")
    assert outcomes[60, 51] == (False, "leaf square 156060/19800 does not exceed 8")
    for key, worst in (((60, 52), "162240/19800"), ((59, 51), "156060/19470")):
        eliminated, text = outcomes[key]
        assert eliminated
        assert text.startswith(
            f"for every feasible p the leaf square 60 p^2/(330 q) >= {worst} > 8"
        )


def test_group_c_plus_window_stall():
    """Row 3 with r_Xc2c1 moved, every other route input as in the table:
    at 356 the foliation index p_min = 60 leaves q - p <= 10, the decision
    tree's reach, and the row is eliminated; at 357 p_min = 59 leaves
    q - p <= 11 and the route stalls on the window."""
    outcomes = {}
    for rxc2c1, p_min in ((356, 60), (357, 59)):
        verdict = eliminate_group_c_plus(3, candidate_for_case(3)._replace(rXc2c1=rxc2c1))
        steps = [s.description for s in verdict.certificate.steps]
        assert steps[6].startswith(f"foliation index p lies in [{p_min}, 69] "), steps[6]
        outcomes[rxc2c1] = verdict.eliminated, steps[-1]
    assert outcomes[356][0] and outcomes[356][1].startswith(
        "for every feasible p the leaf square 60 p^2/(330 q) >= 216000/23100 > 8"
    )
    assert outcomes[357] == (False, "index window outside the decision tree's reach")


def test_tampered_candidate_flags_not_crashes():
    for cid in (1, 10, 24, 4, 3):
        c = candidate_for_case(cid)
        bad = c._replace(nabla=c.nabla + 10**6)
        verdict = eliminate_candidate(cid, bad)
        assert not verdict.eliminated, cid
        assert not verdict.certificate.has_contradiction, cid


def test_full_pipeline_report(pipeline_report):
    rep = pipeline_report
    assert rep.total == 36
    assert rep.eliminated == 36
    assert rep.survivors == []
    assert [cid for cid, _ in rep.verdicts] == list(range(1, 37))
    cited = {cid for cid, v in rep.verdicts if v.certificate.kind_counts()[CITED_LEMMA]}
    assert cited == set(GROUP_C_PLUS) | {27, 35}
    assert rep.mechanical_steps > 100 and rep.cited_steps > 0


def test_final_inequality_case_21(pipeline_report):
    verdict = dict(pipeline_report.verdicts)[21]
    final = verdict.certificate.steps[-1]
    assert final.outcome == "contradiction"
    assert "194940/22110" in final.description
