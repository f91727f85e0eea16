"""Three-step candidate search for large Fano indices.

Step 1 lists the admissible index multisets R with their c2c1 value;
Step 2 enumerates baskets, indices q, the codimension-2 Cartier index J_A
and r_Xc1^3; Step 3 attaches degree lower bounds and keeps only candidates
whose curve-degree budget (nabla) can accommodate the curves forced by the
prime powers of J_A.  Everything is exact and the result is independent of
the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import InvariantViolation, prime_powers, sigma_numerator
from .basket import Basket, enumerate_R, enumerate_baskets, gorenstein_index, rX_c2c1, rr_fano_integral
from .lb import LBContext, lb
from .rr import curve_cost, nabla

__all__ = [
    "Candidate",
    "step1",
    "step2",
    "step3",
    "run_search",
    "verify_candidate",
    "ceil_display",
]

GREATER = "greater"
EQUAL = "equal"


@dataclass(frozen=True, order=True)
class Candidate:
    basket: Basket
    q: int
    j_a: int
    rXc13: int
    rXc2c1: int
    prime_powers: tuple
    lb_values: tuple
    nabla: Fraction

    @property
    def r_x(self) -> int:
        return gorenstein_index(self.basket)

    @property
    def key(self):
        return (self.basket.as_tuples(), self.q, self.j_a, self.rXc13)

    @property
    def nabla_display(self) -> str:
        return ceil_display(self.nabla)

    def __str__(self):
        return f"Candidate({self.basket}, q={self.q}, J_A={self.j_a}, rXc13={self.rXc13})"


def ceil_display(value: Fraction) -> str:
    """ceil(100 * value) / 100, rendered with trailing zeros trimmed."""
    hundred = 100 * Fraction(value)
    n = -((-hundred.numerator) // hundred.denominator)  # ceil
    sign = "-" if n < 0 else ""
    n = abs(n)
    text = f"{sign}{n // 100}.{n % 100:02d}".rstrip("0").rstrip(".")
    return text


def step1(q_min: int):
    """Admissible (R, r_X c2c1) pairs with 4 * r_X c2c1 > q_min.

    The filter is sound because the test inequality forces
    r_Xc1^3 <= (4q^2/(q^2+2q-4)) r_Xc2c1 < 4 r_Xc2c1 while r_Xc1^3 >= q.
    """
    if q_min < 6:
        raise ValueError("q_min must be at least 6")
    for R in enumerate_R():
        c2c1 = rX_c2c1(R)
        if 4 * c2c1 > q_min:
            yield R, c2c1


def _q_range(q_min: int, rXc2c1: int, mode: str):
    if mode == EQUAL:
        qs = [q_min]
    elif mode == GREATER:
        qs = []
        q = q_min + 1
        # finiteness: rXc13 >= q turns the test inequality into
        # q^2 + 2q - 4 <= 4q * rXc2c1
        while q * q + 2 * q - 4 <= 4 * q * rXc2c1:
            qs.append(q)
            q += 1
    else:
        raise ValueError(f"mode must be {GREATER!r} or {EQUAL!r}")
    return [q for q in qs if q * q + 2 * q - 4 <= 4 * q * rXc2c1]


@lru_cache(maxsize=512)
def _step2_tuples(rXc2c1: int, q_min: int, mode: str):
    """All (q, J_A, rXc13) triples passing the test inequality, sorted.

    Since J_A | q, the divisibility q^2 | J_A * rXc13 parameterizes as
    rXc13 = m * q * d with d = q / J_A, which in particular is an integer.
    The cofactor d is bounded by roughly 4 * rXc2c1 / q, so we iterate d
    outermost and q over its multiples.
    """
    qs = _q_range(q_min, rXc2c1, mode)
    out = []
    if not qs:
        return ()
    d = 1
    while d * qs[0] * (qs[0] ** 2 + 2 * qs[0] - 4) <= 4 * qs[0] ** 2 * rXc2c1:
        start = qs[0] + (-qs[0]) % d
        for q in range(start, qs[-1] + 1, d):
            stride = q * d
            bound4q2 = 4 * q * q * rXc2c1
            weight = q * q + 2 * q - 4
            rXc13 = stride
            while weight * rXc13 <= bound4q2:
                if rXc13 >= q:
                    out.append((q, q // d, rXc13))
                rXc13 += stride
        d += 1
    out.sort()
    return tuple(out)


def step2(R, rXc2c1: int, q_min: int, mode: str = GREATER):
    """Tuples (basket, q, J_A, rXc13) passing every Step-2 constraint.

    The anticanonical Riemann-Roch integrality depends on the basket only
    through sum b(r-b) * r_X/r modulo 2 r_X, so it reduces to an integer
    congruence on rXc13.
    """
    triples = _step2_tuples(rXc2c1, q_min, mode)
    for basket in enumerate_baskets(R):
        r_x = gorenstein_index(basket)
        # chi(-K) in Z  <=>  rXc13 = sum b(r-b) r_X/r  (mod 2 r_X)
        offset = sum(sigma_numerator(p.b, p.r) * (r_x // p.r) for p in basket)
        modulus = 2 * r_x
        for q, j_a, rXc13 in triples:
            if (rXc13 - offset) % modulus == 0:
                yield basket, q, j_a, rXc13


def _demand(pas, lbs) -> Fraction:
    """Curve cost of one curve per prime power, each of its least degree."""
    return sum((curve_cost(pa, val) for pa, val in zip(pas, lbs)), Fraction(0))


def step3(basket: Basket, q: int, j_a: int, rXc13: int, rXc2c1: int):
    """Attach prime powers, degree bounds and nabla; filter by the budget."""
    ctx = LBContext(basket.R)
    pas = prime_powers(j_a)
    lbs = tuple(lb(ctx, pa) for pa in pas)
    nab = nabla(q, rXc13, rXc2c1)
    if nab < _demand(pas, lbs):
        return None
    return Candidate(basket, q, j_a, rXc13, rXc2c1, pas, lbs, nab)


def _process_units(args):
    q_min, mode, units = args
    found = []
    for R, c2c1 in units:
        for basket, q, j_a, rXc13 in step2(R, c2c1, q_min, mode):
            cand = step3(basket, q, j_a, rXc13, c2c1)
            if cand is not None:
                found.append(cand)
    return found


def run_search(q_min: int = 66, mode: str = GREATER, workers: int = 1):
    """The complete candidate list, canonically sorted.

    Work units are the Step-1 pairs, partitioned round-robin; the merge
    sorts canonically, so the output does not depend on ``workers``.
    """
    units = list(step1(q_min))
    if workers <= 1:
        results = _process_units((q_min, mode, units))
    else:
        chunks = [units[i::workers] for i in range(workers)]
        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_process_units, [(q_min, mode, c) for c in chunks]):
                results.extend(part)
    results.sort(key=lambda c: c.key)
    if len({c.key for c in results}) != len(results):
        raise InvariantViolation("duplicate candidates")
    for cand in results:
        verify_candidate(cand, q_min, mode)
    return results


def verify_candidate(c: Candidate, q_min: int, mode: str = GREATER) -> None:
    """Independent re-check of every Candidate invariant.

    Raises InvariantViolation naming the first invariant that fails.
    """
    ctx = LBContext(c.basket.R)
    checks = (
        (c.q > q_min if mode == GREATER else c.q == q_min, f"index outside the {mode} range"),
        (c.q % c.j_a == 0, "J_A must divide q"),
        ((c.j_a * c.rXc13) % (c.q * c.q) == 0, "q^2 must divide J_A * rXc13"),
        (rr_fano_integral(c.basket, Fraction(c.rXc13, c.r_x)), "RR integrality"),
        (c.q <= c.rXc13, "index bounds degree"),
        ((c.q * c.q + 2 * c.q - 4) * c.rXc13 <= 4 * c.q * c.q * c.rXc2c1, "test inequality"),
        (c.rXc2c1 == rX_c2c1(c.basket.R), "rXc2c1 matches R"),
        (c.prime_powers == prime_powers(c.j_a), "prime powers of J_A"),
        (c.lb_values == tuple(lb(ctx, pa) for pa in c.prime_powers), "degree lower bounds"),
        (c.nabla == nabla(c.q, c.rXc13, c.rXc2c1), "nabla"),
        (c.nabla >= _demand(c.prime_powers, c.lb_values), "budget inequality"),
    )
    for holds, what in checks:
        if not holds:
            raise InvariantViolation(f"{c}: {what}")
