"""The paper's case numbering, the candidate keys, and the Group C list.

Each row of the 36-row q > 66 table and of the 7-row q = 66 table keeps
only its published number and its candidate key (basket, q, J_A,
r_Xc1^3).  No search can give the numbers, which label the
certificates; ``eliminate.candidate_for_case`` rebuilds a case's
candidate from its key.  The columns the paper prints besides the key
(r_X, r_X c2c1, the prime powers of J_A, their LB and nabla) are the
engine's output, not its input: they are the tests' reference, in
``tests/data``.  The proof's grouping (A / B / C- / C+) is not stored:
the elimination routes run in a fixed order and the first contradiction
names the group.  The one group fact kept here is ``GROUP_C_KEYS``, the
rows whose h^0 is taken from P(5,6,22,33); no route can derive that.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import InvariantViolation

__all__ = [
    "TableRow",
    "TABLE_MAIN",
    "TABLE_EQ66",
    "GROUP_C_KEYS",
    "row",
]


class TableRow(NamedTuple):
    no: int
    basket: tuple  # sorted ((r, b), ...)
    q: int
    j_a: int
    rXc13: int

    @property
    def key(self):
        return (self.basket, self.q, self.j_a, self.rXc13)


def _r(no, basket, q, j_a, c13):
    return TableRow(no, tuple(sorted(basket)), q, j_a, c13)


TABLE_MAIN = (
    _r(1, [(5, 1)], 84, 84, 84),
    _r(2, [(3, 1), (3, 1)], 70, 70, 70),
    _r(3, [(3, 1), (11, 3)], 70, 10, 490),
    _r(4, [(3, 1), (11, 5)], 80, 10, 640),
    _r(5, [(5, 1), (7, 2)], 72, 18, 288),
    _r(6, [(5, 1), (11, 1)], 72, 6, 864),
    _r(7, [(5, 1), (11, 2)], 78, 6, 1014),
    _r(8, [(5, 2), (11, 3)], 84, 6, 1176),
    _r(9, [(2, 1), (2, 1), (3, 1)], 70, 70, 70),
    _r(10, [(2, 1), (2, 1), (9, 4)], 70, 10, 490),
    _r(11, [(2, 1), (5, 2), (11, 5)], 69, 3, 1587),
    _r(12, [(3, 1), (5, 1), (11, 1)], 82, 2, 3362),
    _r(13, [(3, 1), (5, 1), (11, 4)], 68, 2, 2312),
    _r(14, [(3, 1), (5, 2), (11, 2)], 76, 2, 2888),
    _r(15, [(3, 1), (5, 2), (11, 5)], 74, 2, 2738),
    _r(16, [(3, 1), (6, 1), (7, 2)], 75, 15, 375),
    _r(17, [(4, 1), (5, 1), (5, 2)], 75, 15, 375),
    _r(18, [(5, 1), (5, 2), (7, 3)], 90, 30, 270),
    _r(19, [(2, 1), (2, 1), (3, 1), (5, 2)], 98, 14, 686),
    _r(20, [(2, 1), (3, 1), (5, 1), (6, 1)], 72, 6, 864),
    _r(21, [(2, 1), (3, 1), (5, 1), (11, 2)], 67, 1, 4489),
    _r(22, [(2, 1), (3, 1), (5, 2), (11, 1)], 71, 1, 5041),
    _r(23, [(2, 1), (4, 1), (4, 1), (7, 2)], 72, 12, 432),
    _r(24, [(3, 1), (3, 1), (3, 1), (5, 1)], 72, 12, 432),
    _r(25, [(3, 1), (3, 1), (3, 1), (5, 2)], 84, 42, 168),
    _r(26, [(3, 1), (3, 1), (3, 1), (7, 1)], 90, 30, 270),
    _r(27, [(3, 1), (5, 2), (6, 1), (7, 1)], 69, 3, 1587),
    _r(28, [(3, 1), (5, 2), (6, 1), (7, 3)], 81, 3, 2187),
    _r(29, [(2, 1), (2, 1), (2, 1), (2, 1), (5, 1)], 84, 42, 168),
    _r(30, [(2, 1), (2, 1), (2, 1), (2, 1), (7, 1)], 72, 12, 432),
    _r(31, [(2, 1), (2, 1), (2, 1), (2, 1), (7, 1)], 80, 20, 320),
    _r(32, [(3, 1), (3, 1), (3, 1), (5, 1), (7, 1)], 78, 6, 1014),
    _r(33, [(3, 1), (3, 1), (3, 1), (5, 1), (7, 2)], 72, 6, 864),
    _r(34, [(3, 1), (3, 1), (3, 1), (5, 1), (7, 2)], 72, 12, 864),
    _r(35, [(2, 1), (2, 1), (2, 1), (2, 1), (5, 1), (7, 3)], 68, 4, 1156),
    _r(36, [(2, 1), (2, 1), (2, 1), (2, 1), (2, 1), (2, 1), (3, 1)], 70, 70, 70),
)

TABLE_EQ66 = (
    _r(1, [(5, 2)], 66, 66, 66),
    _r(2, [(7, 2)], 66, 66, 66),
    _r(3, [(2, 1), (2, 1), (5, 1)], 66, 22, 198),
    _r(4, [(4, 1), (4, 1), (5, 1)], 66, 6, 726),
    _r(5, [(4, 1), (4, 1), (5, 2), (7, 1)], 66, 2, 2178),
    _r(6, [(3, 1), (3, 1), (3, 1), (5, 2), (7, 3)], 66, 6, 726),
    _r(7, [(2, 1), (2, 1), (3, 1), (3, 1), (3, 1), (5, 2)], 66, 6, 726),
)


def row(case_id: int) -> TableRow:
    """The q > 66 table row with the given published number."""
    if not 1 <= case_id <= 36:
        raise ValueError(f"unknown case id {case_id}")
    r = TABLE_MAIN[case_id - 1]
    if r.no != case_id:
        raise InvariantViolation(f"table row {r.no} stored at position {case_id}")
    return r


#: Candidate keys of the rows whose h^0 is the h^0 of P(5,6,22,33).
GROUP_C_KEYS = frozenset(row(n).key for n in (3, 4, 6, 7, 8, 11, 12, 13, 14, 15, 21, 22))
