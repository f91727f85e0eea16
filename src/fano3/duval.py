"""Du Val (ADE) singularity lattice data.

A transversal slice of a crepant curve is a Du Val singularity.  This module
holds its lattice combinatorics: Cartan/intersection matrices, divisor class
groups as Smith-normal-form cokernels, the invariant table (e, e', g, j), and
the integral-multiplicity test that decides whether a Weil divisor class
admits an exceptional curve with integral multiplicity in its pullback.  The
elimination routes do not compute with it (cases 27 and 35 cite these facts
as axioms); the ``fano3 duval`` command and the tests use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .arith import InvariantViolation

__all__ = [
    "DuValType",
    "WeilClass",
    "invariants",
    "cartan_matrix",
    "class_group",
    "has_integral_multiplicity",
    "class_representatives",
    "smith_normal_form",
]


@dataclass(frozen=True)
class DuValType:
    """One of A_n (n>=1), D_m (m>=4), E6, E7, E8.

    ``kind`` is the letter, ``rank`` the number of exceptional curves.
    """

    kind: str
    rank: int

    def __post_init__(self):
        if self.kind == "A":
            if self.rank < 1:
                raise ValueError("A_n requires n >= 1")
        elif self.kind == "D":
            if self.rank < 4:
                raise ValueError("D_m requires m >= 4")
        elif self.kind == "E":
            if self.rank not in (6, 7, 8):
                raise ValueError("E type has rank 6, 7 or 8")
        else:
            raise ValueError(f"unknown Du Val kind {self.kind!r}")

    def __str__(self):
        return f"{self.kind}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "DuValType":
        text = text.strip()
        if not text or text[0].upper() not in "ADE":
            raise ValueError(f"cannot parse Du Val type {text!r}")
        return cls(text[0].upper(), int(text[1:]))


@dataclass(frozen=True)
class WeilClass:
    """A Weil divisor class on the slice, given by its pairing vector.

    The entries are the intersection numbers of the strict transform with
    each exceptional curve; two vectors differing by an element of the
    Cartan column lattice represent the same class.
    """

    pairing: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairing", tuple(int(v) for v in self.pairing))


def invariants(t: DuValType):
    """The tuple (e, e', g, j) for a Du Val type.

    e/e' control degree bounds of crepant curves, g is the order of the
    local fundamental group (tabulated, not derived), and j is the order of
    the Weil divisor class group.
    """
    n = t.rank
    if t.kind == "A":
        return (n + 1, n + 1, n + 1, n + 1)
    if t.kind == "D":
        return (n + 1, n, 4 * n - 8, 4)
    return {
        6: (7, 6, 24, 3),
        7: (8, 7, 48, 2),
        8: (9, 8, 120, 1),
    }[n]


def cartan_matrix(t: DuValType):
    """Intersection matrix: -2 on the diagonal, 1 for adjacent curves.

    Node numbering: chains are numbered left to right; for D the fork sits
    at the end (last two nodes both attach to the third-from-last); for E
    the extra node attaches to the third node of the chain.  Only adjacency
    matters for anything computed from this matrix.
    """
    n = t.rank
    edges = []
    if t.kind == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif t.kind == "D":
        edges = [(i, i + 1) for i in range(n - 3)]
        edges += [(n - 3, n - 2), (n - 3, n - 1)]
    else:  # E6/E7/E8: chain of n-1 nodes, node n-1 attached to node 2
        edges = [(i, i + 1) for i in range(n - 2)]
        edges.append((2, n - 1))
    mat = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        mat[i][j] = mat[j][i] = 1
    return mat


def smith_normal_form(matrix):
    """Diagonal invariant factors d_1 | d_2 | ... of an integer matrix.

    Returns (diag, U): U is unimodular and U * A * V is diagonal for some
    unimodular V, which is not tracked.
    Plain integer row/column reduction; the matrices here are tiny.
    """
    a = [row[:] for row in matrix]
    nrows, ncols = len(a), len(a[0])
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def row_op(i, j, c):  # row_i += c * row_j
        for k in range(ncols):
            a[i][k] += c * a[j][k]
        for k in range(nrows):
            u[i][k] += c * u[j][k]

    def col_op(i, j, c):  # col_i += c * col_j
        for k in range(nrows):
            a[k][i] += c * a[k][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        # move a nonzero pivot of smallest absolute value to (t, t)
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t] % a[t][t] != 0:
                dirty = True
            row_op(i, t, -(a[i][t] // a[t][t]))
        for j in range(t + 1, ncols):
            if a[t][j] % a[t][t] != 0:
                dirty = True
            col_op(j, t, -(a[t][j] // a[t][t]))
        if dirty or any(a[i][t] for i in range(t + 1, nrows)) or any(
            a[t][j] for j in range(t + 1, ncols)
        ):
            continue  # re-pick a smaller pivot
        # divisibility of the remaining block by the pivot
        fixed = False
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    row_op(t, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        t += 1
    diag = [abs(a[i][i]) for i in range(min(nrows, ncols))]
    return diag, u


def class_group(t: DuValType):
    """Invariant factors (> 1) of the Weil divisor class group.

    Computed as the cokernel of the Cartan matrix; the group order equals
    |det| of the Cartan matrix and the invariant j of the type.
    """
    diag, _ = smith_normal_form(cartan_matrix(t))
    return [d for d in diag if d > 1]


def _solve_exact(matrix, rhs):
    """Solve matrix * x = rhs over Q for an invertible square matrix."""
    n = len(matrix)
    # Gauss-Jordan elimination on [matrix | rhs]
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _solve_multiplicities(t: DuValType, c: WeilClass):
    """Fractional multiplicities a with -Cartan * a = pairing (exact)."""
    if len(c.pairing) != t.rank:
        raise ValueError("pairing vector length does not match rank")
    neg_cartan = [[-x for x in row] for row in cartan_matrix(t)]
    return _solve_exact(neg_cartan, c.pairing)


def has_integral_multiplicity(t: DuValType, c: WeilClass) -> bool:
    """Whether some exceptional curve appears with integral multiplicity.

    The pullback of a Weil divisor in the class ``c`` is its strict
    transform plus ``sum a_i E_i`` with a = -Cartan^{-1} * pairing; the
    class is "modifiable through" the slice iff some a_i is an integer.
    """
    return any(a.denominator == 1 for a in _solve_multiplicities(t, c))


def class_representatives(t: DuValType):
    """One pairing vector per divisor class (the zero class included)."""
    diag, u = smith_normal_form(cartan_matrix(t))
    # cokernel coordinates c (0 <= c_i < d_i) map back via p = U^{-1} c;
    # since U is unimodular, solving U p = c over Z gives representatives.
    reps = []
    for coords in product(*(range(d) for d in diag)):
        sol = _solve_integer(u, list(coords))
        reps.append(WeilClass(tuple(sol)))
    return reps


def _solve_integer(u, rhs):
    """Solve U x = rhs for unimodular integer U (exact, via fractions)."""
    out = _solve_exact(u, rhs)
    if any(val.denominator != 1 for val in out):
        raise InvariantViolation("unimodular solve produced a fraction")
    return [int(val) for val in out]
