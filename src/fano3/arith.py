"""Exact arithmetic primitives.

Everything downstream (Riemann-Roch corrections, degree bounds, the whole
candidate search) is built from a handful of residue-flavoured helpers over
exact rationals.  No floating point is used anywhere in the engine; the one
display rounding, ``search.ceil_display`` (the two-decimal nabla of the
tables), also rounds an exact rational.  ``Frozen`` is the one base of
the engine's validating immutable value classes.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

__all__ = [
    "InvariantViolation",
    "Frozen",
    "sigma_pair",
    "sigma_numerator",
    "factorize",
    "prime_powers",
]


class InvariantViolation(AssertionError):
    """An internal invariant of the engine does not hold.

    Raised explicitly rather than through ``assert`` so that the checks
    survive ``python -O``; it subclasses AssertionError so callers that
    treat a failed check as an assertion keep working.
    """


class Frozen:
    """Base of the validating value classes: immutable, and compared, hashed
    and shown by the attributes named in ``_fields``.  A subclass validates
    in its own ``__init__`` and sets each attribute with ``object.__setattr__``
    (or into its ``__dict__``); assigning or deleting one afterwards raises."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        # pickle's state: (None, slot values) when slotted, else the __dict__
        for name, value in (state[1] if isinstance(state, tuple) else state).items():
            object.__setattr__(self, name, value)


def sigma_pair(x: int, r: int) -> Fraction:
    """The even periodic correction term x-bar * (-x)-bar / (2r).

    Here x-bar denotes the smallest non-negative residue of x mod r.  This
    is the basic building block of every orbifold Riemann-Roch correction;
    it vanishes exactly when r | x and satisfies
    sum over a period = (r^2 - 1)/12.
    """
    return Fraction(sigma_numerator(x, r), 2 * r)


def sigma_numerator(x: int, r: int) -> int:
    """The integer 2r * sigma_pair(x, r) = x-bar * (r - x-bar); sums of
    corrections over a common denominator add these instead of Fractions."""
    if r <= 0:
        raise ValueError(f"modulus must be a positive integer, got {r}")
    u = x % r
    return u * (r - u)


def factorize(n: int) -> tuple:
    """Prime factorization as ``((p, e), ...)`` by increasing p, e.g.
    84 -> ((2, 2), (3, 1), (7, 1)); the one trial division of the engine."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_powers(n: int) -> tuple:
    """The prime powers of ``factorize``, sorted by value, e.g. 84 -> (3, 4, 7)."""
    return tuple(sorted(p**e for p, e in factorize(n)))
