"""Exact intersection theory on Picard lattices of rational surfaces.

Two lattice families are supported:

* ``blownup_plane`` with ``n`` blown-up points: rank 1+n, basis
  ``(l, e_1, ..., e_n)`` with ``l^2 = 1``, ``e_i^2 = -1`` and all mixed
  products 0.  A class with coefficients ``(a, b_1, ..., b_n)`` denotes
  the divisor ``a*l - sum(b_i * e_i)``, so the exceptional curve ``e_1``
  itself is ``(0; -1, 0, ..., 0)``.
* ``quadric``: rank 2 with pairing matrix [[0, 1], [1, 0]].

All arithmetic is exact: coefficients are Python integers (arbitrary
precision), so overflow cannot occur and no value is ever wrapped or
rounded.  Everything here is a pure function over immutable values.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import ge, gt, le, lt

from .errors import BasisMismatchError, InvalidClassError, Record

BLOWNUP_PLANE = "blownup_plane"
QUADRIC = "quadric"


def _order(compare):
    """The :class:`DivisorClass` method that compares two classes as
    ``compare`` compares their ``(basis, coeffs)`` tuples."""

    def method(self, other):
        if other.__class__ is self.__class__:
            return compare((self.basis, self.coeffs), (other.basis, other.coeffs))
        return NotImplemented

    return method


class DivisorClass(Record):
    """An integer divisor class in one of the supported lattices.

    ``basis`` is ``"blownup_plane"`` (coeffs ``(a, b_1..b_n)``) or
    ``"quadric"`` (coeffs ``(a, b)``).  Plain value semantics: equality is
    structural, instances are hashable and immutable, and classes of one
    lattice sort like their coefficient tuples.

    >>> e1 = DivisorClass.blownup((0, -1, 0, 0, 0, 0))
    >>> intersect(e1, e1)
    -1
    """

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs: tuple[int, ...]):
        _set_basis(self, basis)
        _set_coeffs(self, coeffs)
        # a method of its own: bench/tracer.py counts checked builds through it
        self.__post_init__()

    def __post_init__(self):
        if self.basis not in (BLOWNUP_PLANE, QUADRIC):
            raise InvalidClassError(f"unknown basis {self.basis!r}")
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        for c in self.coeffs:
            # the exact-int test settles almost every entry at once
            if type(c) is not int and (not isinstance(c, int) or isinstance(c, bool)):
                raise InvalidClassError(f"non-integer coefficient {c!r}")
        if self.basis == QUADRIC and len(self.coeffs) != 2:
            raise InvalidClassError(
                f"quadric classes have 2 coefficients, got {len(self.coeffs)}"
            )
        if self.basis == BLOWNUP_PLANE and len(self.coeffs) < 1:
            raise InvalidClassError("blownup_plane classes need at least (a;)")

    # the Record equality and hash, spelled out for speed
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.basis == other.basis and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.basis, self.coeffs))

    __lt__, __le__, __gt__, __ge__ = map(_order, (lt, le, gt, ge))

    @classmethod
    def blownup(cls, coeffs) -> "DivisorClass":
        return cls(BLOWNUP_PLANE, tuple(coeffs))

    @classmethod
    def quadric(cls, coeffs) -> "DivisorClass":
        return cls(QUADRIC, tuple(coeffs))

    def _check_same(self, other: "DivisorClass") -> None:
        if not isinstance(other, DivisorClass):
            raise InvalidClassError(f"expected DivisorClass, got {type(other)!r}")
        if self.basis != other.basis or len(self.coeffs) != len(other.coeffs):
            raise BasisMismatchError(
                f"lattice mismatch: {self.basis}/{len(self.coeffs)} vs "
                f"{other.basis}/{len(other.coeffs)}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same(other)
        return DivisorClass(self.basis, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same(other)
        return DivisorClass(self.basis, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __mul__(self, k: int) -> "DivisorClass":
        if not isinstance(k, int) or isinstance(k, bool):
            raise InvalidClassError("scalar must be an integer")
        return DivisorClass(self.basis, tuple(k * x for x in self.coeffs))

    __rmul__ = __mul__

    def __neg__(self) -> "DivisorClass":
        return self * -1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        if self.basis == QUADRIC:
            return f"({self.coeffs[0]},{self.coeffs[1]})"
        a, *b = self.coeffs
        return f"({a};{','.join(str(x) for x in b)})" if b else f"({a};)"


_new = object.__new__
_set_basis = DivisorClass.basis.__set__
_set_coeffs = DivisorClass.coeffs.__set__


def _prechecked_classes(basis: str, tuples: list[tuple[int, ...]]) -> list[DivisorClass]:
    """The classes ``DivisorClass(basis, c)`` for each ``c`` in ``tuples``,
    built without ``__post_init__``: one allocation pass and one pass per
    slot, each run in C.

    Precondition: every ``c`` is a tuple of exact ints, taken (possibly
    reordered) from a class of the lattice ``basis`` that the checking
    constructor already built, so every check would pass again.

    >>> _prechecked_classes(BLOWNUP_PLANE, [(1, 0)]) == [DivisorClass.blownup((1, 0))]
    True
    """
    classes = list(map(_new, repeat(DivisorClass, len(tuples))))
    deque(map(_set_basis, classes, repeat(basis)), 0)
    deque(map(_set_coeffs, classes, tuples), 0)
    return classes


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number of two classes in the same lattice.

    >>> intersect(DivisorClass.blownup((6, 2)), DivisorClass.blownup((2, 1)))
    10
    """
    if d1.basis != d2.basis or len(d1.coeffs) != len(d2.coeffs):
        d1._check_same(d2)
    a, b = d1.coeffs, d2.coeffs
    if d1.basis == QUADRIC:
        return a[0] * b[1] + a[1] * b[0]
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total -= x * y
    return total


def self_intersection(c: DivisorClass) -> int:
    return intersect(c, c)


def degree(c: DivisorClass, surface) -> int:
    """Degree of the class in the surface's embedding: ``C . H``."""
    return intersect(c, surface.H)


def arithmetic_genus(c: DivisorClass, surface) -> int:
    """Adjunction genus ``(C^2 + C.K)/2 + 1``.

    ``C^2 + C.K`` is always even on these lattices (x^2 + x is even for
    every integer x), so the division is exact.
    """
    total = self_intersection(c) + intersect(c, surface.K)
    if total % 2 != 0:
        # Unreachable on the supported lattices; guards future basis kinds.
        raise InvalidClassError(f"adjunction parity violated for {c}")
    return total // 2 + 1


def expected_dim_linear_system(c: DivisorClass, surface) -> int:
    """Riemann-Roch dimension estimate ``C.(C - K)/2`` for the system |C|.

    This is the nonspecial-case value on a rational surface, not a
    certified h^0; callers needing exact cohomology must treat it as an
    estimate.
    """
    val = intersect(c, c - surface.K)
    if val % 2 != 0:
        raise InvalidClassError(f"Riemann-Roch parity violated for {c}")
    return val // 2
