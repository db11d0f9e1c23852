"""Lattice pairing: worked values, typed errors, and the randomized
property suites (symmetry, bilinearity, adjunction parity)."""

import random

import pytest

from liaisonkit.errors import BasisMismatchError, InvalidClassError
from liaisonkit.lattice import (
    DivisorClass,
    arithmetic_genus,
    degree,
    expected_dim_linear_system,
    intersect,
    self_intersection,
)
from liaisonkit.surfaces import get_surface, load_catalog

B = DivisorClass.blownup
Q = DivisorClass.quadric

SCROLL = get_surface("cubic_scroll")
DP = get_surface("del_pezzo_4")


def test_intersect_worked_values():
    assert intersect(B((6, 2)), B((2, 1))) == 10
    e1 = B((0, -1, 0, 0, 0, 0))
    assert intersect(e1, e1) == -1
    assert intersect(B((5, 3, 1, 1, 1, 1)), B((2, 0, 1, 1, 1, 1))) == 6


def test_intersect_quadric_form():
    assert intersect(Q((1, 0)), Q((0, 1))) == 1
    assert intersect(Q((1, 0)), Q((1, 0))) == 0
    assert intersect(Q((2, 3)), Q((5, 7))) == 2 * 7 + 3 * 5


def test_intersect_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        intersect(B((1, 1)), Q((1, 1)))
    with pytest.raises(BasisMismatchError):
        intersect(B((1, 1)), B((1, 1, 1)))


def test_degree_examples():
    assert degree(B((7, 4)), SCROLL) == 10
    assert degree(SCROLL.H, SCROLL) == SCROLL.degree
    assert degree(B((4, 1, 1, 1, 1, 0)), DP) == 8


def test_arithmetic_genus_examples():
    assert arithmetic_genus(B((6, 2)), SCROLL) == 9
    # any line class: L^2 = -1, L.K = -1
    assert arithmetic_genus(B((0, -1)), SCROLL) == 0
    assert arithmetic_genus(B((3, 0, 0, 1, 1, 1)), DP) == 1


def test_self_intersection_examples():
    assert self_intersection(B((6, 2))) == 32
    assert self_intersection(B((7, 4))) == 33
    assert self_intersection(B((5, 3, 1, 1, 1, 1))) == 12
    assert self_intersection(B((2, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0))) == -3


def test_expected_dim_examples():
    # oracle for |H| on the degree-4 surface: linear forms of P4 modulo scaling
    monomial_count = 5
    assert expected_dim_linear_system(DP.H, DP) == monomial_count - 1
    assert expected_dim_linear_system(DP.zero, DP) == 0
    # exact integer evaluation (12 + 8) / 2
    assert expected_dim_linear_system(B((5, 3, 1, 1, 1, 1)), DP) == (12 + 8) // 2


def test_class_validation():
    with pytest.raises(InvalidClassError):
        DivisorClass("blownup_plane", (1, 1.5))
    with pytest.raises(InvalidClassError):
        DivisorClass("quadric", (1, 2, 3))
    with pytest.raises(InvalidClassError):
        DivisorClass("weird", (1,))
    with pytest.raises(InvalidClassError):
        B((1, 2)) * 1.5


def _random_class(rng, n):
    return B(tuple(rng.randint(-50, 50) for _ in range(n + 1)))


def test_symmetry_randomized():
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randint(1, 10)
        d1, d2 = _random_class(rng, n), _random_class(rng, n)
        assert intersect(d1, d2) == intersect(d2, d1)


def test_bilinearity_randomized():
    rng = random.Random(202)
    for _ in range(1000):
        n = rng.randint(1, 10)
        d1, d2, d3 = (_random_class(rng, n) for _ in range(3))
        assert intersect(d1 + d2, d3) == intersect(d1, d3) + intersect(d2, d3)


def test_adjunction_parity_randomized():
    rng = random.Random(303)
    surfaces = [s for s in load_catalog().values() if s.basis == "blownup_plane"]
    for _ in range(1000):
        s = rng.choice(surfaces)
        c = _random_class(rng, s.blown_points)
        assert (self_intersection(c) + intersect(c, s.K)) % 2 == 0
        arithmetic_genus(c, s)  # must not raise


def test_quadric_adjunction_parity():
    rng = random.Random(404)
    quadric = get_surface("quadric_p3")
    for _ in range(1000):
        c = Q((rng.randint(-50, 50), rng.randint(-50, 50)))
        assert (self_intersection(c) + intersect(c, quadric.K)) % 2 == 0


def test_canonical_degree_per_surface():
    for s in load_catalog().values():
        if s.basis == "blownup_plane":
            assert self_intersection(s.K) == 9 - s.blown_points


def test_exactness_at_scale():
    # arbitrary-precision integers: no wrap at any magnitude
    big = B((10**30, 10**30))
    assert intersect(big, big) == 0
    assert intersect(big, B((1, 0))) == 10**30
