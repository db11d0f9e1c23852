"""Catalog loading, line/conic enumeration, and the derived family
dimensions, each checked against an independent count where one exists."""

import gc
import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from liaisonkit import surfaces
from liaisonkit.errors import CatalogError, LiaisonkitError, UnknownSurfaceError
from liaisonkit.lattice import DivisorClass, arithmetic_genus, intersect, self_intersection
from liaisonkit.surfaces import (
    SurfaceModel,
    _b_solver,
    _orbit_tuples,
    class_representatives,
    conic_classes,
    enumerate_classes,
    get_surface,
    is_effective_candidate,
    lines_on,
    load_catalog,
    surface_ids,
)

B = DivisorClass.blownup


def test_catalog_ids():
    assert set(surface_ids()) == {
        "bordiga_6",
        "castelnuovo_5",
        "cubic_scroll",
        "cubic_surface_p3",
        "del_pezzo_4",
        "plane_p2",
        "quadric_p3",
    }


def test_unknown_surface_lists_valid_ids():
    with pytest.raises(UnknownSurfaceError) as err:
        get_surface("veronese")
    assert "cubic_scroll" in str(err.value)


def test_catalog_recomputed_invariants():
    expectations = {
        "cubic_scroll": (3, 0),
        "del_pezzo_4": (4, 1),
        "castelnuovo_5": (5, 2),
        "bordiga_6": (6, 3),
        "cubic_surface_p3": (3, 1),
        "quadric_p3": (2, 0),
        "plane_p2": (1, 0),
    }
    for sid, (deg, sg) in expectations.items():
        s = get_surface(sid)
        assert self_intersection(s.H) == deg == s.degree
        assert arithmetic_genus(s.H, s) == sg == s.sectional_genus


def test_scroll_and_bordiga_models():
    scroll = get_surface("cubic_scroll")
    assert scroll.blown_points == 1 and scroll.H == B((2, 1))
    bordiga = get_surface("bordiga_6")
    assert bordiga.blown_points == 10 and bordiga.H == B((4,) + (1,) * 10)
    dp = get_surface("del_pezzo_4")
    assert dp.blown_points == 5 and dp.degree == 4 and dp.sectional_genus == 1


def test_cubic_surface_anticanonical():
    cs = get_surface("cubic_surface_p3")
    assert cs.H == -1 * cs.K


def test_lines_on_scroll():
    lcs = lines_on(get_surface("cubic_scroll"))
    assert lcs.pairs() == (
        (B((0, -1)), "finite"),
        (B((1, 1)), "one_parameter"),
    )


def test_lines_on_plane_is_empty():
    # (1;) has degree 1 and genus 0 but L^2 = 1: a line of P2, no line class
    assert lines_on(get_surface("plane_p2")).classes == ()


@pytest.mark.parametrize("sid", ["del_pezzo_4", "quadric_p3"])
@pytest.mark.parametrize(
    "name, value",
    [("deg", 2.0), ("deg", True), ("deg", "2"), ("genus", 0.0),
     ("min_self", -1.0), ("min_self", None)],
)
def test_class_queries_refuse_non_int_arguments(sid, name, value):
    surface = get_surface(sid)
    message = f"{name} must be an integer, got {re.escape(repr(value))}"
    for listing in (class_representatives, enumerate_classes):
        with pytest.raises(LiaisonkitError, match=message):
            listing(surface, **{"deg": 2, name: value})


def test_lines_on_del_pezzo_sixteen():
    dp = get_surface("del_pezzo_4")
    lcs = lines_on(dp)
    assert len(lcs) == 16
    got = set(c.coeffs for c in lcs.classes)
    expected = set()
    for i in range(5):
        expected.add((0,) + tuple(-1 if j == i else 0 for j in range(5)))
    for i, j in itertools.combinations(range(5), 2):
        expected.add((1,) + tuple(1 if k in (i, j) else 0 for k in range(5)))
    expected.add((2, 1, 1, 1, 1, 1))
    assert got == expected
    assert all(f == "finite" for f in lcs.family_flags)
    # every line meets the anticanonical class once
    for c in lcs.classes:
        assert intersect(c, -1 * dp.K) == 1


def test_lines_on_cubic_surface_27():
    cs = get_surface("cubic_surface_p3")
    lcs = lines_on(cs)
    # classical count, assembled independently: e_i, l - e_i - e_j, 2l - (all but one)
    expected = set()
    for i in range(6):
        expected.add((0,) + tuple(-1 if j == i else 0 for j in range(6)))
    for i, j in itertools.combinations(range(6), 2):
        expected.add((1,) + tuple(1 if k in (i, j) else 0 for k in range(6)))
    for i in range(6):
        expected.add((2,) + tuple(0 if j == i else 1 for j in range(6)))
    assert set(c.coeffs for c in lcs.classes) == expected
    assert len(lcs) == 27


def test_lines_on_bordiga_and_castelnuovo():
    bordiga = get_surface("bordiga_6")
    assert len(lines_on(bordiga)) == 10  # only the exceptional classes
    c5 = get_surface("castelnuovo_5")
    lcs = lines_on(c5)
    assert len(lcs) == 14
    for c, flag in lcs.pairs():
        assert intersect(c, c5.H) == 1
        assert arithmetic_genus(c, c5) == 0
        assert flag == "finite"


def test_line_invariants_hold_on_every_catalog_surface():
    for sid in surface_ids():
        s = get_surface(sid)
        for c, flag in lines_on(s).pairs():
            assert intersect(c, s.H) == 1
            assert arithmetic_genus(c, s) == 0
            assert self_intersection(c) in (-1, 0)
            assert flag == ("finite" if self_intersection(c) == -1 else "one_parameter")


def test_lines_on_quadric_are_the_rulings():
    quadric = get_surface("quadric_p3")
    assert lines_on(quadric).pairs() == (
        (DivisorClass.quadric((0, 1)), "one_parameter"),
        (DivisorClass.quadric((1, 0)), "one_parameter"),
    )


def test_quadric_screen_is_the_effective_cone():
    # oracle: the effective classes of P1 x P1 are (a, b) with a, b >= 0
    quadric = get_surface("quadric_p3")
    Q = DivisorClass.quadric
    assert not is_effective_candidate(quadric, Q((2, -1)))
    assert not is_effective_candidate(quadric, Q((-1, 3)))
    assert is_effective_candidate(quadric, Q((0, 3)))
    assert is_effective_candidate(quadric, Q((2, 1)))
    for a, b in itertools.product(range(-4, 5), repeat=2):
        want = a >= 0 and b >= 0 and a + b >= 1
        assert is_effective_candidate(quadric, Q((a, b))) == want, (a, b)


def test_conic_classes():
    scroll = get_surface("cubic_scroll")
    assert conic_classes(scroll) == (B((1, 0)),)
    dp = get_surface("del_pezzo_4")
    conics = conic_classes(dp)
    assert B((1, 1, 0, 0, 0, 0)) in conics
    assert B((2, 0, 1, 1, 1, 1)) in conics
    assert len(conics) == 10
    # two members of the same pencil class are disjoint
    pencil = B((1, 1, 0, 0, 0, 0))
    assert intersect(pencil, pencil) == 0
    # distinct pencils through different points meet once
    assert intersect(B((1, 1, 0, 0, 0, 0)), B((1, 0, 1, 0, 0, 0))) == 1


def test_family_dimensions():
    # oracles: scroll = classical 18; del Pezzo = pencils of quadrics in P4,
    # the Grassmannian of pencils in the 15-dimensional space of quadrics
    assert get_surface("cubic_scroll").family_dim == 18
    assert get_surface("del_pezzo_4").family_dim == 2 * (15 - 2) == 26
    assert get_surface("bordiga_6").family_dim == 2 * 10 - 8 + 24 == 36
    assert get_surface("castelnuovo_5").family_dim == 2 * 8 - 8 + 24
    for sid in ("quadric_p3", "plane_p2", "cubic_surface_p3"):
        assert get_surface(sid).family_dim is None


def test_enumerate_classes_quadric():
    quadric = get_surface("quadric_p3")
    lines = enumerate_classes(quadric, 1, genus=0, min_self=0)
    assert [c.coeffs for c in lines] == [(0, 1), (1, 0)]
    conics = enumerate_classes(quadric, 2, genus=0, min_self=0)
    assert [c.coeffs for c in conics] == [(1, 1)]


def _box_classes(surface, box, degrees, min_self):
    """Every class in ``box`` (one inclusive (lo, hi) range per
    coefficient) with degree in ``degrees`` and C^2 >= ``min_self``, as
    {(degree, genus): sorted coefficient tuples}.  Only the intersection
    form is used: no bound, no pruning, no symmetry."""
    np = pytest.importorskip("numpy")
    (a_lo, a_hi), *b_box = box
    axes = [np.arange(lo, hi + 1, dtype=np.int8) for lo, hi in b_box]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    h0, *h = surface.H.coeffs
    k0, *k = surface.K.coeffs
    b_dot_h, b_dot_k, b_sq = grid @ np.array(h), grid @ np.array(k), (grid * grid).sum(axis=1)
    found = {}
    for a in range(a_lo, a_hi + 1):
        deg = a * h0 - b_dot_h
        self_int = a * a - b_sq
        genus = (self_int + a * k0 - b_dot_k) // 2 + 1
        keep = np.isin(deg, degrees) & (self_int >= min_self)
        for row, d, g in zip(grid[keep].tolist(), deg[keep].tolist(), genus[keep].tolist()):
            found.setdefault((d, g), []).append((a, *row))
    return {dg: sorted(classes) for dg, classes in found.items()}


@pytest.mark.parametrize(
    "sid, box",
    [
        ("del_pezzo_4", [(-2, 6)] + [(-2, 4)] * 5),
        ("castelnuovo_5", [(-2, 7), (-1, 4)] + [(-1, 3)] * 7),
    ],
)
def test_enumeration_matches_brute_force(sid, box):
    # list equality also shows that the box holds every enumerated class
    surface = get_surface(sid)
    degrees = range(0, 5)
    brute = _box_classes(surface, box, degrees, -2)
    for d in degrees:
        genera = sorted(g for dd, g in brute if dd == d)
        everything = sorted(c for g in genera for c in brute[(d, g)])
        square = {c: self_intersection(B(c)) for c in everything}
        # the higher floors are the -2 box filtered by C^2
        for floor in (-2, 0, 1):
            want = [c for c in everything if square[c] >= floor]
            assert [c.coeffs for c in enumerate_classes(surface, d, min_self=floor)] == want
            for g in genera + [genera[-1] + 1]:
                got = enumerate_classes(surface, d, genus=g, min_self=floor)
                pinned = [c for c in brute.get((d, g), []) if square[c] >= floor]
                assert [c.coeffs for c in got] == pinned, (d, floor, g)


def test_quadric_enumeration_matches_brute_force():
    # (a, b) has degree a + b, C^2 = 2ab and genus (a - 1)(b - 1); a box
    # wider than any class of degree -2..4 and C^2 >= -6 holds them all
    quadric = get_surface("quadric_p3")
    box = [(a, b) for a in range(-12, 13) for b in range(-12, 13)]
    assert enumerate_classes(quadric, 1, min_self=-4) == [
        DivisorClass.quadric(ab) for ab in [(-1, 2), (0, 1), (1, 0), (2, -1)]
    ]
    for d in range(-2, 5):
        for floor in range(-6, 3):
            want = sorted(ab for ab in box if sum(ab) == d and 2 * ab[0] * ab[1] >= floor)
            got = [c.coeffs for c in enumerate_classes(quadric, d, min_self=floor)]
            assert got == want, (d, floor)
            assert [c.coeffs for c in class_representatives(quadric, d, min_self=floor)] == want
            for g in {(a - 1) * (b - 1) for a, b in want} | {99}:
                pinned = enumerate_classes(quadric, d, genus=g, min_self=floor)
                assert [c.coeffs for c in pinned] == [
                    (a, b) for a, b in want if (a - 1) * (b - 1) == g
                ], (d, floor, g)


@pytest.mark.parametrize("sid", ["plane_p2", "cubic_scroll"])
def test_enumeration_without_equal_weights_matches_brute_force(sid):
    # no two points share a weight, so every orbit is a single class and
    # enumerate_classes returns the representatives; plane_p2 has rank 1.
    # On the scroll (a; b) has degree 2a - b and C^2 >= -3 forces
    # (3a - 2d)^2 <= d^2 + 9, so for d <= 6 the box holds every class.
    # Floors 4 and 13 lie above the scroll's Hodge cap d^2 // 3 for small d.
    surface = get_surface(sid)
    box = [
        B(c) for c in itertools.product(range(-20, 21), repeat=len(surface.H.coeffs))
    ]
    invariants = {
        c.coeffs: (intersect(c, surface.H), self_intersection(c), arithmetic_genus(c, surface))
        for c in box
    }
    for d in range(-1, 7):
        for floor in (13, 4, 1, 0, -1, -2, -3):
            want = sorted(c for c, (dd, q, _) in invariants.items() if dd == d and q >= floor)
            assert [c.coeffs for c in enumerate_classes(surface, d, min_self=floor)] == want
            assert [c.coeffs for c in class_representatives(surface, d, min_self=floor)] == want
            genera = {invariants[c][2] for c in want}
            for g in sorted(genera) + [99]:
                got = enumerate_classes(surface, d, genus=g, min_self=floor)
                assert [c.coeffs for c in got] == [c for c in want if invariants[c][2] == g]


def _box_by_wsum(weights, top):
    """Every b in [-top, top]^n that does not increase along each set of
    equal-weight positions, as (b, sum(b_i (b_i - 1)), sum(b_i^2)) grouped
    by sum(b_i w_i): an unpruned box with no bound of _b_solver's."""
    same = [(i, j) for i, j in itertools.combinations(range(len(weights)), 2)
            if weights[i] == weights[j]]
    groups = {}
    for b in itertools.product(range(-top, top + 1), repeat=len(weights)):
        if all(b[i] >= b[j] for i, j in same):
            wsum = sum(x * w for x, w in zip(b, weights))
            tri = sum(x * (x - 1) for x in b)
            groups.setdefault(wsum, []).append((b, tri, sum(x * x for x in b)))
    return groups


@pytest.mark.parametrize(
    "weights",
    [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 2), (1, 0, 0), (2, -1, -1)],
)
def test_b_solver_matches_an_unpruned_box(weights):
    # (1, 2, 1, 1) splits a block; (1, 0, 0) and (2, -1, -1) end on a run
    # of weight <= 0, where the block-order bound does not apply.  A
    # negative tri has no solution.  A square sum of at most 16 keeps every
    # entry in [-4, 4].
    solve = _b_solver(weights)
    box = _box_by_wsum(weights, 4)
    for sq_lo, sq_hi in [(0, 0), (0, 4), (3, 9), (9, 9), (5, 16), (0, -1)]:
        for wsum in range(-4, 7):
            for tri in (None, -2, 0, 2, 6):
                want = [
                    b
                    for b, b_tri, sq in box.get(wsum, ())
                    if (tri is None or b_tri == tri) and sq_lo <= sq <= sq_hi
                ]
                assert solve(wsum, tri, sq_lo, sq_hi) == want, (wsum, tri, sq_lo, sq_hi)


def _brute_orbits(reps, rank, blocks):
    """Every distinct tuple reached from ``reps`` by permuting the entries
    within each block, sorted: a product of itertools.permutations."""
    found = set()
    for coeffs in reps:
        per_block = [itertools.permutations([coeffs[p] for p in b]) for b in blocks]
        for perms in itertools.product(*per_block):
            t = list(coeffs)
            for block, perm in zip(blocks, perms):
                for p, v in zip(block, perm):
                    t[p] = v
            found.add(tuple(t))
    return sorted(found)


def _random_orbit_case(rng):
    """A rank, one to three blocks of positions 1..rank-1 (in any order,
    possibly interleaved, the rest fixed) and distinct orbit
    representatives in shuffled order, whose block entries often repeat."""
    rank = rng.randint(3, 7)
    labels = {p: rng.randrange(4) for p in range(1, rank)}
    blocks = [tuple(p for p in labels if labels[p] == k) for k in range(1, 4)]
    blocks = [b for b in blocks if len(b) > 1]
    rng.shuffle(blocks)
    if not blocks:
        blocks = [tuple(range(1, rank))]
    top = rng.choice((0, 1, 3))
    reps = set()
    for _ in range(rng.randint(1, 6)):
        t = [rng.randint(-5, 5) for _ in range(rank)]
        for block in blocks:
            for p, v in zip(block, sorted((rng.randint(-top, top) for _ in block), reverse=True)):
                t[p] = v
        reps.add(tuple(t))
    reps = list(reps)
    rng.shuffle(reps)
    return reps, rank, blocks


def test_orbit_tuples_match_brute_force_permutations():
    # all-equal blocks (orbit of one), all-distinct blocks (every
    # permutation), two blocks in and out of order, then random cases
    cases = [
        ([(5, 2, 7, 0), (1, 3, 0, 3)], 4, [(1, 3)]),
        ([(1, 2, 2, 2, 2), (0, -1, -1, -1, -1)], 5, [(1, 2, 3, 4)]),
        ([(0, 4, 3, 2, 1, -1)], 6, [(1, 2, 3, 4, 5)]),
        ([(2, 5, 0, 1, 1, 0, 4)], 7, [(1, 3, 4, 5, 6)]),
        ([(6, 2, 1, 1, 0, 0), (6, 1, 1, 2, 2, 0)], 6, [(1, 2), (3, 4, 5)]),
        ([(6, 2, 1, 1, 0, 0), (6, 1, 1, 2, 2, 0)], 6, [(3, 4, 5), (1, 2)]),
        ([(6, 2, 1, 1, 0, 0), (6, 1, 2, 1, 2, 0)], 6, [(1, 3), (2, 4, 5)]),
    ]
    rng = random.Random(23)
    cases += [_random_orbit_case(rng) for _ in range(300)]
    for reps, rank, blocks in cases:
        assert _orbit_tuples(reps, rank, blocks) == _brute_orbits(reps, rank, blocks), (
            reps, rank, blocks,
        )


def _with_fields(surface, **changes):
    """``surface`` with the named fields changed and no other re-derived."""
    fields = {name: getattr(surface, name) for name in SurfaceModel.__slots__}
    return SurfaceModel(**{**fields, **changes})


def _two_block_surface():
    # no catalog surface has two blocks of equal weight; H = (6; 2,2,1,1,1)
    # does, with blocks {1,2} and {3,4,5}
    dp = get_surface("del_pezzo_4")
    return _with_fields(dp, H=B((6, 2, 2, 1, 1, 1)), degree=25, sectional_genus=8)


def test_two_block_orbits_match_brute_force():
    # every orbit of the two-block surface is a product over its blocks.
    # With |h|^2 = 11 and H^2 = 25 the bound above reads
    # 25 a^2 - 12 a d + d^2 + 11 c <= 0, which for d <= 6 and c >= -3
    # keeps a in -1..2, and then sum(b_i^2) <= a^2 - c <= 7 keeps every b_i
    # in -2..2, so the box holds every class.
    two = _two_block_surface()
    degrees = range(0, 7)
    box = [(-2, 5)] + [(-3, 3)] * 5
    both = 0
    for floor in (-3, -2, -1, 0):
        brute = _box_classes(two, box, degrees, floor)
        for d in degrees:
            genera = sorted(g for dd, g in brute if dd == d)
            want = sorted(c for g in genera for c in brute[(d, g)])
            assert [c.coeffs for c in enumerate_classes(two, d, min_self=floor)] == want
            reps = [c for c in want if c[1] >= c[2] and c[3] >= c[4] >= c[5]]
            got = class_representatives(two, d, min_self=floor)
            assert [c.coeffs for c in got] == reps, (d, floor)
            for g in genera + [99]:
                pinned = enumerate_classes(two, d, genus=g, min_self=floor)
                assert [c.coeffs for c in pinned] == brute.get((d, g), []), (d, floor, g)
            both += sum(b1 != b2 and len({b3, b4, b5}) > 1 for _, b1, b2, b3, b4, b5 in reps)
    assert both  # some orbits move both blocks at once


def test_enumeration_follows_a_permuted_catalog():
    # equal weights need not be adjacent: moving castelnuovo's weight-2
    # point between the weight-1 points, or interleaving the two blocks of
    # (6; 2,2,1,1,1) as (6; 2,1,2,1,1), permutes every class and every
    # representative the same way
    for surface, order in [
        (get_surface("castelnuovo_5"), (0, 2, 3, 4, 1, 5, 6, 7, 8)),
        (_two_block_surface(), (0, 1, 3, 2, 4, 5)),
    ]:
        moved = _with_fields(surface, H=B(tuple(surface.H.coeffs[i] for i in order)))
        for d in range(6):
            for genus in (None, 0, 1):
                for listing in (enumerate_classes, class_representatives):
                    got = listing(moved, d, genus=genus, min_self=-1)
                    want = listing(surface, d, genus=genus, min_self=-1)
                    want = sorted(tuple(c.coeffs[i] for i in order) for c in want)
                    assert [c.coeffs for c in got] == want, (moved.H, d, genus, listing)


def test_genus_pin_equals_the_floor_list_filtered_by_genus():
    # a pinned genus pins sum(b_i (b_i - 1)) through adjunction; on every
    # blown-up-plane catalog surface the pinned list must be the floor list
    # filtered by arithmetic_genus, so each class it returns has that
    # genus, and a genus one below or above every listed one returns
    # nothing.  Full lists stop at degree 6: degrees 7 and 8 hold about
    # two million classes (some 10 s), all expanded from the
    # representatives checked here up to degree 8.
    for sid in surface_ids():
        surface = get_surface(sid)
        if surface.basis != "blownup_plane":
            continue
        for listing, degrees in ((class_representatives, range(-1, 9)),
                                 (enumerate_classes, range(-1, 7))):
            for d in degrees:
                genus_of = {}
                # floor -2 lists every class of the higher floors
                for floor in range(-2, 2):
                    every = listing(surface, d, min_self=floor)
                    for c in every:
                        if c not in genus_of:
                            genus_of[c] = arithmetic_genus(c, surface)
                    genera = sorted({genus_of[c] for c in every}) or [0]
                    for g in [genera[0] - 1] + genera + [genera[-1] + 1]:
                        pinned = listing(surface, d, genus=g, min_self=floor)
                        want = [c for c in every if genus_of[c] == g]
                        assert pinned == want, (sid, listing.__name__, d, floor, g)


def test_castelnuovo_degree_9_orbits():
    # prop3.1's largest enumeration: 611 orbits of the 7 weight-1 points.
    # An orbit's size is the multinomial 7! / prod(m!) over the value
    # multiplicities m of b_2..b_8; the weight-2 point is fixed.
    reps = class_representatives(get_surface("castelnuovo_5"), 9, min_self=0)
    assert len(reps) == len(set(reps)) == 611
    assert all(list(c.coeffs[2:]) == sorted(c.coeffs[2:], reverse=True) for c in reps)

    def orbit_size(coeffs):
        size = math.factorial(7)
        for m in Counter(coeffs[2:]).values():
            size //= math.factorial(m)
        return size

    assert sum(orbit_size(c.coeffs) for c in reps) == 142_354


@pytest.mark.parametrize("enabled", [True, False])
def test_enumeration_pauses_the_collector_and_restores_it(enabled, monkeypatch):
    # the orbit build runs with the cyclic collector off, and the caller's
    # state comes back on return and when the call raises inside the pause
    seen = []
    orbit_tuples = surfaces._orbit_tuples

    def spy(*args):
        seen.append(gc.isenabled())
        return orbit_tuples(*args)

    monkeypatch.setattr(surfaces, "_orbit_tuples", spy)
    dp = get_surface("del_pezzo_4")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(enumerate_classes(dp, 4)) == 131
        assert seen == [False]
        assert gc.isenabled() is enabled
        with pytest.raises(LiaisonkitError):
            enumerate_classes(dp, 2.0)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


CENSUS_ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle" / "class_census.json"


def test_class_census_oracle():
    # the benchmark's frozen counts and digests for every cell, the
    # 57,890-class anchor included; the digest recipe is bench/worker.py's.
    # Orbit members skip the checking constructor, so each cell's classes
    # must also equal, hash like and freeze like checked builds of the same
    # coefficients, arrive sorted, and hold exact ints only.
    oracle = json.loads(CENSUS_ORACLE.read_text(encoding="utf-8"))
    assert len(oracle["table"]) == 152
    wrong = []
    for key, want in oracle["table"].items():
        sid, deg, kind, value = json.loads(key)
        surface = get_surface(sid)
        if kind == "genus":
            result = enumerate_classes(surface, deg, genus=value, min_self=-1)
        else:
            result = enumerate_classes(surface, deg, min_self=value)
        coeffs = sorted(c.coeffs for c in result)
        text = "\n".join(",".join(map(str, c)) for c in coeffs)
        if [len(coeffs), hashlib.sha256(text.encode()).hexdigest()] != want:
            wrong.append(key)
        assert [c.coeffs for c in result] == coeffs, key
        checked = [DivisorClass(c.basis, c.coeffs) for c in result]
        assert result == checked, key
        assert list(map(hash, result)) == list(map(hash, checked)), key
        assert all(type(x) is int for c in coeffs for x in c), key
        if result:
            with pytest.raises(AttributeError):
                result[-1].coeffs = ()
    assert wrong == []


def test_effectivity_screen():
    dp = get_surface("del_pezzo_4")
    assert is_effective_candidate(dp, B((5, 3, 1, 1, 1, 1)))
    assert is_effective_candidate(dp, dp.H)
    # a line class has negative self-pairing against itself
    assert not is_effective_candidate(dp, B((0, -1, 0, 0, 0, 0)))
    assert not is_effective_candidate(dp, B((-1, 0, 0, 0, 0, 0)))


def _packaged_catalog() -> dict:
    from importlib import resources

    packaged = resources.files("liaisonkit.data").joinpath("surfaces.json")
    return json.loads(packaged.read_text(encoding="utf-8"))


# each field the loader derives, with a wrong value for surface 0, the
# cubic scroll, whose derived values are 1, (-3;-1), 3, 0 and 18; true
# must not pass for 1
DERIVED_FIELDS = {"blown_points": True, "K": [-2, -2], "degree": 99, "sectional_genus": 5,
                  "family_dim": 17}


def test_packaged_catalog_stores_no_derived_field():
    for rec in _packaged_catalog()["surfaces"]:
        assert not set(rec) & set(DERIVED_FIELDS)


@pytest.mark.parametrize("field", list(DERIVED_FIELDS))
def test_catalog_loader_rejects_bad_records(field, tmp_path):
    wrong = DERIVED_FIELDS[field]
    raw = _packaged_catalog()
    raw["surfaces"][0][field] = wrong
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(CatalogError, match=f"field '{field}' stores {re.escape(repr(wrong))}"):
        load_catalog(str(bad))


def test_v1_records_with_their_derived_fields_load_to_the_same_catalog(tmp_path):
    raw = _packaged_catalog()
    catalog = load_catalog()
    for rec in raw["surfaces"]:
        s = catalog[rec["id"]]
        rec.update(blown_points=s.blown_points, K=list(s.K.coeffs), degree=s.degree,
                   sectional_genus=s.sectional_genus, family_dim=s.family_dim)
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(raw), encoding="utf-8")
    assert load_catalog(str(v1)) == catalog


def test_catalog_loader_rejects_bad_canonical_class(tmp_path):
    raw = _packaged_catalog()
    raw["surfaces"][0]["K"] = [-3, -2]
    bad = tmp_path / "badk.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(CatalogError):
        load_catalog(str(bad))


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read catalog"),
        ("{surfaces:", "is not valid JSON"),
        ('{"surfaces": 5}', "field 'surfaces' must be a list"),
        ('{"surfaces": [3]}', "surface 0: a surface record must be an object"),
        ('{"surfaces": [{"id": "x", "ambient": "P4"}]}', "missing field 'basis'"),
        (
            '{"surfaces": [{"id": "x", "ambient": "p4", "basis": "quadric", "H": [1, 1]}]}',
            "surface 0: field 'ambient' must be 'P2', 'P3' or 'P4', got 'p4'",
        ),
        (
            '{"surfaces": [{"id": "x", "ambient": "P4", "basis": "quadric", "H": [1, 1], '
            '"K": [-2, -2], "degree": 2, "sectional_genus": 0, "family_dim": "9"}]}',
            "surface 0 \\(x\\): field 'family_dim' stores '9', derived 13",
        ),
        (
            '{"surfaces": [{"id": "x", "ambient": "P4", "basis": "blownup_plane", '
            '"blown_points": 1, "H": [], "K": [-3, -1], "degree": 3, "sectional_genus": 0}]}',
            "surface 0 \\(x\\): blownup_plane classes need",
        ),
    ],
    ids=["missing", "invalid-json", "surfaces-not-a-list", "record-not-an-object",
         "no-basis", "unknown-ambient", "mistyped-optional-field", "empty-H"],
)
def test_catalog_loader_names_an_unusable_file(content, message, tmp_path):
    path = tmp_path / "catalog.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    with pytest.raises(CatalogError, match=message) as err:
        load_catalog(str(path))
    assert str(path) in str(err.value)


def test_catalog_override_path(tmp_path):
    raw = _packaged_catalog()
    raw["surfaces"] = [raw["surfaces"][0]]
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps(raw), encoding="utf-8")
    assert set(load_catalog(str(alt))) == {"cubic_scroll"}
    assert get_surface("cubic_scroll", str(alt)).degree == 3
