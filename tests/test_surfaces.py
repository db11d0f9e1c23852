"""Catalog loading, line/conic enumeration, and the stored family
dimensions, each checked against an independent count where one exists."""

import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from liaisonkit.errors import CatalogError, UnknownSurfaceError, UnsupportedSurfaceError
from liaisonkit.lattice import DivisorClass, arithmetic_genus, intersect, self_intersection
from liaisonkit.surfaces import (
    _b_solver,
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
        if s.basis != "blownup_plane":
            continue
        for c, flag in lines_on(s).pairs():
            assert intersect(c, s.H) == 1
            assert arithmetic_genus(c, s) == 0
            assert self_intersection(c) in (-1, 0)
            assert flag == ("finite" if self_intersection(c) == -1 else "one_parameter")


def test_lines_unsupported_on_quadric():
    with pytest.raises(UnsupportedSurfaceError):
        lines_on(get_surface("quadric_p3"))


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
        assert [c.coeffs for c in enumerate_classes(surface, d, min_self=-2)] == everything
        for g in genera + [genera[-1] + 1]:
            got = enumerate_classes(surface, d, genus=g, min_self=-2)
            assert [c.coeffs for c in got] == brute.get((d, g), [])


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
            ints = (floor, floor + 2)
            want_ints = [ab for ab in want if 2 * ab[0] * ab[1] in ints]
            got_ints = enumerate_classes(quadric, d, self_ints=ints)
            assert [c.coeffs for c in got_ints] == want_ints, (d, ints)
            for g in {(a - 1) * (b - 1) for a, b in want} | {99}:
                pinned = enumerate_classes(quadric, d, genus=g, min_self=floor)
                assert [c.coeffs for c in pinned] == [
                    (a, b) for a, b in want if (a - 1) * (b - 1) == g
                ], (d, floor, g)


@pytest.mark.parametrize("sid", ["plane_p2", "cubic_scroll"])
def test_enumeration_without_equal_weights_matches_brute_force(sid):
    # no two points share a weight, so every orbit is a single class;
    # plane_p2 has rank 1, where a one-index itemgetter returns a scalar.
    # On the scroll (a; b) has degree 2a - b and C^2 >= -3 forces
    # (3a - 2d)^2 <= d^2 + 9, so for d <= 6 the box holds every class.
    surface = get_surface(sid)
    box = [
        B(c) for c in itertools.product(range(-20, 21), repeat=len(surface.H.coeffs))
    ]
    invariants = {
        c.coeffs: (intersect(c, surface.H), self_intersection(c), arithmetic_genus(c, surface))
        for c in box
    }
    for d in range(-1, 7):
        for floor in (0, -1, -2, -3):
            want = sorted(c for c, (dd, q, _) in invariants.items() if dd == d and q >= floor)
            assert [c.coeffs for c in enumerate_classes(surface, d, min_self=floor)] == want
            assert [c.coeffs for c in class_representatives(surface, d, min_self=floor)] == want
            genera = {invariants[c][2] for c in want}
            for g in sorted(genera) + [99]:
                got = enumerate_classes(surface, d, genus=g, min_self=floor)
                assert [c.coeffs for c in got] == [c for c in want if invariants[c][2] == g]
        for ints in [(-1,), (-1, 0), (0, 1, 4), (-3, 9)]:
            want = sorted(c for c, (dd, q, _) in invariants.items() if dd == d and q in ints)
            assert [c.coeffs for c in enumerate_classes(surface, d, self_ints=ints)] == want


def _box_by_wsum(weights, top):
    """Every b in [-top, top]^n that does not increase along each set of
    equal-weight positions, as (b, sum(b), sum(b_i^2)) grouped by
    sum(b_i w_i): an unpruned box with no bound of _b_solver's."""
    same = [(i, j) for i, j in itertools.combinations(range(len(weights)), 2)
            if weights[i] == weights[j]]
    groups = {}
    for b in itertools.product(range(-top, top + 1), repeat=len(weights)):
        if all(b[i] >= b[j] for i, j in same):
            wsum = sum(x * w for x, w in zip(b, weights))
            groups.setdefault(wsum, []).append((b, sum(b), sum(x * x for x in b)))
    return groups


@pytest.mark.parametrize(
    "weights",
    [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 2), (1, 0, 0), (2, -1, -1)],
)
def test_b_solver_matches_an_unpruned_box(weights):
    # (1, 2, 1, 1) splits a block; (1, 0, 0) and (2, -1, -1) end on a run
    # that only the pinned-sum bound applies to.  A square sum of at most
    # 16 keeps every entry in [-4, 4].
    solve = _b_solver(weights)
    box = _box_by_wsum(weights, 4)
    for sq_lo, sq_hi in [(0, 0), (0, 4), (3, 9), (9, 9), (5, 16), (0, -1)]:
        for wsum in range(-4, 7):
            for psum in (None, -2, 0, 1, 3):
                want = [
                    b
                    for b, total, sq in box.get(wsum, ())
                    if (psum is None or total == psum) and sq_lo <= sq <= sq_hi
                ]
                assert solve(wsum, psum, sq_lo, sq_hi) == want, (wsum, psum, sq_lo, sq_hi)


def test_enumeration_follows_a_permuted_catalog():
    # equal weights need not be adjacent: moving castelnuovo's weight-2
    # point between the weight-1 points permutes every class the same way
    c5 = get_surface("castelnuovo_5")
    order = (0, 2, 3, 4, 1, 5, 6, 7, 8)
    moved = dataclasses.replace(c5, H=B(tuple(c5.H.coeffs[i] for i in order)))
    for d in range(6):
        want = sorted(tuple(c.coeffs[i] for i in order) for c in enumerate_classes(c5, d, min_self=-1))
        assert [c.coeffs for c in enumerate_classes(moved, d, min_self=-1)] == want


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


CENSUS_ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle" / "class_census.json"


def test_class_census_oracle():
    # the benchmark's frozen counts and digests for every cell, the
    # 57,890-class anchor included; the digest recipe is bench/worker.py's
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

    text = resources.files("liaisonkit.data").joinpath("surfaces.json").read_text()
    return json.loads(text)


def test_catalog_loader_rejects_bad_records(tmp_path):
    raw = _packaged_catalog()
    raw["surfaces"][0]["degree"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(CatalogError):
        load_catalog(str(bad))


def test_catalog_loader_rejects_bad_canonical_class(tmp_path):
    raw = _packaged_catalog()
    raw["surfaces"][0]["K"] = [-3, -2]
    bad = tmp_path / "badk.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(CatalogError):
        load_catalog(str(bad))


def test_catalog_override_path(tmp_path):
    raw = _packaged_catalog()
    raw["surfaces"] = [raw["surfaces"][0]]
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps(raw))
    assert set(load_catalog(str(alt))) == {"cubic_scroll"}
    assert get_surface("cubic_scroll", str(alt)).degree == 3
