"""Curve records, secant machinery, unions, and minimal-curve
constructors.  Union genus is checked against Euler-characteristic
additivity rather than the implementation's own formula."""

import random
from collections import Counter

import pytest

from liaisonkit.curves import (
    CurveRecord,
    RaoTag,
    compact_profile,
    disjoint_union,
    k_secant_lines,
    lesperance_curve,
    lesperance_parts,
    minimal_curve_M_k,
    multisecant_profile,
    plane_curve,
    plane_pencil_bound,
)
from liaisonkit.errors import InvalidClassError, LiaisonkitError, MissingWitnessError
from liaisonkit.lattice import DivisorClass, intersect
from liaisonkit.surfaces import get_surface, lines_on

B = DivisorClass.blownup
DP = get_surface("del_pezzo_4")
SCROLL = get_surface("cubic_scroll")


def test_record_recomputes_witness_invariants():
    rec = CurveRecord.on_surface(DP, B((5, 3, 1, 1, 1, 1)))
    assert rec.dg == (8, 3)
    with pytest.raises(InvalidClassError):
        CurveRecord(degree=7, genus=3, witness=rec.witness)


def test_rao_tag_normalization():
    assert RaoTag.zero().shift == 0
    assert RaoTag("zero", shift=5, dualized=True) == RaoTag.zero()
    with pytest.raises(LiaisonkitError):
        RaoTag.m_a(1)
    with pytest.raises(LiaisonkitError):
        RaoTag("simple_k", a=3)


def _numbers(curve) -> list[int]:
    return sorted(v for _, _, v in multisecant_profile(curve))


def test_multisecant_profiles_del_pezzo():
    d1 = CurveRecord.on_surface(DP, B((5, 3, 1, 1, 1, 1)))
    d2 = CurveRecord.on_surface(DP, B((4, 1, 1, 1, 1, 0)))
    assert _numbers(d1) == [1] * 8 + [3] * 8
    assert _numbers(d2) == [0] + [1] * 4 + [2] * 6 + [3] * 4 + [4]
    assert compact_profile(multisecant_profile(d1)) == "1^8,3^8"
    assert compact_profile(multisecant_profile(d2)) == "0,1^4,2^6,3^4,4"
    assert [line for line, _, _ in multisecant_profile(d1)] == list(lines_on(DP).classes)
    h_rec = CurveRecord.on_surface(DP, DP.H)
    assert set(_numbers(h_rec)) == {1}


def test_profile_needs_witness():
    with pytest.raises(MissingWitnessError):
        multisecant_profile(CurveRecord.abstract(5, 0))


def test_k_secants_exactly_k():
    c2 = CurveRecord.on_surface(SCROLL, B((7, 4)))
    c1 = CurveRecord.on_surface(SCROLL, B((6, 2)))
    assert k_secant_lines(c1, 3) == []
    assert k_secant_lines(c2, 3) == [(B((1, 1)), "one_parameter")]
    # the ruling meets (6;2) four times; exactly-k semantics keeps it out of k=3
    assert intersect(B((6, 2)), B((1, 1))) == 4
    d2 = CurveRecord.on_surface(DP, B((4, 1, 1, 1, 1, 0)))
    assert k_secant_lines(d2, 4) == [(B((2, 1, 1, 1, 1, 1)), "finite")]


def test_profile_summary_partition():
    d2 = CurveRecord.on_surface(DP, B((4, 1, 1, 1, 1, 0)))
    counter = Counter(v for _, _, v in multisecant_profile(d2))
    for k, count in counter.items():
        assert len(k_secant_lines(d2, k)) == count
    assert sum(counter.values()) == 16


def test_profile_additivity_against_lattice():
    total_line = None
    for c in lines_on(DP).classes:
        total_line = c if total_line is None else total_line + c
    rng = random.Random(7)
    for _ in range(200):
        cls = B(tuple(rng.randint(-20, 20) for _ in range(6)))
        summed = sum(intersect(cls, line) for line in lines_on(DP).classes)
        assert summed == intersect(cls, total_line)


def test_pencil_bounds():
    c1 = CurveRecord.on_surface(SCROLL, B((6, 2)))
    c2 = CurveRecord.on_surface(SCROLL, B((7, 4)))
    assert plane_pencil_bound(c1, B((1, 0))) == 4
    assert plane_pencil_bound(c2, B((1, 0))) == 3
    d1 = CurveRecord.on_surface(DP, B((5, 3, 1, 1, 1, 1)))
    assert plane_pencil_bound(d1, B((2, 0, 1, 1, 1, 1))) == 2
    with pytest.raises(InvalidClassError):
        plane_pencil_bound(c1, B((2, 1)))  # H is not a conic class


def test_pencil_bound_gonality_sanity():
    cases = [
        (SCROLL, B((6, 2)), B((1, 0))),
        (SCROLL, B((7, 4)), B((1, 0))),
        (DP, B((5, 3, 1, 1, 1, 1)), B((2, 0, 1, 1, 1, 1))),
        (DP, B((4, 1, 1, 1, 1, 0)), B((2, 0, 1, 1, 1, 1))),
    ]
    for surface, cls, conic in cases:
        rec = CurveRecord.on_surface(surface, cls)
        if rec.genus > 0:
            assert plane_pencil_bound(rec, conic) >= 2


def _chi(record):
    return 1 - record.genus


def test_disjoint_union_euler_characteristic_oracle():
    line = CurveRecord.abstract(1, 0)
    conic = CurveRecord.abstract(2, 0)
    quartic = plane_curve(4)
    for a, b in [(line, line), (line, quartic), (conic, conic)]:
        union = disjoint_union(a, b)
        assert union.degree == a.degree + b.degree
        assert _chi(union) == _chi(a) + _chi(b)
    assert disjoint_union(line, line).dg == (2, -1)
    assert disjoint_union(line, quartic).dg == (5, 2)
    assert disjoint_union(conic, conic).dg == (4, -1)


def test_disjoint_union_commutative_associative():
    rng = random.Random(11)
    for _ in range(300):
        recs = [
            CurveRecord.abstract(rng.randint(1, 9), rng.randint(-2, 8))
            for _ in range(3)
        ]
        a, b, c = recs
        assert disjoint_union(a, b).dg == disjoint_union(b, a).dg
        assert (
            disjoint_union(disjoint_union(a, b), c).dg
            == disjoint_union(a, disjoint_union(b, c)).dg
        )


def test_disjoint_union_witness_handling():
    l1 = CurveRecord.on_surface(SCROLL, B((1, 1)))
    union = disjoint_union(l1, l1)  # two ruling lines: disjoint classes
    assert union.witness is not None and union.witness.cls == B((2, 2))
    assert union.dg == (2, -1)
    meeting = CurveRecord.on_surface(SCROLL, B((0, -1)))
    crossed = disjoint_union(l1, meeting)  # classes meet; witness dropped
    assert crossed.witness is None


def test_minimal_curve_construction():
    assert minimal_curve_M_k(2).dg == (2, -1)
    assert minimal_curve_M_k(3).dg == (3, -1)
    assert minimal_curve_M_k(5).dg == (5, 2)
    assert minimal_curve_M_k(2).rao == RaoTag.simple_k(0)
    with pytest.raises(LiaisonkitError):
        minimal_curve_M_k(1)
    # oracle: the union construction gives the same numbers
    for d in range(2, 10):
        union = disjoint_union(CurveRecord.abstract(1, 0), plane_curve(d - 1))
        assert minimal_curve_M_k(d).dg == union.dg


def test_lesperance_types():
    a = lesperance_curve("a", 2)
    assert (a.degree, a.genus, a.rao) == (3, -1, RaoTag.m_a(2))
    b = lesperance_curve("b", 2, 2)
    assert (b.degree, b.genus, b.rao) == (4, -1, RaoTag.m_a(2))
    c = lesperance_curve("c", 2, 1)
    assert (c.degree, c.genus, c.rao) == (a.degree, a.genus, a.rao)
    d = lesperance_curve("d", 2, acm_curve=CurveRecord.abstract(3, 0))
    assert (d.degree, d.genus, d.rao) == (4, -1, RaoTag.m_a(2))
    with pytest.raises(LiaisonkitError):
        lesperance_curve("b", 3, 2)  # needs a <= b
    with pytest.raises(LiaisonkitError):
        lesperance_curve("d", 2)  # ACM curve record required
    with pytest.raises(LiaisonkitError):
        lesperance_curve("d", 2, b=5, acm_curve=CurveRecord.abstract(3, 0))


@pytest.mark.parametrize(
    "kind, a, b, acm_curve",
    [
        ("a", 2, None, None),
        ("b", 2, 3, None),
        ("c", 3, 1, None),
        ("d", 2, None, CurveRecord.abstract(3, 0, rao=RaoTag.zero())),
    ],
)
def test_lesperance_curve_is_the_tagged_union_of_its_parts(kind, a, b, acm_curve):
    union = disjoint_union(*lesperance_parts(kind, a, b, acm_curve))
    assert lesperance_curve(kind, a, b, acm_curve) == CurveRecord(
        union.degree, union.genus, union.witness, RaoTag.m_a(a)
    )


def test_rao_shift_after_biliaison():
    tag = RaoTag.simple_k(0)
    assert tag.shifted(1).shift == 1
    assert tag.shifted(0) == tag
    assert tag.shifted(1).shifted(1).shift == 2
    # additive under composition
    rng = random.Random(5)
    for _ in range(200):
        h1, h2 = rng.randint(-4, 4), rng.randint(-4, 4)
        assert tag.shifted(h1).shifted(h2).shift == tag.shift + h1 + h2
    # the zero module ignores shifts
    assert RaoTag.zero().shifted(3) == RaoTag.zero()
