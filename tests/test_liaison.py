"""Liaison moves and chain search: worked examples, the dual-route check
of the biliaison update formula against adjunction, the G-link
involution, and search determinism."""

import json
import math
import random
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from liaisonkit import liaison
from liaisonkit.curves import CurveRecord, RaoTag
from liaisonkit.errors import (
    LiaisonkitError,
    LinkageError,
    MissingWitnessError,
    UnsupportedSurfaceError,
)
from liaisonkit.lattice import DivisorClass, arithmetic_genus, degree, intersect
from liaisonkit.liaison import (
    BILIAISON,
    G_LINK,
    REWITNESS,
    REWITNESS_TABLE,
    Chain,
    ascending_chain_search,
    elementary_biliaison,
    family_dimension,
    g_link_on_surface,
    hilbert_dim_lower_bound,
    moved_invariants,
    _exploration,
    screened_moves,
    validate_rewitness_table,
)
from liaisonkit.search import SearchFailure
from liaisonkit.surfaces import (
    get_surface,
    is_effective_candidate,
    lines_on,
    load_catalog,
    screen_rows,
)

B = DivisorClass.blownup
SCROLL = get_surface("cubic_scroll")
DP = get_surface("del_pezzo_4")
BORDIGA = get_surface("bordiga_6")

P4_SURFACES = [
    s for s in load_catalog().values() if s.ambient == "P4" and s.basis == "blownup_plane"
]
CHAIN_ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle" / "chain_search.json"


def test_biliaison_examples():
    l1 = CurveRecord.on_surface(SCROLL, B((0, -1)), rao=RaoTag.zero())
    c1 = elementary_biliaison(l1, 3)
    assert c1.witness.cls == B((6, 2)) and c1.dg == (10, 9)
    rec = CurveRecord.on_surface(DP, B((5, 3, 1, 1, 1, 1)))
    assert elementary_biliaison(rec, 0).witness.cls == rec.witness.cls
    skew = CurveRecord.on_surface(SCROLL, B((2, 2)), rao=RaoTag.simple_k(0))
    up = elementary_biliaison(skew, 1)
    assert up.witness.cls == B((4, 3)) and up.dg == (5, 0) and up.rao.shift == 1


def test_biliaison_requires_witness():
    with pytest.raises(MissingWitnessError):
        elementary_biliaison(CurveRecord.abstract(2, -1), 1)


def biliaison_genus_formula(curve: CurveRecord, h: int) -> int:
    """Genus after an elementary biliaison of height h, by the update
    formula g + h*d + h*(h*deg(S) + H.K)/2."""
    surface = curve.witness_surface()
    hk = intersect(surface.H, surface.K)
    return curve.genus + h * curve.degree + h * (h * surface.degree + hk) // 2


def test_biliaison_formula_vs_adjunction_1000_trials():
    rng = random.Random(42)
    for _ in range(1000):
        surface = rng.choice(P4_SURFACES)
        cls = B(tuple(rng.randint(-12, 12) for _ in range(surface.blown_points + 1)))
        h = rng.randint(-4, 4)
        rec = CurveRecord.on_surface(surface, cls)
        result = elementary_biliaison(rec, h)
        # dual route: the closed-form update must agree with adjunction
        assert result.genus == biliaison_genus_formula(rec, h)
        assert result.degree == rec.degree + h * surface.degree
        assert result.witness.cls == cls + h * surface.H


def test_g_link_degree_additivity():
    rng = random.Random(43)
    checked = 0
    while checked < 300:
        surface = rng.choice(P4_SURFACES)
        cls = B(tuple(rng.randint(-6, 6) for _ in range(surface.blown_points + 1)))
        rec = CurveRecord.on_surface(surface, cls)
        if rec.degree < 1:
            continue
        m = _min_twist(rec.degree, surface) + rng.randint(0, 3)
        linked = g_link_on_surface(rec, m)
        ag = m * surface.H - surface.K
        assert rec.degree + linked.degree == degree(ag, surface)
        checked += 1


def test_g_link_worked_example():
    e1 = CurveRecord.on_surface(DP, B((0, -1, 0, 0, 0, 0)), rao=RaoTag.zero())
    linked = g_link_on_surface(e1, 1)
    assert linked.witness.cls == B((6, 3, 2, 2, 2, 2))
    assert e1.degree + linked.degree == 8  # deg(2H) on the quartic surface
    assert linked.degree == 7


def _min_twist(record_degree, surface):
    """Smallest m for which the residual of a degree-d curve under the
    divisor m*H - K still has positive degree."""
    kh = intersect(surface.K, surface.H)
    m = 0
    while m * surface.degree - kh - record_degree < 1:
        m += 1
    return m


def test_g_link_involution_and_composition():
    rng = random.Random(44)
    checked = 0
    while checked < 300:
        surface = rng.choice(P4_SURFACES)
        cls = B(tuple(rng.randint(-5, 5) for _ in range(surface.blown_points + 1)))
        rec = CurveRecord.on_surface(surface, cls, rao=RaoTag.simple_k(rng.randint(-3, 3)))
        if rec.degree < 1:
            continue
        m1 = _min_twist(rec.degree, surface) + rng.randint(0, 2)
        once = g_link_on_surface(rec, m1)
        twice = g_link_on_surface(once, m1)
        assert twice.witness.cls == rec.witness.cls  # involution at class level
        assert twice.rao == rec.rao  # un-dualized, shift restored
        # two links compose to a biliaison of height m2 - m1
        m2 = _min_twist(once.degree, surface) + rng.randint(0, 2)
        two_step = g_link_on_surface(once, m2)
        bil = elementary_biliaison(rec, m2 - m1)
        assert two_step.witness.cls == bil.witness.cls
        assert two_step.dg == bil.dg
        assert two_step.rao == bil.rao
        checked += 1


def test_g_link_rejects_empty_residual():
    h_rec = CurveRecord.on_surface(DP, DP.H)
    with pytest.raises(LinkageError):
        g_link_on_surface(h_rec, 0)  # D = -K = H: residual is empty


def test_family_dimension_values():
    assert family_dimension(DP, B((5, 3, 1, 1, 1, 1))) == 36
    assert family_dimension(SCROLL, B((6, 2))) == 42
    e10 = B((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1))
    assert family_dimension(BORDIGA, e10) == 36 + 0


def test_family_dimension_is_undefined_off_p4():
    for sid in ("cubic_surface_p3", "quadric_p3", "plane_p2"):
        surface = get_surface(sid)
        with pytest.raises(UnsupportedSurfaceError, match=f"undefined for {sid}"):
            family_dimension(surface, surface.H)


def test_hilbert_dim_lower_bound():
    assert hilbert_dim_lower_bound(20, 26) == 75
    # oracle: lines in P4 = points of the Grassmannian G(1,4), dim 2*(5-2)
    assert hilbert_dim_lower_bound(1, 0) == 6 == 2 * (5 - 2)
    assert hilbert_dim_lower_bound(8, 3) == 38


def test_rewitness_table_validates():
    validate_rewitness_table()
    for dg, entries in REWITNESS_TABLE.items():
        for sid, coeffs in entries:
            s = get_surface(sid)
            c = B(coeffs)
            assert (degree(c, s), arithmetic_genus(c, s)) == dg


def test_search_finds_scroll_chain():
    chain = ascending_chain_search((10, 9), surfaces=["cubic_scroll"])
    assert isinstance(chain, Chain)
    assert chain.liaison_steps == 1
    assert chain.end.witness.cls == B((6, 2))
    assert chain.net_rao_shift == 3


def test_search_trivial_target():
    chain = ascending_chain_search((1, 0), surfaces=["cubic_scroll"])
    assert isinstance(chain, Chain) and chain.liaison_steps == 0


def test_search_two_step_with_rewitness():
    start = CurveRecord.on_surface(SCROLL, B((2, 2)), rao=RaoTag.simple_k(0))
    chain = ascending_chain_search(
        (11, 7), surfaces=["cubic_scroll", "bordiga_6"], starts=[start]
    )
    assert isinstance(chain, Chain)
    assert chain.liaison_steps == 2
    assert chain.steps[0].after.dg == (5, 0)
    assert chain.end.dg == (11, 7)
    assert chain.end.rao == RaoTag.simple_k(2)


def test_replay_rejects_a_class_that_fails_the_screen(monkeypatch):
    monkeypatch.setattr(liaison, "is_effective_candidate", lambda surface, cls: False)
    with pytest.raises(LiaisonkitError, match="fails the effectivity screen"):
        ascending_chain_search((10, 9), surfaces=["cubic_scroll"])


def test_replay_rejects_a_chain_that_misses_the_target(monkeypatch):
    # a biliaison that does not move, under a screen that passes every
    # class: the last replayed record is still the start line
    monkeypatch.setattr(liaison, "elementary_biliaison", lambda curve, h: curve)
    monkeypatch.setattr(liaison, "is_effective_candidate", lambda surface, cls: True)
    with pytest.raises(LiaisonkitError, match=r"replayed chain ends at .* not at \(10, 9\)"):
        ascending_chain_search((10, 9), surfaces=["cubic_scroll"])


def test_search_failure_is_a_value():
    result = ascending_chain_search((2, -1), surfaces=["cubic_scroll"], max_steps=3)
    assert isinstance(result, SearchFailure)
    assert result.explored >= 0
    assert result.bounds["max_steps"] == 3
    assert not result.found


def test_search_rejects_bad_input():
    with pytest.raises(LiaisonkitError):
        ascending_chain_search((10, 9), surfaces=[])
    with pytest.raises(LiaisonkitError):
        ascending_chain_search((10, 9), max_steps=0)
    with pytest.raises(LiaisonkitError, match="empty start set"):
        ascending_chain_search((5, 0), surfaces=["cubic_scroll"], starts=[])
    with pytest.raises(MissingWitnessError):
        ascending_chain_search((5, 0), starts=[CurveRecord.abstract(2, -1)])
    # the quadric seeds its rulings, so a twisted cubic is one biliaison away
    chain = ascending_chain_search((3, 0), surfaces=["cubic_scroll", "quadric_p3"])
    assert chain.describe() == ["(0,1) --biliaison h=1 on quadric_p3--> (1,2) (3, 0)"]
    # plane_p2 is a blown-up plane with no blown-up point, so no line class
    with pytest.raises(UnsupportedSurfaceError, match="no line classes on plane_p2"):
        ascending_chain_search((4, 0), surfaces=["plane_p2"])
    # max_steps is an int >= 1, as the CLI's --max-steps
    for max_steps in (2.5, "3", True, -1):
        with pytest.raises(LiaisonkitError, match="max_steps must be an int >= 1"):
            ascending_chain_search((5, 1), max_steps=max_steps)
    # surfaces is a collection of ids, never one string
    with pytest.raises(LiaisonkitError, match="got the string 'cubic_scroll'"):
        ascending_chain_search((5, 1), surfaces="cubic_scroll")
    # no curve has degree < 1
    for target in [(0, 0), (-2, 1)]:
        with pytest.raises(LiaisonkitError, match="no curve has degree below 1"):
            ascending_chain_search(target, surfaces=["cubic_scroll"])


@pytest.mark.parametrize(
    "target",
    [
        (5.0, 1),
        (5, 1, 2),
        [5, 1],
        (True, 0),
        ("cubic_scroll", (7, 4)),
        ("cubic_scroll", B((7, 4))),
        "cubic_scroll",
        5,
    ],
    ids=repr,
)
def test_malformed_target_names_the_accepted_shapes(target):
    # a (degree, genus) pair of ints is the one accepted shape
    with pytest.raises(
        LiaisonkitError, match=r"^target must be \(degree, genus\) as ints, got "
    ):
        ascending_chain_search(target, surfaces=["cubic_scroll"])


def test_repeated_surface_ids_count_once():
    once = ascending_chain_search((5, 1), surfaces=["cubic_scroll"])
    twice = ascending_chain_search((5, 1), surfaces=["cubic_scroll", "cubic_scroll"])
    assert not once.found
    assert twice == once
    assert twice.bounds["surfaces"] == ("cubic_scroll",)


def test_any_direction_failure_counts():
    # the benchmark oracle checks only found, length and end; pin the search itself
    result = ascending_chain_search((9, 2), ascending_only=False, max_steps=3)
    assert isinstance(result, SearchFailure)
    assert result.explored == 437
    assert result.frontier_sizes == (42, 272, 123, 7)


def test_a_huge_degree_cap_explores_what_the_coefficient_box_allows():
    # ascending heights stop at the first one that takes a coefficient past
    # the box for good, so a degree cap of a million builds the levels a
    # cap of 200 does
    far = ascending_chain_search((10**6, 0))
    near = ascending_chain_search((200, 0))
    assert isinstance(far, SearchFailure)
    assert far.explored == near.explored == 890
    assert far.frontier_sizes == near.frontier_sizes == (42, 727, 121, 0)


def test_search_is_invariant_under_input_order():
    surfaces = ["bordiga_6", "castelnuovo_5", "cubic_scroll", "del_pezzo_4"]
    starts = [
        CurveRecord.on_surface(s, line, rao=RaoTag.zero())
        for s in map(get_surface, surfaces)
        for line in lines_on(s).classes
    ]
    rng = random.Random(46)
    cases = [(target, True, 5) for target in [(10, 9), (10, 6), (8, 5)]]
    # any-direction moves depend on the move that reached a state; (9, 2) fails
    cases += [(target, False, 4) for target in [(9, 7), (8, 5), (7, 3), (9, 2)]]
    for target, ascending_only, max_steps in cases:
        baseline = ascending_chain_search(
            target, ascending_only=ascending_only, max_steps=max_steps
        )
        for _ in range(2):
            perm_surfaces, perm_starts = surfaces[:], starts[:]
            rng.shuffle(perm_surfaces)
            rng.shuffle(perm_starts)
            again = ascending_chain_search(
                target,
                surfaces=perm_surfaces,
                starts=perm_starts,
                ascending_only=ascending_only,
                max_steps=max_steps,
            )
            assert again == baseline


def test_chain_shift_telescopes():
    start = CurveRecord.on_surface(SCROLL, B((2, 2)), rao=RaoTag.simple_k(0))
    chain = ascending_chain_search(
        (11, 7), surfaces=["cubic_scroll", "bordiga_6"], starts=[start]
    )
    assert chain.end.rao.shift == start.rao.shift + chain.net_rao_shift


def test_chain_rejects_inconsistent_records():
    l1 = CurveRecord.on_surface(SCROLL, B((0, -1)), rao=RaoTag.zero())
    c1 = elementary_biliaison(l1, 3)
    step = ascending_chain_search((10, 9), surfaces=["cubic_scroll"]).steps[0]
    other = CurveRecord.on_surface(SCROLL, B((1, 1)), rao=RaoTag.zero())
    from liaisonkit.liaison import ChainStep

    bogus = ChainStep("biliaison", before=other, after=c1, h=3)
    with pytest.raises(LiaisonkitError):
        Chain((step, bogus))
    with pytest.raises(LiaisonkitError):
        Chain((ChainStep("g_link", before=l1, after=c1, m=1),))


def test_descending_search_mode():
    # descending step recovers a smaller curve from a bigger one
    start = CurveRecord.on_surface(SCROLL, B((6, 2)), rao=RaoTag.zero())
    result = ascending_chain_search(
        (7, 3),
        surfaces=["cubic_scroll"],
        ascending_only=False,
        starts=[start],
        max_steps=2,
    )
    assert isinstance(result, Chain)
    assert result.end.dg == (7, 3)
    assert not result.ascending_only


def test_chain_search_oracle():
    # the summary bench/worker.py compares: found, liaison steps, end (d, g)
    table = json.loads(CHAIN_ORACLE.read_text(encoding="utf-8"))["table"]
    assert len(table) == 83
    for key, expected in table.items():
        (d, g), ascending_only = json.loads(key)
        result = ascending_chain_search((d, g), ascending_only=ascending_only)
        if isinstance(result, SearchFailure):
            got = [False, None, None]
        else:
            got = [True, result.liaison_steps, list(result.end.dg) if result.end else None]
        assert got == expected, key


@pytest.fixture
def cold_explorations():
    """Searches in the test build their levels afresh and leave no cached
    exploration behind, so one built under a patched move list never
    reaches another test."""
    _exploration.cache_clear()
    yield
    _exploration.cache_clear()


def _oracle_inputs():
    table = json.loads(CHAIN_ORACLE.read_text(encoding="utf-8"))["table"]
    return [json.loads(key) for key in table]


def test_pruned_search_equals_the_unpruned_one(monkeypatch, cold_explorations):
    """Leaving out the moves a state's parent already offered changes no
    result, not even the counts of a failure."""
    inputs = _oracle_inputs()
    pruned = [ascending_chain_search(tuple(dg), ascending_only=a) for dg, a in inputs]
    full_moves = liaison.screened_moves
    monkeypatch.setattr(
        liaison, "screened_moves", lambda *args, via=None: full_moves(*args)
    )
    # the unpruned pass builds its own levels rather than read the pruned ones
    _exploration.cache_clear()
    unpruned = [ascending_chain_search(tuple(dg), ascending_only=a) for dg, a in inputs]
    assert _exploration.cache_info().misses == len({(dg[0], a) for dg, a in inputs})
    assert len(inputs) == 83
    assert sum(not r.found for r in pruned) > 0
    for inp, a, b in zip(inputs, pruned, unpruned):
        # SearchFailure equality compares explored and frontier_sizes too
        assert a == b, inp


def test_warm_exploration_equals_cold(cold_explorations):
    # the cache cleared before each search, against one warm pass in
    # shuffled order: a level must not depend on the target or max_steps
    # of the search that built it
    inputs = _oracle_inputs()
    cold = []
    for dg, a in inputs:
        _exploration.cache_clear()
        cold.append(ascending_chain_search(tuple(dg), ascending_only=a))
    order = random.Random(19).sample(range(len(inputs)), len(inputs))
    _exploration.cache_clear()
    warm = {}
    for i in order:
        dg, a = inputs[i]
        warm[i] = ascending_chain_search(tuple(dg), ascending_only=a)
    assert _exploration.cache_info().hits > 0
    # Chain equality compares every step; SearchFailure equality compares
    # explored and frontier_sizes too
    assert [warm[i] for i in range(len(inputs))] == cold
    assert any(not r.found for r in cold) and any(r.found for r in cold)


def test_a_shallow_search_on_a_deeper_exploration(cold_explorations):
    deep = ascending_chain_search((9, 2), ascending_only=False, max_steps=8)
    assert deep.frontier_sizes == (42, 272, 123, 7, 0)
    result = ascending_chain_search((9, 2), ascending_only=False, max_steps=3)
    assert _exploration.cache_info().hits == 1
    assert result.explored == 437
    assert result.frontier_sizes == (42, 272, 123, 7)


def test_any_direction_target_ends_at_its_level_on_a_warm_exploration(cold_explorations):
    # (9, 7) is two liaison moves from a line; (9, 2) fails after building
    # every level of the same key
    target = (9, 7)
    cold = {}
    for max_steps in (1, 2, 8):
        _exploration.cache_clear()
        cold[max_steps] = ascending_chain_search(target, ascending_only=False, max_steps=max_steps)
    _exploration.cache_clear()
    ascending_chain_search((9, 2), ascending_only=False, max_steps=8)
    for max_steps, expected in cold.items():
        assert ascending_chain_search(target, ascending_only=False, max_steps=max_steps) == expected
    assert _exploration.cache_info().misses == 1
    assert not cold[1].found and cold[1].frontier_sizes == (42, 272)
    assert cold[2].liaison_steps == 2 and cold[2] == cold[8]
    # a found chain through a Gorenstein link, pinned step by step
    assert [s.kind for s in cold[2].steps] == [BILIAISON, REWITNESS, G_LINK]
    assert cold[2].describe() == [
        "(0;-1,0,0,0,0) --biliaison h=1 on del_pezzo_4--> (3;0,1,1,1,1) (5, 1)",
        "(3;0,1,1,1,1) --rewitness on cubic_scroll--> (3;1) (5, 1)",
        "(3;1) --g_link m=3 on cubic_scroll--> (6;3) (9, 7)",
    ]


def test_starts_that_differ_in_a_rao_tag_share_an_exploration(cold_explorations):
    # explorations are keyed on seed states, and each replay tags its own root
    surfaces = ["cubic_scroll", "bordiga_6"]
    chains = []
    for tag in (RaoTag.simple_k(0), RaoTag.simple_k(5)):
        start = CurveRecord.on_surface(SCROLL, B((2, 2)), rao=tag)
        chain = ascending_chain_search((11, 7), surfaces=surfaces, starts=[start])
        assert chain.start.rao == tag
        assert chain.end.rao == tag.shifted(chain.net_rao_shift)
        chains.append(chain)
    assert _exploration.cache_info().misses == 1
    assert [c.net_rao_shift for c in chains] == [2, 2]
    assert [c.end.rao for c in chains] == [RaoTag.simple_k(2), RaoTag.simple_k(7)]


def _class_invariants(surface, C):
    """(C.H, C^2, C.K, min_L L.C, max_L (L.K + L.C)) by intersect on the
    class; the min and max over no lines are inf and -inf."""
    lines = lines_on(surface).classes
    prods = [intersect(line, C) for line in lines]
    return (
        degree(C, surface),
        intersect(C, C),
        intersect(C, surface.K),
        min(prods, default=math.inf),
        max((intersect(line, surface.K) + p for line, p in zip(lines, prods)), default=-math.inf),
    )


def test_screened_moves_match_the_class_screen():
    """The invariant screen keeps a move exactly when the degree window,
    the coefficient box and is_effective_candidate on the built class do."""
    rng = random.Random(47)
    cap = 40
    rejected = Counter()
    for surface in P4_SURFACES + [get_surface("quadric_p3")]:
        rows = screen_rows(surface)
        for _ in range(200):
            spread = rng.choice((3, 8, 62))
            c = tuple(rng.randint(-spread, spread) for _ in surface.H.coeffs)
            C = DivisorClass(surface.basis, c)
            inv = _class_invariants(surface, C)
            for ascending_only in (True, False):
                if ascending_only:
                    top = (cap - degree(C, surface)) // surface.degree
                    heights = range(1, top + 1)
                    twists = ()
                else:
                    heights = [h for h in range(-3, 4) if h != 0]
                    twists = range(1, 5)
                cands = [((BILIAISON, h), C + h * surface.H) for h in heights]
                cands += [((G_LINK, m), m * surface.H - surface.K - C) for m in twists]
                want = []
                for move, cand in cands:
                    if not 1 <= degree(cand, surface) <= cap:
                        rejected["degree"] += 1
                    elif any(abs(x) > 60 for x in cand.coeffs):
                        rejected["box"] += 1
                    elif not is_effective_candidate(surface, cand):
                        rejected[move[0], surface.basis] += 1
                    else:
                        want.append((move, (surface.id, cand.coeffs)))
                got = list(screened_moves(surface, rows, c, inv, ascending_only, cap))
                assert got == want, (surface.id, c, ascending_only)
    # every filter decided some candidates on its own
    assert rejected["degree"] and rejected["box"]
    assert rejected[BILIAISON, "blownup_plane"] and rejected[G_LINK, "blownup_plane"]


def _candidates(surface, C, ascending_only, cap):
    """Every move the search could try from C, with its target class."""
    if ascending_only:
        heights, twists = range(1, (cap - degree(C, surface)) // surface.degree + 1), ()
    else:
        heights, twists = (-3, -2, -1, 1, 2, 3), (1, 2, 3, 4)
    return [((BILIAISON, h), C + h * surface.H) for h in heights] + [
        ((G_LINK, m), m * surface.H - surface.K - C) for m in twists
    ]


def _passes_class_screen(surface, cls, cap):
    return (
        1 <= degree(cls, surface) <= cap
        and all(abs(x) <= 60 for x in cls.coeffs)
        and is_effective_candidate(surface, cls)
    )


def test_moves_skipped_after_a_move_were_offered_by_the_parent():
    """From S = mu(P), screened_moves(S, via=mu) is an in-order sub-list
    of the full list, and every move it leaves out reaches P, a target
    of P's full list, or a class the screen drops."""
    rng = random.Random(50)
    cap = 40
    skipped = Counter()
    for surface in P4_SURFACES + [get_surface("quadric_p3")]:
        rows = screen_rows(surface)
        for _ in range(12):
            spread = rng.choice((3, 8, 62))
            c = tuple(rng.randint(-spread, spread) for _ in surface.H.coeffs)
            P = DivisorClass(surface.basis, c)
            for ascending_only in (True, False):
                offered = {
                    target
                    for _, target in screened_moves(
                        surface, rows, c, rows.invariants(c), ascending_only, cap
                    )
                }
                vias = [(BILIAISON, h) for h in (1, 2, 3)]
                if not ascending_only:
                    vias += [(BILIAISON, h) for h in (-3, -2, -1)]
                    vias += [(G_LINK, m) for m in (1, 2, 3, 4)]
                for via in vias:
                    kind, x = via
                    S = P + x * surface.H if kind == BILIAISON else x * surface.H - surface.K - P
                    inv = rows.invariants(S.coeffs)
                    args = (surface, rows, S.coeffs, inv, ascending_only, cap)
                    full = list(screened_moves(*args))
                    kept = list(screened_moves(*args, via=via))
                    rest = iter(full)
                    assert all(pair in rest for pair in kept), (surface.id, c, via)
                    for move, T in _candidates(surface, S, ascending_only, cap):
                        target = (surface.id, T.coeffs)
                        if (move, target) in kept:
                            continue
                        if T == P:
                            skipped["parent"] += 1
                        elif target in offered:
                            skipped["offered"] += 1
                        else:
                            assert not _passes_class_screen(surface, T, cap), (
                                surface.id, c, via, move
                            )
                            skipped["screened", ascending_only] += 1
    assert skipped["parent"] and skipped["offered"]
    assert skipped["screened", True] and skipped["screened", False]


@pytest.mark.parametrize("surface", load_catalog().values(), ids=lambda s: s.id)
def test_moved_invariants_match_the_lattice(surface):
    """Invariants carried along random walks of biliaisons and G-links
    equal those recomputed on the built class, and give its (d, g)."""
    rng = random.Random(48)
    rows = screen_rows(surface)
    starts = [surface.H, *lines_on(surface).classes]
    for walk in range(40):
        C = rng.choice(starts)
        inv = rows.invariants(C.coeffs)
        for _ in range(8):
            if rng.random() < 0.5:
                move = (BILIAISON, rng.choice((-3, -2, -1, 1, 2, 3)))
                C = C + move[1] * surface.H
            else:
                move = (G_LINK, rng.randint(1, 4))
                C = move[1] * surface.H - surface.K - C
            inv = moved_invariants(rows, inv, move)
            assert inv == _class_invariants(surface, C) == rows.invariants(C.coeffs), (walk, C)
            assert all(type(v) is int or v in (math.inf, -math.inf) for v in inv), (walk, C)
            genus = (inv[1] + inv[2]) // 2 + 1
            assert (inv[0], genus) == (degree(C, surface), arithmetic_genus(C, surface))


def _alternate_catalog(tmp_path, **replaced):
    """A catalog file of the packaged del_pezzo_4 and cubic_scroll records,
    with fields of cubic_scroll replaced."""
    packaged = resources.files("liaisonkit.data").joinpath("surfaces.json")
    raw = json.loads(packaged.read_text(encoding="utf-8"))
    records = {s["id"]: s for s in raw["surfaces"]}
    scroll = dict(records["cubic_scroll"], **replaced)
    path = tmp_path / "alt.json"
    path.write_text(
        json.dumps({"surfaces": [records["del_pezzo_4"], scroll]}), encoding="utf-8"
    )
    return str(path)


def test_search_seeds_from_an_alternate_catalog(tmp_path):
    alt = _alternate_catalog(tmp_path, id="my_scroll")
    start = CurveRecord.on_surface(get_surface("my_scroll", alt), B((2, 2)), rao=RaoTag.zero())
    chain = ascending_chain_search((5, 0), surfaces=["my_scroll"], starts=[start], catalog_path=alt)
    assert isinstance(chain, Chain)
    assert chain.liaison_steps == 1 and chain.end.witness.cls == B((4, 3))
    assert chain.end.witness_surface() == get_surface("my_scroll", alt)


def test_rewitness_hops_hold_on_the_search_catalog(tmp_path):
    # (2;1,1,0,0,0) on del_pezzo_4 is a (4, 0) curve; the table re-witnesses it
    # as (2;0) on cubic_scroll, and one biliaison there reaches (7, 3).  When
    # H = (3;1), (2;0) has (d, g) = (6, 0), so the hop goes and (7, 3) is out
    # of reach: a biliaison on del_pezzo_4 adds 4 to the degree
    target = (7, 3)
    surfaces = ["cubic_scroll", "del_pezzo_4"]
    packaged = CurveRecord.on_surface(DP, B((2, 1, 1, 0, 0, 0)))
    chain = ascending_chain_search(target, surfaces=surfaces, starts=[packaged], max_steps=1)
    assert [s.kind for s in chain.steps] == [REWITNESS, BILIAISON]
    assert chain.steps[0].after.witness.cls == B((2, 0))

    alt = _alternate_catalog(tmp_path, H=[3, 1], degree=8, sectional_genus=1)
    dp = get_surface("del_pezzo_4", alt)
    start = CurveRecord.on_surface(dp, B((2, 1, 1, 0, 0, 0)))
    result = ascending_chain_search(
        target, surfaces=surfaces, starts=[start], max_steps=1, catalog_path=alt
    )
    assert isinstance(result, SearchFailure)
