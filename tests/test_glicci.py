"""Point-configuration link chains: candidate enumeration, move lists
against the full link scan, the small-n exhaustive oracle, step
re-validation, and pinned chains."""

import gc
import itertools
import json
import random
from pathlib import Path

import pytest

from liaisonkit import glicci
from liaisonkit.errors import LiaisonkitError, LinkageError
from liaisonkit.glicci import (
    PointChain,
    _build_gorenstein_h_vectors,
    _generic,
    _gorenstein_h_vectors,
    _mass_cap,
    _moves,
    _saturation,
    ag_candidates_containing,
    glicci_chain,
)
from liaisonkit.hvectors import (
    HVector,
    acm_h_vector_candidates,
    generic_points_h_vector,
    growth_envelope,
    is_gorenstein_h_vector,
    link_h_vector,
)
from liaisonkit.search import SearchFailure
from liaisonkit.surfaces import enumerate_classes, get_surface


def test_ag_candidates_basic():
    cands = [w.entries for w in ag_candidates_containing(HVector((1,)), 4)]
    assert (1, 1, 1, 1) in cands
    assert (1, 2, 1) in cands
    assert all(sum(c) <= 4 for c in cands)
    self_contained = ag_candidates_containing(HVector((1, 3, 3, 1)), 8)
    assert any(w.entries == (1, 3, 3, 1) for w in self_contained)
    assert len(ag_candidates_containing(HVector((1, 3, 6, 8)), 28)) > 0


def test_ag_candidates_sorted_and_valid():
    cands = ag_candidates_containing(HVector((1, 2)), 20)
    entries = [w.entries for w in cands]
    assert entries == sorted(entries)
    for w in cands:
        assert is_gorenstein_h_vector(w)
        assert w.entries[1] >= 2


def test_ag_candidates_rejects_small_budget():
    with pytest.raises(LiaisonkitError):
        ag_candidates_containing(HVector((1, 3, 6)), 5)


def test_ag_candidates_rejects_malformed_input():
    # the table is the SI-sequences, Gorenstein only in codimension <= 3
    with pytest.raises(LiaisonkitError, match="unsupported codimension 4"):
        ag_candidates_containing(HVector((1, 4, 1), ambient_codim=4), 10)
    with pytest.raises(LiaisonkitError, match="socle_bound must be >= 0, got -1"):
        ag_candidates_containing(HVector((1,)), 10, socle_bound=-1)
    with pytest.raises(LiaisonkitError, match="max_mass must be an integer, got 10.5"):
        ag_candidates_containing(HVector((1,)), 10.5)


def _scan(z, max_mass, socle_bound, builds):
    """The linear scan over a build capped at max_mass (reference)."""
    key = (z.ambient_codim, max_mass, socle_bound)
    if key not in builds:
        builds[key] = _build_gorenstein_h_vectors(*key)
    ze = z.entries
    return [
        w
        for w in builds[key]
        if len(w.entries) >= len(ze) and all(a <= b for a, b in zip(ze, w.entries))
    ]


def test_ag_candidates_match_the_linear_scan():
    # generic and non-generic z, masses from z's own up past saturation,
    # across the power-of-two and saturated caps of the cached tables
    builds = {}
    compared = 0
    for codim, ambient in ((2, "P2"), (3, "P3")):
        zs = [generic_points_h_vector(m, ambient) for m in (1, 2, 3, 4, 7, 10, 16, 25)]
        zs += [
            HVector(e, ambient_codim=codim)
            for e in ((1, 1), (1, 1, 1, 1), (1, 2, 1), (1, 0, 1), (1, 2, 2, 2), (1, 1, 3))
        ]
        for socle_bound in range(13):
            sat = _saturation(codim, socle_bound)
            for z in zs:
                masses = {z.mass, z.mass + 1, 8, 9, 16, 17, 32, 33}
                masses |= {sat // 2, sat - 1, sat, sat + 1, 3 * sat}
                for max_mass in sorted(m for m in masses if m >= z.mass):
                    got = ag_candidates_containing(z, max_mass, socle_bound)
                    want = _scan(z, max_mass, socle_bound, builds)
                    assert got == want, (z, max_mass, socle_bound)
                    compared += 1
    assert compared > 2000


def test_mass_filtered_table_equals_a_capped_build():
    for codim in (2, 3):
        one_point = HVector((1,), ambient_codim=codim)
        for socle_bound in range(13):
            full = _build_gorenstein_h_vectors(codim, 10**6, socle_bound)
            assert len(set(full)) == len(full)
            sat = _saturation(codim, socle_bound)
            assert sat == max(w.mass for w in full)
            step = 1 if socle_bound <= 8 else 7
            for max_mass in list(range(1, sat + 2, step)) + [sat, 2 * sat]:
                got = ag_candidates_containing(one_point, max_mass, socle_bound)
                assert got == list(_build_gorenstein_h_vectors(codim, max_mass, socle_bound))
                assert got == [w for w in full if w.mass <= max_mass]


def test_mass_cap_bounds():
    # a small configuration keeps a table within 4x its mass; once the
    # power of two passes half the saturation, the saturated table serves
    for codim in (2, 3):
        for socle_bound in range(31):
            sat = _saturation(codim, socle_bound)
            for max_mass in range(1, 3 * sat + 1):
                cap = _mass_cap(codim, max_mass, socle_bound)
                assert min(max_mass, sat) <= cap <= sat, (codim, socle_bound, max_mass)
                assert cap < 4 * max_mass, (codim, socle_bound, max_mass)
                assert cap == sat or cap & (cap - 1) == 0, (codim, socle_bound, max_mass)


def _clear_glicci_caches():
    _gorenstein_h_vectors.cache_clear()
    _moves.cache_clear()
    _generic.cache_clear()


def test_candidate_source_contract(monkeypatch):
    # bench/tracer.py counts candidates by rebinding the module attribute
    # glicci.ag_candidates_containing, reads _gorenstein_h_vectors'
    # cache_info() and bench/freeze.py calls its cache_clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ag_candidates_containing(*args, **kwargs)

    monkeypatch.setattr(glicci, "ag_candidates_containing", counted)
    # cold caches: move lists cached by an earlier test would skip the walk
    _clear_glicci_caches()
    assert _gorenstein_h_vectors.cache_info().currsize == 0
    assert isinstance(glicci_chain(10), PointChain)
    assert calls
    info = _gorenstein_h_vectors.cache_info()
    assert info.misses >= 1 and info.hits >= 1
    # a second chain reads the cached move lists and walks no table
    calls.clear()
    hits = _moves.cache_info().hits
    assert isinstance(glicci_chain(10), PointChain)
    assert calls == []
    assert _moves.cache_info().hits > hits


def test_searches_leave_no_cyclic_garbage():
    # a self-recursive closure reaches itself through its own cell, so each
    # call would leave a cycle for the collector; cold glicci caches make
    # glicci_chain build its tables and walk them, and the unwrapped
    # acm_h_vector_candidates runs its search whatever the cache holds
    _clear_glicci_caches()
    gc.collect()
    gc.disable()
    try:
        enumerate_classes(get_surface("castelnuovo_5"), 8)
        glicci_chain(30)
        acm_h_vector_candidates.__wrapped__(19, 27)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _chain_repr(inp):
    n, kwargs, socle_bound, max_intermediate = inp
    return repr(
        glicci_chain(n, socle_bound=socle_bound, max_intermediate=max_intermediate, **kwargs)
    )


def test_warm_move_cache_equals_cold():
    # every glicci cache cleared before each call, against one warm pass in
    # shuffled order: a cached move list must not depend on which chain,
    # mode or max_intermediate built it
    inputs = [
        (n, kwargs, socle_bound, max_intermediate)
        for kwargs in (
            {"ambient": "P2"},
            {"ambient": "P3"},
            {"ambient": "P3", "mode": "descending_only"},
            {"ambient": "P3", "surface_degree": 2},
            {"ambient": "P3", "surface_degree": 3},
        )
        for socle_bound in (6, 12, 20)
        for n in (*range(1, 13), 16, 20, 24, 30)
        for max_intermediate in (None, n, n + 3, 2 * n)
    ]

    cold = []
    for inp in inputs:
        _clear_glicci_caches()
        cold.append(_chain_repr(inp))
    order = random.Random(16).sample(range(len(inputs)), len(inputs))
    _clear_glicci_caches()
    warm = {i: _chain_repr(inputs[i]) for i in order}
    assert [warm[i] for i in range(len(inputs))] == cold
    assert any("SearchFailure" in r for r in cold)
    assert any("PointChain" in r for r in cold)


def _link_scan(m, ambient, surface_degree, socle_bound, cap):
    """The move list by full linkage (reference): per candidate within the
    envelope, link through w and keep the first w per m2 whose residual is
    the generic vector of m2 points."""
    z = generic_points_h_vector(m, ambient, surface_degree=surface_degree)
    envelope = None
    if surface_degree is not None:
        envelope = growth_envelope(socle_bound + 2, ambient, surface_degree)
    targets = {}
    for w in ag_candidates_containing(z, cap, socle_bound):
        if envelope is not None and any(v > envelope[i] for i, v in enumerate(w.entries)):
            continue
        try:
            res = link_h_vector(z, w)
        except LinkageError:
            continue
        m2 = res.mass
        generic = generic_points_h_vector(m2, ambient, surface_degree=surface_degree)
        if m2 not in targets and res == generic:
            targets[m2] = w
    return tuple((w, m2) for m2, w in sorted(targets.items()))


def test_moves_equal_the_link_scan():
    # the length window and residual test of _moves decide each move
    # exactly as a full link_h_vector scan does, at power-of-two and
    # saturated caps; plain P3 at the saturated socle-20 cap stops at
    # m = 12, where its scans get slow
    compared = 0
    for ambient, surface_degree, codim, top20 in (
        ("P2", None, 2, 30),
        ("P3", None, 3, 12),
        ("P3", 2, 3, 30),
        ("P3", 3, 3, 30),
    ):
        domain = [(s, cap, 30) for s in (3, 6, 12) for cap in (16, _saturation(codim, s))]
        domain += [(20, 32, 30), (20, _saturation(codim, 20), top20)]
        for socle_bound, cap, top in domain:
            for m in range(1, min(cap, top) + 1):
                args = (m, ambient, surface_degree, socle_bound, cap)
                assert _moves(*args) == _link_scan(*args), args
                compared += 1
    assert compared > 500


def _brute_force_glicci_reachable(n, max_mass, socle_bound=6, max_depth=4):
    """Exhaustive BFS oracle over point counts for small n."""
    frontier = {n}
    seen = {n}
    for _ in range(max_depth):
        nxt = set()
        for m in frontier:
            z = generic_points_h_vector(m)
            for w in ag_candidates_containing(z, max_mass, socle_bound):
                try:
                    res = link_h_vector(z, w)
                except LinkageError:
                    continue
                if res.entries != generic_points_h_vector(res.mass).entries:
                    continue
                if res.mass not in seen:
                    nxt.add(res.mass)
        if 1 in nxt:
            return True
        seen |= nxt
        frontier = nxt
    return 1 in seen


def test_small_n_against_exhaustive_oracle():
    for n in range(1, 9):
        chain = glicci_chain(n)
        assert isinstance(chain, PointChain)
        if n > 1:
            assert _brute_force_glicci_reachable(n, 3 * n)


def test_n4_links_through_five_point_scheme():
    chain = glicci_chain(4)
    chain.validate()
    assert chain.counts == (4, 1)
    assert chain.links[0].entries == (1, 3, 1)


def test_pinned_chains():
    # pins the bidirectional meet, the goal-side half of the chain and the
    # descending walk, which the benchmark oracle checks only by length
    chain = glicci_chain(36)
    assert chain.counts == (36, 19, 10, 4, 1)
    assert [w.mass for w in chain.links] == [55, 29, 14, 5]
    assert glicci_chain(51).counts == (51, 40, 15, 13, 1)
    assert glicci_chain(40, mode="descending_only").counts == (40, 15, 13, 1)


def test_pinned_links():
    # whole linking schemes, not only their masses, on the bidirectional,
    # descending, P2 and surface-envelope branches of the move generator
    cases = [
        (
            glicci_chain(36),
            [
                (1, 3, 6, 10, 15, 10, 6, 3, 1),
                (1, 3, 6, 9, 6, 3, 1),
                (1, 3, 6, 3, 1),
                (1, 3, 1),
            ],
        ),
        (
            glicci_chain(40, mode="descending_only"),
            [(1, 3, 6, 10, 15, 10, 6, 3, 1), (1, 3, 6, 8, 6, 3, 1), (1, 3, 6, 3, 1)],
        ),
        (
            glicci_chain(30, ambient="P2"),
            [
                (1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1),
                (1, 2, 3, 4, 5, 4, 3, 2, 1),
                (1, 2, 3, 2, 1),
                (1, 2, 1),
            ],
        ),
        (
            glicci_chain(18, surface_degree=3),
            [(1, 3, 6, 9, 6, 3, 1), (1, 3, 6, 3, 1), (1, 2, 1)],
        ),
    ]
    for chain, links in cases:
        assert [w.entries for w in chain.links] == links


GLICCI_ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle" / "glicci_sweep.json"

# (mode, n) keys of the oracle, as bench/worker.py maps them
GLICCI_MODES = {
    "p2": {"ambient": "P2"},
    "p3": {"ambient": "P3"},
    "p3_desc": {"ambient": "P3", "mode": "descending_only"},
    "cubic": {"ambient": "P3", "surface_degree": 3},
}


def test_glicci_sweep_oracle():
    # the benchmark's frozen chain lengths ("fail" for no chain), for every
    # cell of the table; found chains re-validate
    oracle = json.loads(GLICCI_ORACLE.read_text(encoding="utf-8"))
    assert len(oracle["table"]) == 309
    wrong = []
    for key, want in oracle["table"].items():
        mode, n = json.loads(key)
        result = glicci_chain(n, **GLICCI_MODES[mode])
        if isinstance(result, SearchFailure):
            got = "fail"
        else:
            result.validate()
            got = result.length
        if got != want:
            wrong.append((key, got))
    assert wrong == []


def test_chains_do_not_depend_on_the_cap(monkeypatch):
    # a chain reads the m2 <= max_intermediate - m prefix of the move lists
    # of whatever cap _mass_cap picks, so tables capped at max_intermediate
    # exactly must give the same chains; max_intermediate runs across the
    # power of two p <= sat / 2 where the cap switches to the saturation
    inputs = []
    for kwargs in GLICCI_MODES.values():
        codim = 2 if kwargs["ambient"] == "P2" else 3
        for socle_bound in (6, 12, 20):
            sat = _saturation(codim, socle_bound)
            p = 1 << ((sat // 2).bit_length() - 1)
            for max_intermediate in sorted({p - 1, p, p + 1, sat // 2, sat // 2 + 1, sat}):
                for n in (1, 2, 4, 9, 13, 18, 30, 49):
                    if n <= max_intermediate:
                        inputs.append((n, kwargs, socle_bound, max_intermediate))

    shared = [_chain_repr(inp) for inp in inputs]
    monkeypatch.setattr(glicci, "_mass_cap", lambda codim, max_mass, socle_bound: max_mass)
    exact = [_chain_repr(inp) for inp in inputs]
    _clear_glicci_caches()  # drop the exact-cap tables and move lists
    assert exact == shared
    assert any("SearchFailure" in r for r in shared)
    assert any("PointChain" in r for r in shared)


def test_n1_empty_chain():
    chain = glicci_chain(1)
    assert chain.length == 0 and chain.counts == (1,)


def test_p3_full_mode_through_19():
    for n in range(1, 20):
        chain = glicci_chain(n, ambient="P3", mode="full")
        assert isinstance(chain, PointChain), n
        chain.validate()
        assert chain.counts[0] == n and chain.counts[-1] == 1


def test_p2_through_30():
    for n in range(1, 31):
        chain = glicci_chain(n, ambient="P2")
        assert isinstance(chain, PointChain), n
        chain.validate()
        assert chain.counts[-1] == 1


def test_n18_report_contents():
    chain = glicci_chain(18)
    chain.validate()
    assert chain.start_count == 18
    assert chain.max_intermediate_degree >= max(w.mass for w in chain.links)
    assert chain.exceeds_start  # the linking schemes outgrow 18 points
    assert isinstance(chain.monotone_descending, bool)


def test_descending_mode_is_monotone():
    for n in (5, 10, 18):
        chain = glicci_chain(n, mode="descending_only")
        assert isinstance(chain, PointChain)
        chain.validate()
        assert chain.monotone_descending
        assert list(chain.counts) == sorted(chain.counts, reverse=True)


def test_cubic_surface_constraint():
    for n in (6, 18, 19):
        chain = glicci_chain(n, surface_degree=3)
        assert isinstance(chain, PointChain)
        chain.validate()
        env = (1, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39)
        for w in chain.links:
            assert all(v <= env[i] for i, v in enumerate(w.entries))


def test_validation_rejects_tampered_chain():
    chain = glicci_chain(5)
    tampered = PointChain(
        states=(chain.states[0], generic_points_h_vector(2), chain.states[-1]),
        links=chain.links[:1] + chain.links[:1],
    )
    with pytest.raises(LinkageError):
        tampered.validate()


def test_failure_is_a_value():
    # an impossible budget: can't even contain the configuration
    result = glicci_chain(12, max_intermediate=12, socle_bound=3)
    assert isinstance(result, SearchFailure)
    assert (result.target, result.frontier_sizes) == (12, ())
    assert result.bounds["socle_bound"] == 3
    assert not result.found


def test_max_intermediate_below_n_is_rejected():
    with pytest.raises(LiaisonkitError, match="max_intermediate 3 is below the start count n=5"):
        glicci_chain(5, max_intermediate=3)
    # equal to n stays legal
    assert glicci_chain(1, max_intermediate=1).counts == (1,)
    assert isinstance(glicci_chain(3, max_intermediate=3), SearchFailure)


def test_input_validation():
    with pytest.raises(LiaisonkitError):
        glicci_chain(0)
    with pytest.raises(LiaisonkitError):
        glicci_chain(5, ambient="P7")
    with pytest.raises(LiaisonkitError):
        glicci_chain(5, mode="sideways")
    with pytest.raises(LiaisonkitError, match="surface degree must be >= 1"):
        glicci_chain(5, surface_degree=0)
    with pytest.raises(LiaisonkitError, match="surface constraint applies to P3 only"):
        glicci_chain(5, ambient="P2", surface_degree=3)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((True,), {}, "n must be an integer, got True"),
        ((5.0,), {}, "n must be an integer, got 5.0"),
        ((5,), {"socle_bound": -1}, "socle_bound must be >= 0, got -1"),
        ((1,), {"socle_bound": -1}, "socle_bound must be >= 0, got -1"),
        ((5,), {"socle_bound": 6.0}, "socle_bound must be an integer, got 6.0"),
        ((5,), {"max_intermediate": 20.5}, "max_intermediate must be an integer, got 20.5"),
        ((5,), {"surface_degree": True}, "surface degree must be an integer, got True"),
    ],
)
def test_glicci_chain_rejects_malformed_numbers(args, kwargs, message):
    with pytest.raises(LiaisonkitError, match=message):
        glicci_chain(*args, **kwargs)
