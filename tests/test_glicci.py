"""Point-configuration link chains: candidate enumeration, the small-n
exhaustive oracle, step re-validation, and worker invariance."""

import itertools

import pytest

from liaisonkit.errors import LiaisonkitError, LinkageError
from liaisonkit.glicci import (
    GlicciFailure,
    PointChain,
    ag_candidates_containing,
    glicci_chain,
)
from liaisonkit.hvectors import (
    HVector,
    generic_points_h_vector,
    is_gorenstein_h_vector,
    link_h_vector,
)


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
        assert w.get(1) >= 2


def test_ag_candidates_rejects_small_budget():
    with pytest.raises(LiaisonkitError):
        ag_candidates_containing(HVector((1, 3, 6)), 5)


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
        start_count=5,
        monotone_descending=True,
        max_intermediate_degree=chain.max_intermediate_degree,
    )
    with pytest.raises(LinkageError):
        tampered.validate()


def test_failure_is_a_value():
    # an impossible budget: can't even contain the configuration
    result = glicci_chain(12, max_intermediate=12, socle_bound=3)
    assert isinstance(result, GlicciFailure)
    assert result.bounds["socle_bound"] == 3
    assert not result.found


def test_input_validation():
    with pytest.raises(LiaisonkitError):
        glicci_chain(0)
    with pytest.raises(LiaisonkitError):
        glicci_chain(5, ambient="P7")
    with pytest.raises(LiaisonkitError):
        glicci_chain(5, mode="sideways")
