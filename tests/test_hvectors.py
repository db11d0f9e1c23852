"""Hilbert-function combinatorics against independent oracles:

* Macaulay growth vs explicit lex-ideal monomial counting;
* generic h-vectors vs the rank of evaluation matrices at random points
  over a large prime field;
* link involution and mass conservation over a bounded enumeration.
"""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liaisonkit import hvectors
from liaisonkit.errors import CharacterError, LiaisonkitError, LinkageError
from liaisonkit.hvectors import (
    HVector,
    PostulationCharacter,
    acm_character,
    acm_h_vector_candidates,
    character_is_connected,
    character_is_positive,
    generic_points_h_vector,
    growth_envelope,
    is_gorenstein_h_vector,
    is_O_sequence,
    link_h_vector,
    macaulay_bound,
)
from liaisonkit.glicci import _build_gorenstein_h_vectors


# ---------------------------------------------------------------------------
# oracle 1: lex-ideal growth.  The maximal growth of an O-sequence equals
# the number of degree-(i+1) standard monomials of the lex ideal whose
# degree-i part has the prescribed codimension.
# ---------------------------------------------------------------------------


def _monomials(nvars, degree):
    out = []
    for bars in itertools.combinations(range(degree + nvars - 1), nvars - 1):
        expo = []
        prev = -1
        for b in bars:
            expo.append(b - prev - 1)
            prev = b
        expo.append(degree + nvars - 2 - prev)
        out.append(tuple(expo))
    # lex order with x0 > x1 > ...: sort by exponent tuple descending
    return sorted(out, reverse=True)


def _lex_growth(value, degree, nvars):
    """Max algebra growth from `value` standard monomials in `degree`."""
    mons = _monomials(nvars, degree)
    ideal = set(mons[: len(mons) - value])  # lex-first monomials generate
    grown = set()
    for m in ideal:
        for v in range(nvars):
            e = list(m)
            e[v] += 1
            grown.add(tuple(e))
    total_next = comb(degree + nvars, nvars - 1)
    return total_next - len(grown)


def test_macaulay_bound_against_lex_ideal_oracle():
    for nvars in (2, 3, 4):
        for degree in (1, 2, 3, 4):
            total = comb(degree + nvars - 1, nvars - 1)
            for value in range(0, total + 1):
                expected = _lex_growth(value, degree, nvars)
                got = min(macaulay_bound(value, degree), comb(degree + nvars, nvars - 1))
                assert got == expected, (value, degree, nvars)


def test_is_o_sequence_examples():
    assert is_O_sequence((1, 3, 6, 10))
    assert not is_O_sequence((1, 0, 1))
    assert is_O_sequence((1, 3, 6, 8))
    assert not is_O_sequence((1, 3, 7))
    assert not is_O_sequence((2, 1))
    assert is_O_sequence((1,))


# ---------------------------------------------------------------------------
# oracle 2: evaluation-rank Hilbert function of random points over F_p.
# ---------------------------------------------------------------------------

_P = 2**31 - 1


def _rank_mod_p(rows):
    rank = 0
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % _P), None)
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], _P - 2, _P)
        rows[r] = [(x * inv) % _P for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % _P for x, y in zip(rows[i], rows[r])]
        r += 1
        col += 1
    return r


def _points_h_vector_oracle(n, nvars, rng):
    """h-vector of n random points in P^(nvars-1) via evaluation ranks."""
    pts = [[rng.randrange(1, _P) for _ in range(nvars)] for _ in range(n)]
    hf = []
    i = 0
    while True:
        mons = _monomials(nvars, i)
        rows = []
        for p in pts:
            row = []
            for m in mons:
                v = 1
                for base, e in zip(p, m):
                    v = (v * pow(base, e, _P)) % _P
                row.append(v)
            rows.append(row)
        hf.append(_rank_mod_p(rows))
        if hf[-1] == n:
            break
        i += 1
    return tuple(x - y for x, y in zip(hf, [0] + hf[:-1]))


@pytest.mark.parametrize("n", [1, 4, 11, 18, 20])
def test_generic_points_h_vector_against_rank_oracle_p3(n):
    rng = random.Random(900 + n)
    assert generic_points_h_vector(n, "P3").entries == _points_h_vector_oracle(
        n, 4, rng
    )


@pytest.mark.parametrize("n", [1, 3, 7, 13, 30])
def test_generic_points_h_vector_against_rank_oracle_p2(n):
    rng = random.Random(700 + n)
    assert generic_points_h_vector(n, "P2").entries == _points_h_vector_oracle(
        n, 3, rng
    )


def test_generic_points_examples():
    assert generic_points_h_vector(1).entries == (1,)
    assert generic_points_h_vector(20, "P3").entries == (1, 3, 6, 10)
    assert generic_points_h_vector(18, "P3").entries == (1, 3, 6, 8)


def test_generic_points_are_o_sequences_up_to_1e4():
    for ambient in ("P2", "P3"):
        for n in range(1, 10001):
            assert is_O_sequence(generic_points_h_vector(n, ambient))


def test_growth_envelope_on_cubic():
    assert growth_envelope(6, "P3", 3) == (1, 3, 6, 9, 12, 15)
    assert generic_points_h_vector(19, "P3", surface_degree=3).entries == (1, 3, 6, 9)
    assert generic_points_h_vector(20, "P3", surface_degree=3).entries == (1, 3, 6, 9, 1)


@pytest.mark.parametrize("surface_degree", [0, -1, -5])
def test_surface_degree_below_one_is_rejected(surface_degree):
    # every cap is then <= 0, so the greedy fill would never finish
    with pytest.raises(LiaisonkitError, match="surface degree must be >= 1"):
        generic_points_h_vector(5, surface_degree=surface_degree)
    with pytest.raises(LiaisonkitError, match="surface degree must be >= 1"):
        growth_envelope(4, "P3", surface_degree)


def test_ambient_and_count_checks():
    with pytest.raises(LiaisonkitError, match="surface constraint applies to P3 only"):
        growth_envelope(4, "P2", surface_degree=3)
    with pytest.raises(LiaisonkitError, match="surface constraint applies to P3 only"):
        generic_points_h_vector(5, "P2", surface_degree=3)
    with pytest.raises(LiaisonkitError, match="ambient must be P2 or P3, got 'P7'"):
        growth_envelope(4, "P7")
    assert growth_envelope(4, "P2") == (1, 2, 3, 4)
    with pytest.raises(LiaisonkitError, match="n must be an integer, got True"):
        generic_points_h_vector(True)
    with pytest.raises(LiaisonkitError, match="n must be an integer, got 5.0"):
        generic_points_h_vector(5.0)


def test_gorenstein_examples():
    assert is_gorenstein_h_vector(HVector((1, 3, 3, 1)))
    assert is_gorenstein_h_vector(HVector((1, 3, 6, 6, 3, 1)))
    assert not is_gorenstein_h_vector(HVector((1, 3, 2)))
    assert is_gorenstein_h_vector(HVector((1,)))
    assert not is_gorenstein_h_vector(HVector((1, 4, 4, 1)))  # h(1) too big
    assert is_gorenstein_h_vector(HVector((1, 2, 2, 1), ambient_codim=2))
    assert not is_gorenstein_h_vector(HVector((1, 2, 4, 2, 1), ambient_codim=2))
    with pytest.raises(Exception):
        is_gorenstein_h_vector(HVector((1, 3, 3, 1), ambient_codim=5))


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=4),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_gorenstein_prefix_pruning_is_monotone(body, odd):
    """If a symmetric completion passes, its first-half difference prefix
    passes at every truncation used by the enumeration."""
    half = (1,) + tuple(body)
    full = half + (tuple(reversed(half)) if odd else tuple(reversed(half[:-1])))
    try:
        h = HVector(full)
    except Exception:
        return
    if is_gorenstein_h_vector(h):
        diffs = [half[0]] + [half[i] - half[i - 1] for i in range(1, len(half))]
        for cut in range(1, len(diffs) + 1):
            assert is_O_sequence(tuple(diffs[:cut]))


def test_link_examples():
    assert link_h_vector(HVector((1, 3)), HVector((1, 3, 3, 1))).entries == (1, 3)
    assert link_h_vector(HVector((1,)), HVector((1, 3, 6, 6, 3, 1))).entries == (
        1, 3, 6, 6, 3,
    )
    with pytest.raises(LinkageError):
        link_h_vector(HVector((1, 3, 3, 1)), HVector((1, 3, 3, 1)))
    with pytest.raises(LinkageError):
        link_h_vector(HVector((1, 3, 6)), HVector((1, 3, 3, 1)))  # containment
    with pytest.raises(LinkageError):
        link_h_vector(HVector((1, 2)), HVector((1, 3, 2)))  # w not Gorenstein


def test_link_failures_pin_the_index(monkeypatch):
    with pytest.raises(LinkageError, match=r"containment violated: z\(2\) > w\(2\)") as err:
        link_h_vector(HVector((1, 3, 6)), HVector((1, 3, 3, 1)))
    assert err.value.index == 2
    # z longer than w: w is zero past its socle degree
    with pytest.raises(LinkageError, match=r"z\(2\) > w\(2\)") as err:
        link_h_vector(HVector((1, 1, 1)), HVector((1, 1)))
    assert err.value.index == 2
    # residual (1, 1, 2, 1): entry 2 exceeds 1^<1> = 1, the first break in growth
    with pytest.raises(LinkageError, match=r"\(1, 1, 2, 1\) is not a valid O-sequence \(at index 2\)") as err:
        link_h_vector(HVector((1, 1, 1, 1)), HVector((1, 2, 3, 2, 1)))
    assert err.value.index == 2
    # residual (0, 1) does not start with 1
    with pytest.raises(LinkageError, match=r"\(0, 1\) is not a valid O-sequence \(at index 0\)") as err:
        link_h_vector(HVector((1, 1, 1)), HVector((1, 2, 1)))
    assert err.value.index == 0
    # a symmetric w that contains z leaves no negative residual entry, so
    # this branch is reached only by a w that skips the Gorenstein check
    monkeypatch.setattr(hvectors, "is_gorenstein_h_vector", lambda h: True)
    with pytest.raises(LinkageError, match=r"negative residual entry -2 \(at index 2\)") as err:
        link_h_vector(HVector((1, 3)), HVector((1, 3, 1, 1)))
    assert err.value.index == 2


def _o_subvector_choices(w):
    """All O-sequences z with z <= w componentwise (for the involution sweep)."""
    ranges = [range(1, 2)] + [range(0, v + 1) for v in w.entries[1:]]
    for combo in itertools.product(*ranges):
        entries = tuple(combo)
        while entries and entries[-1] == 0:
            entries = entries[:-1]
        if entries and is_O_sequence(entries):
            yield entries


def test_link_involution_and_mass_bounded_enumeration():
    checked = 0
    for w in _build_gorenstein_h_vectors(3, 40, 6):
        for z_entries in _o_subvector_choices(w):
            z = HVector(z_entries)
            try:
                res = link_h_vector(z, w)
            except LinkageError:
                continue
            assert z.mass + res.mass == w.mass  # mass conservation
            back = link_h_vector(res, w)
            assert back.entries == z.entries  # involution
            checked += 1
    assert checked > 1000


def postulation_character(hf) -> PostulationCharacter:
    """Character of a curve from the Hilbert function of its coordinate
    ring, listed from degree 0: gamma = -(third difference), with the
    function extended by zero in negative degrees.  The Hilbert-function
    oracle for ``acm_character``.

    The input must reach the stable linear range (two equal consecutive
    first differences at the tail); otherwise a CharacterError is raised.

    >>> postulation_character([1, 2, 3, 4, 5]).values
    (-1, 1)
    """
    phi = list(hf)
    if len(phi) < 3:
        raise CharacterError("need at least three Hilbert function values")
    padded = [0, 0, 0] + phi
    d1 = [padded[i] - padded[i - 1] for i in range(1, len(padded))]
    d2 = [d1[i] - d1[i - 1] for i in range(1, len(d1))]
    d3 = [d2[i] - d2[i - 1] for i in range(1, len(d2))]
    if d1[-1] != d1[-2] or d2[-1] != 0:
        raise CharacterError("Hilbert function does not stabilize to linear growth")
    deg = d1[-1]
    if deg < 1:
        raise CharacterError("stable growth is constant: not a curve")
    gamma = [-x for x in d3]
    return PostulationCharacter(tuple(gamma), degree=deg)


def test_character_examples():
    line = postulation_character([1, 2, 3, 4, 5])
    assert line.values == (-1, 1) and line.degree == 1
    cubic = postulation_character([1, 4, 7, 10, 13])
    assert cubic.values == (-1, -1, 2) and cubic.degree == 3
    with pytest.raises(CharacterError):
        postulation_character([1, 1, 1, 1])  # constant: not a curve
    with pytest.raises(CharacterError):
        postulation_character([1, 4, 9, 16, 25])  # quadratic growth


def test_character_predicates():
    assert character_is_positive(PostulationCharacter((-1, 1), 1))
    assert character_is_connected(PostulationCharacter((-1, 1), 1))
    g = PostulationCharacter((-1, -1, 2), 3)
    assert character_is_positive(g) and character_is_connected(g)
    bad = PostulationCharacter((-1, 1, -1, 1), 2)
    assert not character_is_positive(bad)
    gap = PostulationCharacter((-1, -1, 2, -1, 1), 4)
    assert not character_is_positive(gap)
    assert not character_is_connected(PostulationCharacter((-1, 0, 1, -1, 1), 3))


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=5))
@settings(max_examples=500, deadline=None)
def test_character_roundtrip_invariants(tail):
    """Characters built from any h-vector satisfy both exact invariants,
    and the Hilbert-function pipeline reproduces them."""
    entries = (1,) + tuple(tail)
    while entries and entries[-1] == 0:
        entries = entries[:-1]
    h = entries
    gamma = acm_character(h)
    d = sum(h)
    assert sum(gamma.values) == 0
    assert sum(i * v for i, v in enumerate(gamma.values)) == d
    # rebuild the Hilbert function by triple summation and re-derive
    hf = []
    acc1 = acc2 = 0
    for ell in range(len(h) + 4):
        acc1 += h[ell] if ell < len(h) else 0
        acc2 += acc1
        hf.append(acc2)
    if d >= 1:
        again = postulation_character(hf)
        assert again.values == gamma.values
        assert again.degree == d


def test_acm_candidates_examples():
    assert acm_h_vector_candidates(4, 0) == ((1, 3),)
    assert acm_h_vector_candidates(5, 0) == ()
    assert acm_h_vector_candidates(8, 3) == ()
    assert acm_h_vector_candidates(19, 27) == ((1, 3, 6, 6, 3),)
    for h in acm_h_vector_candidates(9, 6):
        gamma = acm_character(h)
        assert character_is_positive(gamma) and character_is_connected(gamma)
