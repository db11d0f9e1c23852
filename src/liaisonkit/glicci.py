"""Chain search over point-configuration h-vectors: connect n general
points to a single point by Gorenstein links.

States are point counts carrying their generic h-vectors; a move links
the current configuration through an enumerated Gorenstein h-vector and
must land on another generic configuration (the default admissibility
rule; a permissive rule accepts any valid residual).  Chains are always
re-validated step by step before being returned.

Three process-global caches, filled on first use and never cleared,
serve every chain: the Gorenstein tables (``_gorenstein_h_vectors``),
the move lists of each point count and mass cap (``_moves``) and the
generic h-vectors (``_generic``).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import compress
from math import comb
from operator import itemgetter, sub

from .errors import LiaisonkitError, LinkageError, Record, _require_int, _set
from .hvectors import (
    HVector,
    _ambient_codim,
    generic_points_h_vector,
    growth_envelope,
    link_h_vector,
    macaulay_bound,
)
from .search import SearchFailure, expand, path_to

DEFAULT_SOCLE_BOUND = 12


def _build_gorenstein_h_vectors(
    codim: int, max_mass: int, socle_bound: int
) -> tuple[HVector, ...]:
    """All Gorenstein h-vectors of the codimension with mass <= max_mass
    and socle degree <= socle_bound, in lexicographic order.

    Each vector is the symmetric completion of a first half whose first
    difference is built as an O-sequence with h(1) <= codim, so it is an
    SI-sequence by construction; ``is_gorenstein_h_vector`` stays the
    test oracle.  The search prunes on sum(half) <= max_mass, which is at
    most the mass of every completion below it, so a build capped at m is
    the mass filter of any build capped higher, order included.  No two
    halves complete to the same vector: every entry is >= 1, so socle
    degree s gives length s + 1, and one s and one half give one
    completion."""
    found = []

    def build(first_half, s):
        if s % 2 == 0:
            full = first_half + tuple(reversed(first_half[:-1]))
        else:
            full = first_half + tuple(reversed(first_half))
        if sum(full) <= max_mass:
            found.append(HVector(full, ambient_codim=codim))

    def extend(diffs, half, s):
        m = s // 2
        if len(half) == m + 1:
            build(tuple(half), s)
            return
        i = len(diffs) - 1
        cap = macaulay_bound(diffs[-1], i) if i >= 1 else (codim - 1)
        for d in range(0, cap + 1):
            diffs.append(d)
            half.append(half[-1] + d)
            # symmetric completion has mass >= sum(half); prune early
            if sum(half) <= max_mass:
                extend(diffs, half, s)
            diffs.pop()
            half.pop()

    for s in range(0, socle_bound + 1):
        extend([1], [1], s)
    del extend  # a cycle through its own cell: free it now, not at a gc run
    return tuple(sorted(found, key=lambda h: h.entries))


def _check_socle_bound(socle_bound) -> None:
    _require_int("socle_bound", socle_bound)
    if socle_bound < 0:
        raise LiaisonkitError(f"socle_bound must be >= 0, got {socle_bound}")


def _saturation(codim: int, socle_bound: int) -> int:
    """Largest mass of a Gorenstein h-vector of the codimension with socle
    degree <= socle_bound: no cap at or above it prunes the table.

    The half (binom(i + codim - 1, codim - 1))_i has maximal growth in
    every degree, so it dominates every first half entrywise, and mass
    grows with the socle degree, so the maximum is at socle_bound
    (140 for (3, 12), 49 for (2, 12))."""
    half = [comb(i + codim - 1, codim - 1) for i in range(socle_bound // 2 + 1)]
    return 2 * sum(half) - (half[-1] if socle_bound % 2 == 0 else 0)


def _mass_cap(codim: int, max_mass: int, socle_bound: int) -> int:
    """Cap of the cached table that serves ``max_mass``: the next power of
    two at or above it, or the saturation when that is smaller."""
    return min(1 << (max_mass - 1).bit_length(), _saturation(codim, socle_bound))


class _Node:
    """Prefix-index node: the table entries that share one prefix, in
    lexicographic order, with their masses and the least and largest of
    those masses, and one child per value of the entry after the prefix,
    by ascending value."""

    __slots__ = ("children", "below", "masses", "lo", "hi")

    def __init__(self, children, below, masses, lo, hi):
        self.children = children
        self.below = below
        self.masses = masses
        self.lo = lo
        self.hi = hi


def _index(table: tuple[HVector, ...], masses: tuple[int, ...], depth: int) -> _Node:
    # table: lexicographically sorted entries sharing a prefix of length
    # depth; the prefix itself, if it is an entry, comes first, and the
    # longer entries follow in runs of equal entry at index depth
    children = []
    i = 1 if len(table[0].entries) == depth else 0
    while i < len(table):
        v = table[i].entries[depth]
        j = i + 1
        while j < len(table) and table[j].entries[depth] == v:
            j += 1
        children.append((v, _index(table[i:j], masses[i:j], depth + 1)))
        i = j
    return _Node(tuple(children), table, masses, min(masses), max(masses))


@lru_cache(maxsize=None)
def _gorenstein_h_vectors(codim: int, mass_cap: int, socle_bound: int) -> _Node:
    """The Gorenstein table of the codimension, capped at ``mass_cap`` and
    socle degree ``socle_bound``, as the root of a prefix index over its
    entry tuples.  Built on first use, never at import.

    ``ag_candidates_containing`` asks only for caps that are powers of two
    or the saturation ``_saturation(codim, socle_bound)``, and serves a
    smaller ``max_mass`` as a mass filter of the table, which equals a
    build capped at ``max_mass``.  Every cap at or above saturation is the
    one saturated table (367 entries for (3, 12)), shared by all larger
    configurations; doubling caps keep the table of a small configuration
    small at a large socle bound (the saturated (3, 30) table has 196,573
    entries)."""
    table = _build_gorenstein_h_vectors(codim, mass_cap, socle_bound)
    return _index(table, tuple(w.mass for w in table), 0)


def ag_candidates_containing(
    z: HVector, max_mass: int, socle_bound: int = DEFAULT_SOCLE_BOUND
) -> list[HVector]:
    """Gorenstein h-vectors w with z <= w componentwise and mass at most
    ``max_mass``, in deterministic lexicographic order.

    Walks the prefix index of a cached table (see ``_gorenstein_h_vectors``)
    whose cap is at least ``max_mass``: a branch is dropped once its entry
    at depth i is below z(i) or its least mass is above ``max_mass``; at
    depth len(z) every entry below the node contains z, and the node's
    lexicographic list is appended, filtered by mass only when the node's
    largest mass is above ``max_mass``.  The walk costs in proportion to
    the output, not to the table."""
    if z.ambient_codim not in (2, 3):
        raise LiaisonkitError(f"unsupported codimension {z.ambient_codim}")
    _require_int("max_mass", max_mass)
    _check_socle_bound(socle_bound)
    if max_mass < z.mass:
        raise LiaisonkitError("max_mass below the mass of the configuration")
    ze = z.entries
    depth = len(ze)
    out: list[HVector] = []

    def walk(node: _Node, i: int) -> None:
        if i == depth:
            if node.hi <= max_mass:
                out.extend(node.below)
            else:
                out.extend(compress(node.below, [m <= max_mass for m in node.masses]))
            return
        zi = ze[i]
        for v, child in node.children:
            if v >= zi and child.lo <= max_mass:
                walk(child, i + 1)

    cap = _mass_cap(z.ambient_codim, max_mass, socle_bound)
    walk(_gorenstein_h_vectors(z.ambient_codim, cap, socle_bound), 0)
    del walk  # a cycle through its own cell: free it now, not at a gc run
    return out


@lru_cache(maxsize=None)
def _generic(m: int, ambient: str, surface_degree: int | None) -> HVector:
    """The generic h-vector of m points, built once per process."""
    return generic_points_h_vector(m, ambient, surface_degree=surface_degree)


@lru_cache(maxsize=None)
def _moves(
    m: int, ambient: str, surface_degree: int | None, socle_bound: int, cap: int
) -> tuple[tuple[HVector, int], ...]:
    """(w, m2) link moves from the m-point generic configuration to
    generic m2 points through a linking scheme w of mass <= ``cap``, by
    ascending m2, keeping the lexicographically first w per target.  On a
    surface the linking scheme must also fit under the constrained growth
    caps.  A configuration above ``cap`` has no moves.

    Each candidate is screened by its target count first: the residual
    r(i) = w(i) - z(s - i), i = 0..s, has mass m2 = mass(w) - m exactly,
    because len(w) >= len(z) (w contains z) puts every entry of z in the
    sum.  So the range and new-target checks run on m2 before r is
    formed.  A survivor is screened by r itself: with trailing zeros
    trimmed it must be the generic vector of m2 points, and only a w that
    passes is handed to ``link_h_vector``.  The screen rejects no move
    that ``link_h_vector`` would accept: w is Gorenstein (the table is
    built so) and contains z (``ag_candidates_containing`` checked it), so
    the link succeeds exactly when r is nonnegative, starts with 1 and is
    an O-sequence, and then returns r.  A generic vector has all three
    properties, so the link lands on generic m2 points iff r equals that
    vector, and the first w per target is the one a full
    ``link_h_vector`` scan would keep.

    A chain capped at ``max_intermediate`` reads the prefix with
    m2 <= max_intermediate - m of the list for ``_mass_cap`` of that cap.
    That prefix equals a scan capped at ``max_intermediate``: w has mass
    m + m2, so the mass cap is a cap on m2, and the candidates of one m2
    come in the same lexicographic order from either table."""
    if m > cap:
        # ag_candidates_containing would raise; every w is lighter than z
        return ()
    z = _generic(m, ambient, surface_degree)
    if surface_degree is not None:
        envelope = growth_envelope(socle_bound + 2, ambient, surface_degree)
    else:
        envelope = None
    ze = z.entries
    rz = ze[::-1]
    targets: dict[int, HVector] = {}
    for w in ag_candidates_containing(z, cap, socle_bound):
        m2 = w.mass - m
        if m2 < 1 or m2 in targets:
            continue
        we = w.entries
        if envelope is not None and any(v > envelope[i] for i, v in enumerate(we)):
            continue
        # z(s - i) for i = 0..s: z reversed, zero-padded to len(w)
        r = tuple(map(sub, we, (0,) * (len(we) - len(ze)) + rz))
        g = _generic(m2, ambient, surface_degree).entries
        if r[: len(g)] != g or any(r[len(g) :]):
            continue
        try:
            res = link_h_vector(z, w)
        except LinkageError:
            continue
        if res.entries == g:
            targets[m2] = w
    return tuple((w, m2) for m2, w in sorted(targets.items()))


class PointChain(Record):
    """Glicci chain: configuration states and the Gorenstein link used
    between each consecutive pair."""

    __slots__ = ("states", "links")

    found = True

    def __init__(self, states: tuple[HVector, ...], links: tuple[HVector, ...]):
        if len(links) != max(len(states) - 1, 0):
            raise LiaisonkitError("chain shape mismatch")
        _set(self, "states", states)
        _set(self, "links", links)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(s.mass for s in self.states)

    @property
    def length(self) -> int:
        return len(self.links)

    @property
    def start_count(self) -> int:
        return self.states[0].mass

    @property
    def monotone_descending(self) -> bool:
        counts = self.counts
        return all(a > b for a, b in zip(counts, counts[1:]))

    @property
    def max_intermediate_degree(self) -> int:
        """Largest point count of a linking scheme or an intermediate
        configuration; the start count when there is neither."""
        masses = [w.mass for w in self.links] + [s.mass for s in self.states[1:-1]]
        return max(masses, default=self.start_count)

    @property
    def exceeds_start(self) -> bool:
        """Whether any intermediate configuration or linking scheme is
        larger than the starting configuration."""
        return self.max_intermediate_degree > self.start_count

    def validate(self) -> None:
        """Re-run every link; no cached state is trusted."""
        for i, w in enumerate(self.links):
            res = link_h_vector(self.states[i], w)
            if res.entries != self.states[i + 1].entries:
                raise LinkageError(
                    f"chain step {i} does not re-validate: {res} != {self.states[i + 1]}"
                )


def glicci_chain(
    n: int,
    ambient: str = "P3",
    mode: str = "full",
    max_intermediate: int | None = None,
    socle_bound: int = DEFAULT_SOCLE_BOUND,
    surface_degree: int | None = None,
):
    """Shortest chain of Gorenstein links from n general points down to a
    single point, or a :class:`~liaisonkit.search.SearchFailure` report
    whose target is n.

    ``mode`` is ``full`` (bidirectional search, ascending links allowed)
    or ``descending_only``.  ``surface_degree`` constrains every
    configuration and every linking scheme to lie on a surface of that
    degree (P3 only).  ``max_intermediate`` caps the point count of every
    configuration and linking scheme (3n by default); it must be at
    least n, the count of the first configuration.

    States are point counts.  Levels follow the determinism rule of
    :mod:`liaisonkit.search`; a move from m points links through the
    lexicographically first Gorenstein h-vector that reaches each count.
    """
    _require_int("n", n)
    if n < 1:
        raise LiaisonkitError("need at least one point")
    _check_socle_bound(socle_bound)
    codim = _ambient_codim(ambient, surface_degree)
    if mode not in ("full", "descending_only"):
        raise LiaisonkitError(f"unknown mode {mode!r}")
    descending = mode == "descending_only"
    if max_intermediate is None:
        max_intermediate = 3 * n
    else:
        _require_int("max_intermediate", max_intermediate)
    if max_intermediate < n:
        raise LiaisonkitError(
            f"max_intermediate {max_intermediate} is below the start count n={n}; "
            "every chain passes through the n points"
        )

    cap = _mass_cap(codim, max_intermediate, socle_bound)

    def moves(m):
        """The cached moves from m points whose target fits the bounds
        of this chain (see ``_moves`` for why a prefix suffices)."""
        table = _moves(m, ambient, surface_degree, socle_bound, cap)
        top = min(max_intermediate - m, m - 1) if descending else max_intermediate - m
        return table[: bisect_right(table, top, key=itemgetter(1))]

    # links are involutions, so the goal side walks the same moves
    parent_a = {n: None}
    parent_b = {1: None}
    front_a, front_b = [n], [1]
    explored = 0
    meets = [m for m in front_a if m in parent_b]
    while front_a and front_b and not meets:
        # descending: only downward moves are legal, so search from n only
        if descending or len(front_a) <= len(front_b):
            explored += len(front_a)
            front_a = expand(front_a, parent_a, moves)
            meets = [m for m in front_a if m in parent_b]
        else:
            explored += len(front_b)
            front_b = expand(front_b, parent_b, moves)
            meets = [m for m in front_b if m in parent_a]

    if not meets:
        return SearchFailure(
            target=n,
            explored=explored,
            bounds={
                "max_intermediate": max_intermediate,
                "socle_bound": socle_bound,
                "mode": mode,
                "ambient": ambient,
                "surface_degree": surface_degree,
            },
        )

    meet = min(
        meets, key=lambda m: (len(path_to(parent_a, m)) + len(path_to(parent_b, m)), m)
    )
    # n ... meet ... 1
    left, right = path_to(parent_a, meet), path_to(parent_b, meet)
    seq = [m for _, m in left] + [m for _, m in reversed(right[:-1])]
    links = tuple(w for w, _ in left[1:]) + tuple(w for w, _ in reversed(right[1:]))
    states = tuple(_generic(m, ambient, surface_degree) for m in seq)
    chain = PointChain(states=states, links=links)
    chain.validate()
    return chain
