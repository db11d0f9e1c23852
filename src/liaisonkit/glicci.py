"""Chain search over point-configuration h-vectors: connect n general
points to a single point by Gorenstein links.

States are point counts carrying their generic h-vectors; a move links
the current configuration through an enumerated Gorenstein h-vector and
must land on another generic configuration (the default admissibility
rule; a permissive rule accepts any valid residual).  Chains are always
re-validated step by step before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import LiaisonkitError, LinkageError
from .hvectors import (
    AMBIENT_CODIM,
    HVector,
    generic_points_h_vector,
    growth_envelope,
    link_h_vector,
    macaulay_bound,
)

DEFAULT_SOCLE_BOUND = 12


@lru_cache(maxsize=None)
def _gorenstein_h_vectors(codim: int, max_mass: int, socle_bound: int) -> tuple[HVector, ...]:
    """All Gorenstein h-vectors of the codimension with mass <= max_mass
    and socle degree <= socle_bound, in lexicographic order.

    Each vector is the symmetric completion of a first half whose first
    difference is built as an O-sequence with h(1) <= codim, so it is an
    SI-sequence by construction; ``is_gorenstein_h_vector`` stays the
    test oracle."""
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
    return tuple(sorted(set(found), key=lambda h: h.entries))


def ag_candidates_containing(
    z: HVector, max_mass: int, socle_bound: int = DEFAULT_SOCLE_BOUND
) -> list[HVector]:
    """Gorenstein h-vectors w with z <= w componentwise and mass at most
    ``max_mass``, in deterministic lexicographic order."""
    if max_mass < z.mass:
        raise LiaisonkitError("max_mass below the mass of the configuration")
    out = []
    for w in _gorenstein_h_vectors(z.ambient_codim, max_mass, socle_bound):
        if w.socle_degree < z.socle_degree:
            continue
        if all(z.get(i) <= w.get(i) for i in range(len(z.entries))):
            out.append(w)
    return out


@dataclass(frozen=True)
class PointChain:
    """Glicci chain: configuration states and the Gorenstein link used
    between each consecutive pair."""

    states: tuple[HVector, ...]
    links: tuple[HVector, ...]
    start_count: int
    monotone_descending: bool
    max_intermediate_degree: int

    def __post_init__(self):
        if len(self.links) != max(len(self.states) - 1, 0):
            raise LiaisonkitError("chain shape mismatch")

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(s.mass for s in self.states)

    @property
    def length(self) -> int:
        return len(self.links)

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


@dataclass(frozen=True)
class GlicciFailure:
    n: int
    explored: int
    bounds: dict = field(default_factory=dict)
    message: str = "no glicci chain inside the search bounds"

    @property
    def found(self) -> bool:
        return False


def _edges(generator, m, max_intermediate, socle_bound, descending_only, envelope=None):
    """Deterministic link moves from the m-point generic configuration:
    list of (m_next, w), keeping the lexicographically first w per target.
    With an ``envelope`` the linking scheme must fit under the constrained
    growth caps (points on a fixed surface)."""
    z = generator(m)
    targets: dict[int, HVector] = {}
    for w in ag_candidates_containing(z, max_intermediate, socle_bound):
        if envelope is not None and any(
            v > envelope[i] for i, v in enumerate(w.entries)
        ):
            continue
        try:
            res = link_h_vector(z, w)
        except LinkageError:
            continue
        m2 = res.mass
        if m2 > max_intermediate:
            continue
        if descending_only and m2 >= m:
            continue
        if res.entries != generator(m2).entries:
            continue  # admissibility: generic stays generic
        if m2 not in targets:
            targets[m2] = w
    return sorted(targets.items())


def glicci_chain(
    n: int,
    ambient: str = "P3",
    mode: str = "full",
    max_intermediate: int | None = None,
    socle_bound: int = DEFAULT_SOCLE_BOUND,
    surface_degree: int | None = None,
):
    """Shortest chain of Gorenstein links from n general points down to a
    single point, or a :class:`GlicciFailure` report.

    ``mode`` is ``full`` (bidirectional search, ascending links allowed)
    or ``descending_only``.  ``surface_degree`` constrains every
    configuration and every linking scheme to lie on a surface of that
    degree (P3 only).

    The search is deterministic: each level walks its frontier in
    ascending point count, and the first move that reaches a new count
    becomes that count's parent.
    """
    if n < 1:
        raise LiaisonkitError("need at least one point")
    if ambient not in AMBIENT_CODIM:
        raise LiaisonkitError(f"ambient must be P2 or P3, got {ambient!r}")
    if mode not in ("full", "descending_only"):
        raise LiaisonkitError(f"unknown mode {mode!r}")
    descending = mode == "descending_only"
    if max_intermediate is None:
        max_intermediate = 3 * n

    def generator(m):
        return generic_points_h_vector(m, ambient, surface_degree=surface_degree)

    if surface_degree is not None:
        envelope = growth_envelope(socle_bound + 2, ambient, surface_degree)
    else:
        envelope = None

    def moves(m):
        return _edges(
            generator, m, max_intermediate, socle_bound, descending, envelope
        )

    def expand(frontier, dist, parent, other_dist):
        """One BFS level.  Returns (new_frontier, meeting_states)."""
        new_frontier = []
        for m in frontier:
            for m2, w in moves(m):
                if m2 not in dist:
                    dist[m2] = dist[m] + 1
                    parent[m2] = (m, w)
                    new_frontier.append(m2)
        new_frontier.sort()
        return new_frontier, [m2 for m2 in new_frontier if m2 in other_dist]

    start = n
    goal = 1
    if start == goal:
        state = generator(1)
        return PointChain(
            states=(state,),
            links=(),
            start_count=n,
            monotone_descending=True,
            max_intermediate_degree=state.mass,
        )

    dist_a = {start: 0}
    dist_b = {goal: 0}
    parent_a: dict[int, tuple[int, HVector]] = {}
    parent_b: dict[int, tuple[int, HVector]] = {}
    front_a, front_b = [start], [goal]
    explored = 0
    meets: list[int] = []
    if descending:
        # unidirectional: only downward moves are legal, so search from n
        while front_a and not meets:
            explored += len(front_a)
            front_a, meets = expand(front_a, dist_a, parent_a, dist_b)
    else:
        while front_a and front_b and not meets:
            if len(front_a) <= len(front_b):
                explored += len(front_a)
                front_a, meets = expand(front_a, dist_a, parent_a, dist_b)
            else:
                explored += len(front_b)
                front_b, meets = expand(front_b, dist_b, parent_b, dist_a)

    if not meets:
        return GlicciFailure(
            n=n,
            explored=explored,
            bounds={
                "max_intermediate": max_intermediate,
                "socle_bound": socle_bound,
                "mode": mode,
                "ambient": ambient,
                "surface_degree": surface_degree,
            },
        )

    meet = min(meets, key=lambda m: (dist_a.get(m, 10**9) + dist_b.get(m, 10**9), m))

    # stitch the two halves together: n ... meet ... 1
    left: list[tuple[int, HVector | None]] = []
    cur = meet
    while cur != start:
        prev, w = parent_a[cur]
        left.append((cur, w))
        cur = prev
    left.append((start, None))
    left.reverse()  # [(start, None), ..., (meet, w)]

    seq: list[int] = [m for m, _ in left]
    links: list[HVector] = [w for _, w in left[1:]]
    cur = meet
    while cur != goal:
        prev, w = parent_b[cur]
        # edge between cur and prev used link w (symmetric by involution)
        seq.append(prev)
        links.append(w)
        cur = prev

    states = tuple(generator(m) for m in seq)
    link_tuple = tuple(links)
    inter_masses = [w.mass for w in link_tuple] + [s.mass for s in states[1:-1]]
    chain = PointChain(
        states=states,
        links=link_tuple,
        start_count=n,
        monotone_descending=all(a > b for a, b in zip(seq, seq[1:])),
        max_intermediate_degree=max(inter_masses) if inter_masses else states[0].mass,
    )
    chain.validate()
    return chain
