"""Elementary biliaison, Gorenstein links through anticanonical-twist
divisors, and the ascending chain search from line classes.

The Gorenstein divisors used for links on an ACM surface are modeled as
the classes ``m*H - K``; the hyperplane twist of such a divisor is ``m``,
which fixes the Rao-tag bookkeeping: one link dualizes the tag and
reflects its start degree at ``m``, so two links compose to the even
shift of a biliaison of height ``m' - m``.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    LiaisonkitError,
    LinkageError,
    MissingWitnessError,
    Record,
    UnsupportedSurfaceError,
    _set,
)
from .lattice import (
    DivisorClass,
    arithmetic_genus,
    degree,
    expected_dim_linear_system,
    intersect,  # unused here; bench/run.py requires this module to bind it
)
from .surfaces import (
    ScreenRows,
    SurfaceModel,
    get_surface,
    is_effective_candidate,
    lines_on,
    load_catalog,
    screen_rows,
)
from .curves import CurveRecord, RaoTag
from .search import SearchFailure, expand, path_to

BILIAISON = "biliaison"
G_LINK = "g_link"
REWITNESS = "rewitness"


class ChainStep(Record):
    """One liaison move with full before/after records.  The after record
    is always rebuilt from the lattice, never copied."""

    __slots__ = ("kind", "before", "after", "h", "m")

    def __init__(
        self,
        kind: str,
        before: CurveRecord,
        after: CurveRecord,
        h: int | None = None,
        m: int | None = None,
    ):
        _set(self, "kind", kind)
        _set(self, "before", before)
        _set(self, "after", after)
        _set(self, "h", h)
        _set(self, "m", m)

    def describe(self) -> str:
        surface_id = self.after.witness_surface().id
        if self.kind == BILIAISON:
            return f"biliaison h={self.h} on {surface_id}"
        if self.kind == G_LINK:
            return f"g_link m={self.m} on {surface_id}"
        return f"rewitness on {surface_id}"


class Chain(Record):
    """Ordered liaison moves; the auditable history of a search result.
    Consecutive steps share a record: (d, g), witness and Rao tag."""

    __slots__ = ("steps", "ascending_only")

    found = True

    def __init__(self, steps: tuple[ChainStep, ...], ascending_only: bool = True):
        for a, b in zip(steps, steps[1:]):
            if a.after != b.before:
                raise LiaisonkitError(
                    f"chain records do not match: {a.after} vs {b.before}"
                )
        if ascending_only:
            for s in steps:
                if s.kind == BILIAISON and (s.h is None or s.h < 0):
                    raise LiaisonkitError("descending step in an ascending chain")
                if s.kind == G_LINK:
                    raise LiaisonkitError("odd link in an ascending chain")
        _set(self, "steps", steps)
        _set(self, "ascending_only", ascending_only)

    @property
    def start(self) -> CurveRecord | None:
        return self.steps[0].before if self.steps else None

    @property
    def end(self) -> CurveRecord | None:
        return self.steps[-1].after if self.steps else None

    @property
    def liaison_steps(self) -> int:
        """Number of liaison moves (rewitness hops are zero-cost)."""
        return sum(1 for s in self.steps if s.kind != REWITNESS)

    @property
    def net_rao_shift(self) -> int:
        return sum(s.h for s in self.steps if s.kind == BILIAISON and s.h is not None)

    def describe(self) -> list[str]:
        out = []
        for s in self.steps:
            before = s.before.witness.cls if s.before.witness else s.before.dg
            after = s.after.witness.cls if s.after.witness else s.after.dg
            out.append(f"{before} --{s.describe()}--> {after} {s.after.dg}")
        return out


def elementary_biliaison(curve: CurveRecord, h: int) -> CurveRecord:
    """Replace C by C + h*H on its witness surface.

    Degree becomes d + h*deg(S) and the genus moves by
    h*d + h*(h*deg(S) + H.K)/2; both are recomputed from the lattice.
    The Rao tag shifts by h.  The resulting class is not checked for
    effectivity; the chain search certifies the classes it returns.
    """
    surface = curve.witness_surface()
    return CurveRecord.on_surface(
        surface, curve.witness.cls + h * surface.H, rao=curve.rao.shifted(h)
    )


def g_link_on_surface(curve: CurveRecord, m: int) -> CurveRecord:
    """Link C through the Gorenstein divisor D = m*H - K on its witness
    surface; returns the residual D - C.  Degrees add up to deg(D); the
    Rao tag is dualized and its start reflected at m."""
    surface = curve.witness_surface()
    ag = m * surface.H - surface.K
    residual = ag - curve.witness.cls
    if degree(residual, surface) < 1:
        raise LinkageError(
            f"residual of ({curve.degree},{curve.genus}) under m={m} has degree "
            f"{degree(residual, surface)}"
        )
    return CurveRecord.on_surface(surface, residual, rao=curve.rao.linked(m))


def family_dimension(surface: SurfaceModel, cls: DivisorClass) -> int:
    """Dimension of the family swept by |C| as the surface moves: the
    surface term plus the Riemann-Roch estimate for dim |C|.  The surface
    term is ``surface.family_dim``, chi(N_X) derived at catalog load for
    P4 surfaces only; it is the dimension of the Hilbert scheme at X only
    when h^1(N_X) = 0."""
    if surface.family_dim is None:
        raise UnsupportedSurfaceError(
            f"family dimension undefined for {surface.id} (ambient {surface.ambient})"
        )
    return surface.family_dim + expected_dim_linear_system(cls, surface)


def hilbert_dim_lower_bound(d: int, g: int) -> int:
    """Differential lower bound 5d + 1 - g for every component of the
    Hilbert scheme of (d, g) curves in P4."""
    return 5 * d + 1 - g


# ---------------------------------------------------------------------------
# Re-witnessing: moving a (d, g) record onto a different catalog surface.
# The admissible re-embeddings ship as an explicit table; each entry is
# revalidated against the lattice at import time.
# ---------------------------------------------------------------------------

REWITNESS_TABLE: dict[tuple[int, int], tuple[tuple[str, tuple[int, ...]], ...]] = {
    (4, 0): (
        ("bordiga_6", (2, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0)),
        ("castelnuovo_5", (1, 0, 0, 0, 0, 0, 0, 0, 0)),
        ("cubic_scroll", (2, 0)),
        ("del_pezzo_4", (2, 1, 1, 0, 0, 0)),
    ),
    (5, 0): (
        ("bordiga_6", (2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)),
        ("cubic_scroll", (4, 3)),
    ),
    (5, 1): (
        ("cubic_scroll", (3, 1)),
        ("del_pezzo_4", (3, 1, 1, 1, 1, 0)),
    ),
    (6, 2): (
        ("castelnuovo_5", (4, 2, 1, 1, 1, 1, 1, 1, 0)),
        ("cubic_scroll", (4, 2)),
        ("del_pezzo_4", (4, 2, 1, 1, 1, 1)),
    ),
}


def validate_rewitness_table() -> None:
    for dg, entries in REWITNESS_TABLE.items():
        for surface_id, coeffs in entries:
            s = get_surface(surface_id)
            c = DivisorClass.blownup(coeffs)
            got = (degree(c, s), arithmetic_genus(c, s))
            if got != dg:
                raise LiaisonkitError(
                    f"rewitness entry {coeffs} on {surface_id} has {got}, table says {dg}"
                )
            if not is_effective_candidate(s, c):
                raise LiaisonkitError(
                    f"rewitness entry {coeffs} on {surface_id} fails the screen"
                )


# Also warms ``lines_on`` for the table's surfaces before any search runs.
validate_rewitness_table()


_COEFF_BOX = 60

# Heights and twists of the any-direction search.
_HEIGHTS = (-3, -2, -1, 1, 2, 3)
_TWISTS = (1, 2, 3, 4)


def _fresh(move):
    """The heights and twists, in search order, whose targets from a state
    S reached by ``move`` from P are neither P nor a target P offered:
    C + hH and mH - K - C compose to shifts and links of P (see
    :func:`screened_moves`)."""
    kind, x = move
    if kind == BILIAISON:  # S = P + xH
        heights = [h for h in _HEIGHTS if x + h not in (0, *_HEIGHTS)]
        twists = [m for m in _TWISTS if m - x not in _TWISTS]
    else:  # S = xH - K - P
        heights = [h for h in _HEIGHTS if x + h not in _TWISTS]
        twists = [m for m in _TWISTS if m - x not in (0, *_HEIGHTS)]
    return tuple(heights), tuple(twists)


# any-direction moves by the move that reached the state; None for roots
_FRESH_MOVES = {None: (_HEIGHTS, _TWISTS)} | {
    move: _fresh(move)
    for move in [(BILIAISON, h) for h in _HEIGHTS] + [(G_LINK, m) for m in _TWISTS]
}


def _default_surfaces(catalog_path: str | None = None) -> list[str]:
    catalog = load_catalog(catalog_path)
    return sorted(sid for sid, s in catalog.items() if s.ambient == "P4")


def _dg(inv) -> tuple[int, int]:
    """(degree, genus) from the invariants of a state, by adjunction
    (C^2 + C.K)/2 + 1; C^2 + C.K is always even (see
    :func:`~liaisonkit.lattice.arithmetic_genus`)."""
    return inv[0], (inv[1] + inv[2]) // 2 + 1


def moved_invariants(rows: ScreenRows, inv, move):
    """The :meth:`~liaisonkit.surfaces.ScreenRows.invariants` of the class
    that ``move`` reaches from a class with invariants ``inv``.

    Every line has L.H = 1, so with deg = C.H, p_min = min_L L.C and
    k_max = max_L (L.K + L.C), the biliaison C + hH has

        deg + h H^2,  C^2 + 2h deg + h^2 H^2,  C.K + h H.K,  p_min + h,  k_max + h,

    and the Gorenstein link mH - K - C has, with D = mH - K,

        m H^2 - H.K - deg,  D^2 - 2(m deg - C.K) + C^2,  m H.K - K^2 - C.K,
        m - k_max,  m - p_min.

    On a surface with no lines p_min and k_max are ``math.inf`` and
    ``-math.inf``, and these formulas keep them so.  Here and in
    :func:`screened_moves` they meet only integer addition, subtraction
    and comparison, which are exact on an infinity, so finite values stay
    ints and an infinite bound never rejects a move.
    """
    deg, c2, ck, p_min, k_max = inv
    kind, x = move
    if kind == BILIAISON:
        return (
            deg + x * rows.hh,
            c2 + x * (2 * deg + x * rows.hh),
            ck + x * rows.hk,
            p_min + x,
            k_max + x,
        )
    d2 = x * (x * rows.hh - 2 * rows.hk) + rows.kk
    return (
        x * rows.hh - rows.hk - deg,
        d2 - 2 * (x * deg - ck) + c2,
        x * rows.hk - rows.kk - ck,
        x - k_max,
        x - p_min,
    )


def screened_moves(
    surface: SurfaceModel,
    rows: ScreenRows,
    c,
    inv,
    ascending_only: bool,
    degree_cap: int,
    via=None,
):
    """The ``(move, (surface_id, coeffs))`` pairs of the search from the
    class with coefficients ``c`` and invariants ``inv`` (see
    :meth:`~liaisonkit.surfaces.ScreenRows.invariants`) on ``surface``,
    reached by the move ``via`` (``None`` for a root or a table hop).

    Biliaisons C + hH come first (heights 1.. up to the degree cap when
    ``ascending_only``, stopping at the first height that takes a
    coefficient past the box for good; otherwise -3..3 without 0), then
    Gorenstein links mH - K - C for m in 1..4 (not when
    ``ascending_only``).  A candidate is kept when its degree lies in
    [1, degree_cap], its coefficients in the box, and it passes
    :func:`is_effective_candidate`.

    A move whose target the parent P of the state S already offered, or
    which returns to P, is left out.  With S = P + hH, the biliaison h'
    reaches P + (h + h')H and the link m' reaches (m' - h)H - K - P; with
    S = mH - K - P, the biliaison h' reaches (m + h')H - K - P and the link
    m' reaches P + (m' - m)H.  So after a biliaison h the heights h' with
    |h + h'| <= 3 and the twists with 1 <= m' - h <= 4 go, after a link m
    the heights with 1 <= m + h' <= 4 and every twist go, and when
    ``ascending_only`` a state reached by a biliaison has no moves, since
    P offered every height under the cap.  The screen reads the target
    class only, so a left-out target is P, was kept from P, or fails the
    screen from either.

    Only the box needs the candidate's coefficients; the rest reads
    ``inv = (deg, C^2, C.K, p_min, k_max)`` with p_min = min_L L.C and
    k_max = max_L (L.K + L.C) over the lines L of ``rows``.  Every line
    has L.H = 1, so

        L.(C + hH) = L.C + h,      L.(mH - K - C) = m - L.K - L.C,

    the degrees are deg + h H^2 and m H^2 - H.K - deg, and the screen is
    p_min + h >= 0 for a biliaison and m >= k_max for a link; its degree
    test is the lower end of the window.  The kept moves are those of the
    class-level screen.  On a surface with no lines p_min is ``math.inf``
    and k_max is ``-math.inf``, so only the degree and the box decide.
    """
    hh = rows.hh
    deg, _, _, p_min, k_max = inv
    if ascending_only:
        if via is not None:
            return
        heights = range(1, (degree_cap - deg) // hh + 1)
        twists = ()
    else:
        heights, twists = _FRESH_MOVES[via]
    H = surface.H.coeffs
    for h in heights:
        if not 1 <= deg + h * hh <= degree_cap:
            continue
        if p_min + h < 0:
            continue
        cand = tuple([x + h * y for x, y in zip(c, H)])
        if min(cand) < -_COEFF_BOX or max(cand) > _COEFF_BOX:
            if ascending_only and any(
                (y > 0 and x > _COEFF_BOX) or (y < 0 and x < -_COEFF_BOX)
                for x, y in zip(cand, H)
            ):
                # c_i + h H_i has left the box on the side H_i moves it
                # to, so every larger height fails the box too
                break
            continue
        yield (BILIAISON, h), (surface.id, cand)
    K = surface.K.coeffs
    for m in twists:
        if not 1 <= m * hh - rows.hk - deg <= degree_cap:
            continue
        if m < k_max:
            continue
        cand = tuple([m * y - k - x for x, y, k in zip(c, H, K)])
        if min(cand) < -_COEFF_BOX or max(cand) > _COEFF_BOX:
            continue
        yield (G_LINK, m), (surface.id, cand)


class _Exploration:
    """The breadth-first levels of the chain search from one seed set over
    one set of surface models, in one mode under one degree cap, built one
    level at a time when a search asks for a deeper one.

    Level 0 is the seeds closed under the table hops; level i + 1 is the
    states first reached by a move from level i, closed the same way (hop
    targets are roots).  ``sizes`` keeps the size of every level, ``first``
    maps each (d, g) to the level where it first appears and the lowest
    sorted state of that level, and ``parent`` keeps every state seen.
    Only the newest level keeps its states and their invariants (deg, C^2,
    C.K, min_L L.C, max_L (L.K + L.C)), from which the next level is built.
    """

    def __init__(self, models, ascending_only, degree_cap, seeds):
        self.models = {s.id: s for s in models}
        self.rows = {sid: screen_rows(s) for sid, s in self.models.items()}
        self.ascending_only = ascending_only
        self.degree_cap = degree_cap

        # the table was checked on the packaged models; keep the hops that
        # hold on these models
        self.hops: dict[tuple[int, int], list] = {}
        self.hop_inv = {}
        for dg, entries in REWITNESS_TABLE.items():
            for sid, coeffs in entries:
                surface = self.models.get(sid)
                if surface is None or len(coeffs) != len(surface.H.coeffs):
                    continue
                hop = self.rows[sid].invariants(coeffs)
                if _dg(hop) == dg:
                    self.hops.setdefault(dg, []).append(((REWITNESS, None), (sid, coeffs)))
                    self.hop_inv[sid, coeffs] = hop

        if seeds is None:
            inv = {}
            for sid, surface in self.models.items():
                for line, line_inv in zip(
                    lines_on(surface).classes, self.rows[sid].line_invariants
                ):
                    inv[sid, line.coeffs] = line_inv
            if not inv:
                raise UnsupportedSurfaceError(
                    f"no line classes on {', '.join(self.models)} to seed the "
                    "search, so starts must be given"
                )
        else:
            inv = {s: self.rows[s[0]].invariants(s[1]) for s in seeds}

        self.sizes: list[int] = []
        self.first: dict[tuple[int, int], tuple[int, tuple]] = {}
        self._add_level(dict.fromkeys(inv), sorted(inv), inv)

    def _moves(self, state):
        sid, c = state
        link = self.parent[state]
        via = None if link is None or link[1][0] == REWITNESS else link[1]
        return screened_moves(
            self.models[sid],
            self.rows[sid],
            c,
            self._inv[state],
            self.ascending_only,
            self.degree_cap,
            via,
        )

    def _add_level(self, parent, new, inv):
        # every state of one (d, g) has the same hops, so one pass closes
        hopped = expand(new, parent, lambda s: self.hops.get(_dg(inv[s]), ()))
        inv.update((s, self.hop_inv[s]) for s in hopped)
        frontier = sorted(new + hopped)
        first = self.first.copy()
        for s in frontier:
            first.setdefault(_dg(inv[s]), (len(self.sizes), s))
        self.parent, self._frontier, self._inv, self.first = parent, frontier, inv, first
        self.sizes.append(len(frontier))

    def _grow(self):
        # build into copies of ``parent`` and ``first``, so an interrupted
        # build leaves the shared exploration as it was
        parent = self.parent.copy()
        new = expand(self._frontier, parent, self._moves)
        inv = {
            s: moved_invariants(self.rows[s[0]], self._inv[parent[s][0]], parent[s][1])
            for s in new
        }
        self._add_level(parent, new, inv)

    def replay(self, state, tags):
        """The steps from the root of ``state`` to it, rebuilt on divisor
        classes and certified, and the last record.  ``tags`` maps each
        seed state to the Rao tag of its root record; ``None`` tags every
        root with the zero tag of a line."""
        (_, root), *path = path_to(self.parent, state)
        surface = self.models[root[0]]
        record = CurveRecord.on_surface(
            surface,
            DivisorClass(surface.basis, root[1]),
            rao=RaoTag.zero() if tags is None else tags[root],
        )
        steps = []
        for (kind, payload), (sid, coeffs) in path:
            if kind == BILIAISON:
                after = elementary_biliaison(record, payload)
                step = ChainStep(BILIAISON, before=record, after=after, h=payload)
            elif kind == G_LINK:
                after = g_link_on_surface(record, payload)
                step = ChainStep(G_LINK, before=record, after=after, m=payload)
            else:  # rewitness
                surface = self.models[sid]
                after = CurveRecord.on_surface(
                    surface, DivisorClass(surface.basis, coeffs), rao=record.rao
                )
                if after.dg != record.dg:
                    raise LiaisonkitError("rewitness changed (d,g)")
                step = ChainStep(REWITNESS, before=record, after=after)
            if kind != REWITNESS and not is_effective_candidate(
                after.witness.surface, after.witness.cls
            ):
                raise LiaisonkitError(
                    f"replayed {kind} result {after.witness.cls} on {sid} "
                    "fails the effectivity screen"
                )
            steps.append(step)
            record = after
        return steps, record


@lru_cache(maxsize=None)
def _exploration(models, ascending_only, degree_cap, seeds) -> _Exploration:
    """The exploration shared by every search with these inputs in this
    process: ``models`` is a tuple of surface models sorted by id, and
    ``seeds`` is ``None`` for the default line seeds or the sorted
    (surface_id, coeffs) states of the starts."""
    return _Exploration(models, ascending_only, degree_cap, seeds)


def ascending_chain_search(
    target,
    surfaces=None,
    ascending_only: bool = True,
    max_steps: int = 8,
    starts: list[CurveRecord] | None = None,
    catalog_path: str | None = None,
):
    """Breadth-first search for a liaison chain reaching the (degree,
    genus) pair ``target``.

    ``target`` is a pair of ints; any other value raises
    :class:`~liaisonkit.errors.LiaisonkitError`, as do a ``surfaces``
    given as one string and a ``max_steps`` that is not an int >= 1.
    Repeated surface ids count once.  States are (surface_id, coefficient
    tuple) pairs, which sort like the classes they stand for; moves are
    elementary biliaisons (heights >= 1 when ``ascending_only``, otherwise
    nonzero heights in [-3, 3] plus Gorenstein links with twists m in
    [1, 4]; see :func:`screened_moves`), and zero-cost re-witness hops
    through the shipped table.  Starts default to every line class on
    every allowed surface, and
    :class:`~liaisonkit.errors.UnsupportedSurfaceError` is raised when
    none carries a line class.  Surface ids resolve in the catalog at
    ``catalog_path`` (the packaged one by default); a table hop is skipped
    when its class has another (d, g) on that catalog's model.

    Levels follow the determinism rule of :mod:`liaisonkit.search`, and
    the lowest sorted state of the target's (d, g) at the first level
    where it appears ends the search.  So the order of ``surfaces`` does
    not change the chain, nor does the order of ``starts`` unless two
    starts share a class with different Rao tags (the first one listed
    wins).  The chain is replayed on divisor classes from its root, which
    carries its start's Rao tag (the zero tag for a default line seed),
    and certified: every biliaison and Gorenstein-link result must pass
    :func:`is_effective_candidate` and the last record must have the
    target (d, g), or :class:`~liaisonkit.errors.LiaisonkitError` is
    raised.  Failure is a value (:class:`~liaisonkit.search.SearchFailure`);
    a target of degree < 1, which no curve has, raises
    :class:`~liaisonkit.errors.LiaisonkitError`.

    The levels do not depend on the target: a move is kept by the screen
    and the degree cap alone, so the target only picks the level where the
    walk stops, and ``max_steps`` how many levels are read.  So the levels
    are built once per process for each key (the allowed surface models,
    ``ascending_only``, the degree cap, and the seed states; Rao tags
    matter only at the root, so starts that differ only in a tag share
    one), kept for the life of the process, and grown one level at a time
    while the target (d, g) has not appeared, the last level is not empty
    and no more than ``max_steps`` levels are built.  The degree cap is
    the target degree d, or d + 2 max H^2 for an any-direction search.
    Every call replays and certifies its own chain.

    Each state of the newest level carries its invariants (deg, C^2, C.K,
    min_L L.C, max_L (L.K + L.C)).  Roots compute them from the dual rows
    of :func:`~liaisonkit.surfaces.screen_rows` (the default line seeds
    read its per-line table) and every other state derives them from its
    parent by :func:`moved_invariants`, so screening a move and finding a
    level's (d, g) take a few integer operations, with no dot product.

    A state passes the move that reached it to :func:`screened_moves`,
    which leaves out the moves whose targets its parent P already
    offered or which return to P; roots and hop targets get every move.
    By induction over the levels every target P offered is in ``parent``
    once P's level is expanded, and the screen reads the target class
    only, so a left-out move reaches a state already seen or one the
    screen drops.  ``expand`` ignores both, and the parent links, the
    chain, ``explored`` and ``frontier_sizes`` are those of the full
    move lists.
    """
    if type(max_steps) is not int or max_steps < 1:
        raise LiaisonkitError(f"max_steps must be an int >= 1, got {max_steps!r}")
    if isinstance(surfaces, str):
        raise LiaisonkitError(
            f"surfaces must be a list of surface ids, got the string {surfaces!r}"
        )
    surface_ids = (
        sorted(set(surfaces)) if surfaces is not None else _default_surfaces(catalog_path)
    )
    if not surface_ids:
        raise LiaisonkitError("empty surface set")
    if starts is not None and not starts:
        raise LiaisonkitError("empty start set")
    models = {sid: get_surface(sid, catalog_path) for sid in surface_ids}

    pair = isinstance(target, tuple) and len(target) == 2
    if not (pair and all(type(x) is int for x in target)):
        raise LiaisonkitError(f"target must be (degree, genus) as ints, got {target!r}")
    if target[0] < 1:
        raise LiaisonkitError(f"target degree {target[0]} < 1: no curve has degree below 1")

    degree_cap = target[0] if ascending_only else target[0] + 2 * max(
        s.degree for s in models.values()
    )

    seeds = tags = None
    if starts is not None:
        tags = {}
        for rec in starts:
            if rec.witness is None:
                raise MissingWitnessError("search seeds need witnessed curves")
            surface = rec.witness.surface
            if models.get(surface.id) != surface:
                raise LiaisonkitError(f"seed surface {surface.id} not in the allowed set")
            tags.setdefault((surface.id, rec.witness.cls.coeffs), rec.rao)
        seeds = tuple(sorted(tags))

    exploration = _exploration(tuple(models.values()), ascending_only, degree_cap, seeds)
    sizes = exploration.sizes
    while target not in exploration.first and len(sizes) <= max_steps and sizes[-1]:
        exploration._grow()
    hit = exploration.first.get(target)
    if hit is not None and hit[0] <= max_steps:
        steps, record = exploration.replay(hit[1], tags)
        if record.dg != target:
            raise LiaisonkitError(f"replayed chain ends at {record}, not at {target}")
        return Chain(tuple(steps), ascending_only=ascending_only)

    frontier_sizes = tuple(sizes[: max_steps + 1])
    return SearchFailure(
        target=target,
        explored=sum(frontier_sizes[:-1]),
        frontier_sizes=frontier_sizes,
        bounds={
            "max_steps": max_steps,
            "coeff_box": _COEFF_BOX,
            "degree_cap": degree_cap,
            "surfaces": tuple(surface_ids),
            "ascending_only": ascending_only,
        },
    )
