"""Elementary biliaison, Gorenstein links through anticanonical-twist
divisors, complete-intersection linkage in P3, and the ascending chain
search from line classes.

The Gorenstein divisors used for links on an ACM surface are modeled as
the classes ``m*H - K``; the hyperplane twist of such a divisor is ``m``,
which fixes the Rao-tag bookkeeping: one link dualizes the tag and
reflects its start degree at ``m``, so two links compose to the even
shift of a biliaison of height ``m' - m``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    LiaisonkitError,
    LinkageError,
    MissingWitnessError,
    UnsupportedSurfaceError,
)
from .lattice import (
    BLOWNUP_PLANE,
    DivisorClass,
    arithmetic_genus,
    degree,
    expected_dim_linear_system,
    intersect,
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


@dataclass(frozen=True)
class ChainStep:
    """One liaison move with full before/after records.  The after record
    is always rebuilt from the lattice, never copied."""

    kind: str
    before: CurveRecord
    after: CurveRecord
    h: int | None = None
    m: int | None = None

    def describe(self) -> str:
        surface_id = self.after.witness_surface().id
        if self.kind == BILIAISON:
            return f"biliaison h={self.h} on {surface_id}"
        if self.kind == G_LINK:
            return f"g_link m={self.m} on {surface_id}"
        return f"rewitness on {surface_id}"


@dataclass(frozen=True)
class Chain:
    """Ordered liaison moves; the auditable history of a search result."""

    steps: tuple[ChainStep, ...]
    ascending_only: bool = True

    found = True

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            if a.after != b.before:
                raise LiaisonkitError(
                    f"chain records do not match: {a.after} vs {b.before}"
                )
        if self.ascending_only:
            for s in self.steps:
                if s.kind == BILIAISON and (s.h is None or s.h < 0):
                    raise LiaisonkitError("descending step in an ascending chain")
                if s.kind == G_LINK:
                    raise LiaisonkitError("odd link in an ascending chain")

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
        surface,
        curve.witness.cls + h * surface.H,
        rao=curve.rao.shifted(h),
        provenance=f"{curve.provenance}+{h}H" if curve.provenance else f"+{h}H",
    )


def biliaison_genus_formula(curve: CurveRecord, h: int) -> int:
    """Genus predicted by the update formula (checked against adjunction
    in the property suite)."""
    surface = curve.witness_surface()
    hk = intersect(surface.H, surface.K)
    return curve.genus + h * curve.degree + h * (h * surface.degree + hk) // 2


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
    return CurveRecord.on_surface(
        surface,
        residual,
        rao=curve.rao.linked(m),
        provenance=f"g_link(m={m}; D={ag})[{curve.provenance}]",
    )


def ci_link_p3(curve: CurveRecord, f1: int, f2: int) -> CurveRecord:
    """Link a space curve through a complete intersection of surfaces of
    degrees f1, f2 in P3: d' = f1*f2 - d and
    g' = g + (f1 + f2 - 4)(d' - d)/2."""
    if f1 < 1 or f2 < 1:
        raise LinkageError("complete intersection degrees must be positive")
    if curve.witness is not None and curve.witness_surface().ambient == "P4":
        raise LinkageError("ci_link_p3 needs a space curve, witness lives in P4")
    d2 = f1 * f2 - curve.degree
    if d2 < 0:
        raise LinkageError(
            f"complete intersection of degree {f1 * f2} cannot contain a "
            f"degree-{curve.degree} curve"
        )
    if d2 == 0:
        raise LinkageError("curve fills the complete intersection; empty residual")
    g2 = curve.genus + (f1 + f2 - 4) * (d2 - curve.degree) // 2
    return CurveRecord.abstract(
        d2,
        g2,
        rao=curve.rao.linked(f1 + f2 - 4),
        provenance=f"ci_link({f1},{f2})[{curve.provenance}]",
    )


def family_dimension(surface: SurfaceModel, cls: DivisorClass) -> int:
    """Dimension of the family swept by |C| as the surface moves:
    the catalog's surface family dimension plus the Riemann-Roch estimate
    for dim |C|.  The catalog defines the former for P4 surfaces only."""
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


def _default_surfaces(catalog_path: str | None = None) -> list[str]:
    catalog = load_catalog(catalog_path)
    return sorted(
        sid
        for sid, s in catalog.items()
        if s.ambient == "P4" and s.basis == "blownup_plane"
    )


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
    """
    deg, c2, ck, p_min, k_max = inv
    kind, x = move
    if kind == BILIAISON:
        if p_min is not None:
            p_min, k_max = p_min + x, k_max + x
        return deg + x * rows.hh, c2 + x * (2 * deg + x * rows.hh), ck + x * rows.hk, p_min, k_max
    if p_min is not None:
        p_min, k_max = x - k_max, x - p_min
    d2 = x * (x * rows.hh - 2 * rows.hk) + rows.kk
    return (
        x * rows.hh - rows.hk - deg,
        d2 - 2 * (x * deg - ck) + c2,
        x * rows.hk - rows.kk - ck,
        p_min,
        k_max,
    )


def screened_moves(
    surface: SurfaceModel,
    rows: ScreenRows,
    c,
    inv,
    ascending_only: bool,
    degree_cap: int,
):
    """The ``(move, (surface_id, coeffs))`` pairs of the search from the
    class with coefficients ``c`` and invariants ``inv`` (see
    :meth:`~liaisonkit.surfaces.ScreenRows.invariants`) on ``surface``.

    Biliaisons C + hH come first (heights 1.. up to the degree cap when
    ``ascending_only``, otherwise -3..3 without 0), then Gorenstein links
    mH - K - C for m in 1..4 (not when ``ascending_only``).  A candidate
    is kept when its degree lies in [1, degree_cap], its coefficients in
    the box, and it passes :func:`is_effective_candidate`.

    Only the box needs the candidate's coefficients; the rest reads
    ``inv = (deg, C^2, C.K, p_min, k_max)`` with p_min = min_L L.C and
    k_max = max_L (L.K + L.C) over the lines L of ``rows``.  Every line
    has L.H = 1, so

        L.(C + hH) = L.C + h,      L.(mH - K - C) = m - L.K - L.C,

    the degrees are deg + h H^2 and m H^2 - H.K - deg, and the screen is
    p_min + h >= 0 for a biliaison and m >= k_max for a link; its degree
    test is the lower end of the window.  The kept moves are those of the
    class-level screen.
    """
    hh = rows.hh
    deg, _, _, p_min, k_max = inv
    if ascending_only:
        heights = range(1, (degree_cap - deg) // hh + 1)
    else:
        heights = (-3, -2, -1, 1, 2, 3)
    H = surface.H.coeffs
    for h in heights:
        if not 1 <= deg + h * hh <= degree_cap:
            continue
        if p_min is not None and p_min + h < 0:
            continue
        cand = tuple([x + h * y for x, y in zip(c, H)])
        if min(cand) < -_COEFF_BOX or max(cand) > _COEFF_BOX:
            continue
        yield (BILIAISON, h), (surface.id, cand)
    if ascending_only:
        return
    K = surface.K.coeffs
    for m in range(1, 5):
        if not 1 <= m * hh - rows.hk - deg <= degree_cap:
            continue
        if k_max is not None and m < k_max:
            continue
        cand = tuple([m * y - k - x for x, y, k in zip(c, H, K)])
        if min(cand) < -_COEFF_BOX or max(cand) > _COEFF_BOX:
            continue
        yield (G_LINK, m), (surface.id, cand)


def ascending_chain_search(
    target,
    surfaces=None,
    ascending_only: bool = True,
    max_steps: int = 8,
    starts: list[CurveRecord] | None = None,
    catalog_path: str | None = None,
):
    """Breadth-first search for a liaison chain reaching ``target``.

    ``target`` is a (degree, genus) pair, or a (surface_id, DivisorClass)
    pair for an exact class on one of ``surfaces``.  States are
    (surface_id, coefficient tuple) pairs, which sort like the classes
    they stand for; moves are elementary biliaisons (heights >= 1 when
    ``ascending_only``, otherwise nonzero heights in [-3, 3] plus
    Gorenstein links with twists m in [1, 4]; see
    :func:`screened_moves`), and zero-cost re-witness hops through the
    shipped table.  Starts default to every line class on every allowed
    surface.  Surface ids resolve in the catalog at ``catalog_path``
    (the packaged one by default); a table hop is skipped when its class
    has another (d, g) on that catalog's model.

    Levels follow the determinism rule of :mod:`liaisonkit.search`, and
    the lowest sorted state that matches the target ends the search.  So
    the order of ``surfaces`` does not change the chain, nor does the
    order of ``starts`` unless two starts share a class with different
    Rao tags (the first one listed wins).  The chain is replayed on
    divisor classes from its root and certified: every biliaison and
    Gorenstein-link result must pass :func:`is_effective_candidate` and
    the last record must meet the target, or
    :class:`~liaisonkit.errors.LiaisonkitError` is raised.  Failure is a
    value (:class:`~liaisonkit.search.SearchFailure`); a target of
    degree < 1, which no curve has, raises
    :class:`~liaisonkit.errors.LiaisonkitError`.

    Each state of the level being expanded and of the level being built
    carries its invariants (deg, C^2, C.K, min_L L.C, max_L (L.K + L.C)).
    Roots compute them from the dual rows of
    :func:`~liaisonkit.surfaces.screen_rows` (the default line seeds read
    its per-line table) and every other state derives them from its
    parent by :func:`moved_invariants`, so screening a move and matching
    a (d, g) target take a few integer operations, with no dot product.
    """
    if max_steps < 1:
        raise LiaisonkitError("max_steps must be >= 1")
    surface_ids = (
        sorted(surfaces) if surfaces is not None else _default_surfaces(catalog_path)
    )
    if not surface_ids:
        raise LiaisonkitError("empty surface set")
    if starts is not None and not starts:
        raise LiaisonkitError("empty start set")
    models = {sid: get_surface(sid, catalog_path) for sid in surface_ids}
    rows = {sid: screen_rows(s) for sid, s in models.items()}

    if isinstance(target, tuple) and len(target) == 2 and all(
        isinstance(x, int) for x in target
    ):
        target_dg = target
        target_state = None
    else:
        sid, cls = target
        if sid not in models:
            raise LiaisonkitError(
                f"target surface {sid} not in the allowed set {surface_ids}"
            )
        target_dg = (degree(cls, models[sid]), None)
        target_state = (sid, cls.coeffs)
    if target_dg[0] < 1:
        raise LiaisonkitError(
            f"target degree {target_dg[0]} < 1: no curve has degree below 1"
        )

    degree_cap = target_dg[0] if ascending_only else target_dg[0] + 2 * max(
        s.degree for s in models.values()
    )

    # invariants of the states of the level being expanded and the level
    # being built; older levels drop theirs
    inv: dict = {}

    def state_dg(state):
        return _dg(inv[state])

    def first_match(states):
        if target_state is not None:
            return target_state if target_state in states else None
        return next((s for s in states if state_dg(s) == target_dg), None)

    # the table was checked on the packaged models; keep the hops that
    # hold on this search's models
    hops: dict[tuple[int, int], list] = {}
    hop_inv = {}
    for dg, entries in REWITNESS_TABLE.items():
        for sid, coeffs in entries:
            surface = models.get(sid)
            if (
                surface is None
                or surface.basis != BLOWNUP_PLANE
                or len(coeffs) != len(surface.H.coeffs)
            ):
                continue
            hop = rows[sid].invariants(coeffs)
            if _dg(hop) == dg:
                hops.setdefault(dg, []).append(((REWITNESS, None), (sid, coeffs)))
                hop_inv[sid, coeffs] = hop

    # Rao tags matter only at the root; the replay in finish derives the rest.
    seed_tags = {}
    if starts is None:
        for sid, surface in models.items():
            if surface.basis != BLOWNUP_PLANE:
                raise UnsupportedSurfaceError(
                    f"{sid} has no default line seeds (lines are enumerated on "
                    f"blownup_plane lattices only; {sid} is a {surface.basis}), "
                    "so starts must be given"
                )
            for line, line_inv in zip(lines_on(surface).classes, rows[sid].line_invariants):
                seed_tags[(sid, line.coeffs)] = RaoTag.zero()
                inv[sid, line.coeffs] = line_inv
    else:
        for rec in starts:
            if rec.witness is None:
                raise MissingWitnessError("search seeds need witnessed curves")
            surface = rec.witness.surface
            if models.get(surface.id) != surface:
                raise LiaisonkitError(f"seed surface {surface.id} not in the allowed set")
            state = (surface.id, rec.witness.cls.coeffs)
            seed_tags.setdefault(state, rec.rao)
            inv[state] = rows[surface.id].invariants(state[1])

    def finish(state):
        (_, root), *path = path_to(parent, state)
        surface = models[root[0]]
        record = CurveRecord.on_surface(
            surface,
            DivisorClass(surface.basis, root[1]),
            rao=seed_tags[root],
            provenance="start",
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
                surface = models[sid]
                after = CurveRecord.on_surface(
                    surface,
                    DivisorClass(surface.basis, coeffs),
                    rao=record.rao,
                    provenance=f"{record.provenance}~@{sid}",
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
        if target_state is None:
            missed = record.dg != target_dg
        else:
            missed = (record.witness.surface.id, record.witness.cls.coeffs) != target_state
        if missed:
            raise LiaisonkitError(f"replayed chain ends at {record}, not at {target}")
        return Chain(tuple(steps), ascending_only=ascending_only)

    def moves(state):
        sid, c = state
        return screened_moves(models[sid], rows[sid], c, inv[state], ascending_only, degree_cap)

    def rewitness(state):
        # every state of one (d, g) has the same targets, so one pass closes
        return hops.get(state_dg(state), ())

    def close(states):
        # a level: its states and the table hops from them, which are roots
        hopped = expand(states, parent, rewitness)
        inv.update((s, hop_inv[s]) for s in hopped)
        return sorted(states + hopped)

    parent = dict.fromkeys(seed_tags)
    frontier = close(sorted(parent))
    explored = 0
    frontier_sizes = [len(frontier)]
    hit = first_match(frontier)
    while hit is None and len(frontier_sizes) <= max_steps:
        explored += len(frontier)
        new = expand(frontier, parent, moves)
        inv = {
            s: moved_invariants(rows[s[0]], inv[parent[s][0]], parent[s][1]) for s in new
        }
        frontier = close(new)
        frontier_sizes.append(len(frontier))
        if not frontier:
            break
        hit = first_match(frontier)
    if hit is not None:
        return finish(hit)

    return SearchFailure(
        target=target,
        explored=explored,
        frontier_sizes=tuple(frontier_sizes),
        bounds={
            "max_steps": max_steps,
            "coeff_box": _COEFF_BOX,
            "degree_cap": degree_cap,
            "surfaces": tuple(surface_ids),
            "ascending_only": ascending_only,
        },
    )
