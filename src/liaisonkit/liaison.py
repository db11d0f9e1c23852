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

import logging
from dataclasses import dataclass, field

from .errors import LiaisonkitError, LinkageError, MissingWitnessError
from .lattice import (
    DivisorClass,
    arithmetic_genus,
    degree,
    expected_dim_linear_system,
    intersect,
)
from .surfaces import (
    SurfaceModel,
    get_surface,
    is_effective_candidate,
    lines_on,
    load_catalog,
    surface_family_dim,
)
from .curves import CurveRecord, RaoTag

logger = logging.getLogger(__name__)

BILIAISON = "biliaison"
G_LINK = "g_link"
CI_LINK = "ci_link"
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
    ci: tuple[int, int] | None = None

    def describe(self) -> str:
        if self.kind == CI_LINK:
            return f"ci_link {self.ci}"
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
                if s.kind in (G_LINK, CI_LINK):
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
    effectivity; failures of the cheap screen are logged.
    """
    surface = curve.witness_surface()
    new_cls = curve.witness.cls + h * surface.H
    result = CurveRecord.on_surface(
        surface,
        new_cls,
        rao=curve.rao.shifted(h),
        provenance=f"{curve.provenance}+{h}H" if curve.provenance else f"+{h}H",
    )
    if not is_effective_candidate(surface, new_cls):
        logger.warning(
            "biliaison result %s on %s fails the effectivity screen",
            new_cls,
            surface.id,
        )
    return result


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
    surface family dimension plus the Riemann-Roch estimate for dim |C|."""
    return surface_family_dim(surface) + expected_dim_linear_system(cls, surface)


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


def rewitness_targets(dg: tuple[int, int], allowed: set[str]) -> list[tuple[str, DivisorClass]]:
    out = []
    for surface_id, coeffs in REWITNESS_TABLE.get(dg, ()):
        if surface_id in allowed:
            out.append((surface_id, DivisorClass.blownup(coeffs)))
    return out


def validate_rewitness_table() -> None:
    from .lattice import arithmetic_genus

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


validate_rewitness_table()


@dataclass(frozen=True)
class SearchFailure:
    """Exhaustion report: the search ran out of states inside its box."""

    target: object
    explored: int
    frontier_sizes: tuple[int, ...]
    bounds: dict = field(default_factory=dict)
    message: str = "target not reached inside the search bounds"

    @property
    def found(self) -> bool:
        return False


_COEFF_BOX = 60


def _default_surfaces() -> list[str]:
    catalog = load_catalog(None)
    return sorted(
        sid
        for sid, s in catalog.items()
        if s.ambient == "P4" and s.basis == "blownup_plane"
    )


def ascending_chain_search(
    target,
    surfaces=None,
    ascending_only: bool = True,
    max_steps: int = 8,
    starts: list[CurveRecord] | None = None,
    h_max: int = 3,
):
    """Breadth-first search for a liaison chain reaching ``target``.

    ``target`` is a (degree, genus) pair, or a (surface_id, DivisorClass)
    pair for an exact class.  States are (surface, class) pairs; moves are
    elementary biliaisons (heights >= 1 when ``ascending_only``, otherwise
    nonzero heights in [-h_max, h_max] plus Gorenstein links), and
    zero-cost re-witness hops through the shipped table.  Starts default
    to every line class on every allowed surface.

    The search is deterministic: each level walks its frontier in sorted
    state order, each state's moves in a fixed order, and the first move
    that reaches a new state becomes its parent.  The lowest sorted state
    that matches the target ends the search.  So the order of ``surfaces``
    does not change the chain, nor does the order of ``starts`` unless two
    starts share a class with different Rao tags (the first one listed
    wins).  Failure is a value (:class:`SearchFailure`).
    """
    if max_steps < 1:
        raise LiaisonkitError("max_steps must be >= 1")
    surface_ids = sorted(surfaces) if surfaces is not None else _default_surfaces()
    if not surface_ids:
        raise LiaisonkitError("empty surface set")
    allowed = set(surface_ids)
    models = {sid: get_surface(sid) for sid in surface_ids}

    if isinstance(target, tuple) and len(target) == 2 and all(
        isinstance(x, int) for x in target
    ):
        target_dg = target
        target_state = None
    else:
        sid, cls = target
        target_dg = (degree(cls, get_surface(sid)), None)
        target_state = (sid, cls.coeffs)

    degree_cap = target_dg[0] if ascending_only else target_dg[0] + 2 * max(
        s.degree for s in models.values()
    )

    def state_dg(state):
        sid, coeffs = state
        s = models[sid]
        c = DivisorClass.blownup(coeffs)
        return degree(c, s), arithmetic_genus(c, s)

    def matches(state):
        if target_state is not None:
            return state == target_state
        return state_dg(state) == target_dg

    # seed states with their Rao tags (tags ride along for reconstruction)
    if starts is None:
        seeds = [
            (sid, line.coeffs, RaoTag.zero())
            for sid, surface in models.items()
            for line in lines_on(surface).classes
        ]
    else:
        seeds = []
        for rec in starts:
            if rec.witness is None:
                raise MissingWitnessError("search seeds need witnessed curves")
            surface = rec.witness.surface
            if models.get(surface.id) != surface:
                raise LiaisonkitError(f"seed surface {surface.id} not in the allowed set")
            seeds.append((surface.id, rec.witness.cls.coeffs, rec.rao))

    tags = {}
    parents: dict[tuple[str, tuple[int, ...]], tuple] = {}
    depth_of: dict[tuple[str, tuple[int, ...]], int] = {}

    def add_state(state, tag, parent, move, depth, new_bucket):
        if state in depth_of:
            return
        depth_of[state] = depth
        tags[state] = tag
        parents[state] = (parent, move)
        new_bucket.append(state)

    def closure(bucket, depth):
        """Apply zero-cost re-witness hops until stable, canonically."""
        queue = sorted(bucket)
        added = []
        while queue:
            state = queue.pop(0)
            dg = state_dg(state)
            for sid, cls in rewitness_targets(dg, allowed):
                nxt = (sid, cls.coeffs)
                if nxt == state or nxt in depth_of:
                    continue
                depth_of[nxt] = depth
                tags[nxt] = tags[state]
                parents[nxt] = (state, (REWITNESS, None))
                queue.append(nxt)
                added.append(nxt)
        return added

    frontier: list = []
    for sid, coeffs, tag in sorted(seeds, key=lambda t: (t[0], t[1])):
        add_state((sid, coeffs), tag, None, None, 0, frontier)
    frontier += closure(frontier, 0)
    frontier.sort()

    explored = 0
    frontier_sizes = [len(frontier)]

    def finish(state):
        # rebuild the chain by replaying the recorded moves
        moves = []
        cur = state
        while parents[cur][0] is not None:
            prev, move = parents[cur]
            moves.append((move, cur))
            cur = prev
        moves.reverse()
        sid0, coeffs0 = cur
        record = CurveRecord.on_surface(
            models[sid0], DivisorClass.blownup(coeffs0), rao=tags[cur], provenance="start"
        )
        steps = []
        for (kind, payload), (sid, coeffs) in moves:
            if kind == BILIAISON:
                after = elementary_biliaison(record, payload)
                step = ChainStep(BILIAISON, before=record, after=after, h=payload)
            elif kind == G_LINK:
                after = g_link_on_surface(record, payload)
                step = ChainStep(G_LINK, before=record, after=after, m=payload)
            else:  # rewitness
                after = CurveRecord.on_surface(
                    models[sid],
                    DivisorClass.blownup(coeffs),
                    rao=record.rao,
                    provenance=f"{record.provenance}~@{sid}",
                )
                if after.dg != record.dg:
                    raise LiaisonkitError("rewitness changed (d,g)")
                step = ChainStep(REWITNESS, before=record, after=after)
            steps.append(step)
            record = after
        return Chain(tuple(steps), ascending_only=ascending_only)

    def moves_from(state):
        sid, coeffs = state
        surface = models[sid]
        cls = DivisorClass.blownup(coeffs)
        d = degree(cls, surface)
        if ascending_only:
            h_range = range(1, (degree_cap - d) // surface.degree + 1)
        else:
            h_range = [h for h in range(-h_max, h_max + 1) if h != 0]
        for h in h_range:
            cand = cls + h * surface.H
            if degree(cand, surface) > degree_cap or degree(cand, surface) < 1:
                continue
            if any(abs(c) > _COEFF_BOX for c in cand.coeffs):
                logger.info("pruned %s on %s: coefficient box", cand, sid)
                continue
            if not is_effective_candidate(surface, cand):
                logger.info("pruned %s on %s: effectivity screen", cand, sid)
                continue
            yield (BILIAISON, h), (sid, cand.coeffs), tags[state].shifted(h)
        if not ascending_only:
            hk = intersect(surface.H, surface.K)
            for m in range(1, h_max + 2):
                res_deg = m * surface.degree - hk - d
                if res_deg < 1 or res_deg > degree_cap:
                    continue
                cand = m * surface.H - surface.K - cls
                if any(abs(c) > _COEFF_BOX for c in cand.coeffs):
                    continue
                if not is_effective_candidate(surface, cand):
                    continue
                yield (G_LINK, m), (sid, cand.coeffs), tags[state].linked(m)

    hit = next((s for s in frontier if matches(s)), None)
    if hit is not None:
        return finish(hit)

    for depth in range(1, max_steps + 1):
        new_states: list = []
        for state in frontier:
            explored += 1
            for move, nxt, tag in moves_from(state):
                add_state(nxt, tag, state, move, depth, new_states)
        new_states += closure(new_states, depth)
        frontier = sorted(new_states)
        frontier_sizes.append(len(frontier))
        if not frontier:
            break
        hit = next((s for s in frontier if matches(s)), None)
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
