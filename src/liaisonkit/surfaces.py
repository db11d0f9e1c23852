"""Surface catalog: named rational surfaces with exact enumeration of
line and conic classes.

The catalog ships as a JSON data file (see ``data/surfaces.json`` for the
schema) so new surfaces can be added without touching code.  The loader
recomputes every stored invariant (degree, sectional genus, canonical
class convention) and fails loudly on the first violation.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from operator import add, itemgetter, mul
from pathlib import Path

from .errors import (
    CatalogError,
    UnknownSurfaceError,
    UnsupportedSurfaceError,
)
from .lattice import (
    BLOWNUP_PLANE,
    QUADRIC,
    DivisorClass,
    arithmetic_genus,
    degree,
    intersect,
    self_intersection,
)

FINITE = "finite"
ONE_PARAMETER = "one_parameter"


@dataclass(frozen=True)
class SurfaceModel:
    """A named lattice with hyperplane and canonical class.

    ``degree == H.H`` and ``sectional_genus == (H.H + H.K)/2 + 1`` are
    revalidated at load time.  ``family_dim`` is the dimension of the
    family of such surfaces in their ambient space; ``None`` where the
    catalog does not define one (the P3/P2 entries).
    """

    id: str
    ambient: str
    basis: str
    blown_points: int | None
    H: DivisorClass
    K: DivisorClass
    degree: int
    sectional_genus: int
    family_dim: int | None
    special_position_notes: tuple[str, ...]

    @property
    def zero(self) -> DivisorClass:
        return DivisorClass(self.basis, (0,) * len(self.H.coeffs))


@dataclass(frozen=True)
class LineClassSet:
    """All line classes on a surface with their family flags.

    A flag is ``finite`` for rigid lines (L^2 = -1) and ``one_parameter``
    for ruling families (L^2 = 0).
    """

    classes: tuple[DivisorClass, ...]
    family_flags: tuple[str, ...]

    def pairs(self):
        return tuple(zip(self.classes, self.family_flags))

    def __len__(self) -> int:
        return len(self.classes)


def _canonical_for(basis: str, rank: int) -> DivisorClass:
    if basis == QUADRIC:
        return DivisorClass.quadric((-2, -2))
    return DivisorClass.blownup((-3,) + (-1,) * (rank - 1))


def _parse_record(rec: dict) -> SurfaceModel:
    basis = rec["basis"]
    H = DivisorClass(basis, tuple(rec["H"]))
    K = DivisorClass(basis, tuple(rec["K"]))
    expected_K = _canonical_for(basis, len(H.coeffs))
    if K != expected_K:
        raise CatalogError(f"{rec['id']}: canonical class {K} != {expected_K}")
    if basis == BLOWNUP_PLANE:
        n = rec["blown_points"]
        if n != len(H.coeffs) - 1:
            raise CatalogError(
                f"{rec['id']}: blown_points {n} inconsistent with H length"
            )
    else:
        n = None
    model = SurfaceModel(
        id=rec["id"],
        ambient=rec["ambient"],
        basis=basis,
        blown_points=n,
        H=H,
        K=K,
        degree=rec["degree"],
        sectional_genus=rec["sectional_genus"],
        family_dim=rec.get("family_dim"),
        special_position_notes=tuple(rec.get("special_position_notes", ())),
    )
    deg = self_intersection(H)
    if deg != model.degree:
        raise CatalogError(f"{rec['id']}: stored degree {model.degree}, H.H = {deg}")
    sg = arithmetic_genus(H, model)
    if sg != model.sectional_genus:
        raise CatalogError(
            f"{rec['id']}: stored sectional genus {model.sectional_genus}, "
            f"recomputed {sg}"
        )
    if model.family_dim is None and model.ambient == "P4":
        raise CatalogError(f"{rec['id']}: P4 surfaces need a family dimension")
    return model


def _default_catalog_text() -> str:
    return resources.files("liaisonkit.data").joinpath("surfaces.json").read_text()


@lru_cache(maxsize=None)
def load_catalog(path: str | None = None) -> dict[str, SurfaceModel]:
    """Load and validate the surface catalog.

    ``path`` overrides the packaged data file.  The result is cached and
    immutable; concurrent reads are unrestricted.
    """
    if path is None:
        raw = json.loads(_default_catalog_text())
    else:
        raw = json.loads(Path(path).read_text())
    catalog: dict[str, SurfaceModel] = {}
    for rec in raw["surfaces"]:
        model = _parse_record(rec)
        if model.id in catalog:
            raise CatalogError(f"duplicate surface id {model.id!r}")
        catalog[model.id] = model
    return catalog


def get_surface(surface_id: str, catalog_path: str | None = None) -> SurfaceModel:
    catalog = load_catalog(catalog_path)
    if surface_id not in catalog:
        raise UnknownSurfaceError(surface_id, tuple(sorted(catalog)))
    return catalog[surface_id]


def surface_ids(catalog_path: str | None = None) -> tuple[str, ...]:
    return tuple(sorted(load_catalog(catalog_path)))


# ---------------------------------------------------------------------------
# Bounded integer enumeration of classes with prescribed invariants.
#
# For a class L = (a; b_1..b_n) with L.H = d and L^2 >= c (c <= 0) on a
# lattice with H = (h_0; h_1..h_n), |h|^2 = sum(h_i^2) and
# H^2 = h_0^2 - |h|^2 > 0:
#
#   a*h_0 - d = sum(b_i h_i), and (sum(b_i h_i))^2 <= |b|^2 |h|^2
#   (Cauchy-Schwarz) with |b|^2 = a^2 - L^2 <= a^2 - c,
#
# so (a*h_0 - d)^2 <= |h|^2 (a^2 - c).  This quadratic in a has leading
# coefficient H^2 > 0 and discriminant 4 |h|^2 (d^2 - H^2 c), so a lies
# between its two roots; math.isqrt gives them exactly.  The b_i are then
# bounded by the square budget a^2 - c.
#
# Orbit representatives.  Permuting blown-up points of equal H-weight
# (equal entries h_i, wherever they sit in H) fixes H and
# K = (-3; -1..-1).  Such a permutation therefore preserves L.H, L.K,
# L^2 and the genus, maps the set lines_on(surface) onto itself (so the
# effectivity screen gives the same answer) and maps H - L to the
# permuted H - L.  The depth-first search keeps one tuple per orbit: the
# one whose b_i do not increase along each set of equal-weight positions.
# This is the stabilizer of H in the Weyl group (Dolgachev, Classical
# Algebraic Geometry, ch. 8; Manin, Cubic Forms).  Callers that test only
# invariants iterate class_representatives; enumerate_classes expands
# every orbit into its distinct permutations.
#
# Block-order lower bound.  Suppose positions i..n-1 all carry one
# weight w (always so for i = n - 1).  They lie in one set of
# equal-weight positions, so in a representative b_i is the largest of
# b_i..b_{n-1} and their sum is at most (n - i) b_i.  With w > 0 the
# remaining weighted sum rem_w = w * (b_i + .. + b_{n-1}) gives
# b_i >= ceil(rem_w / (w (n - i))); when sum(b) is pinned, the remaining
# sum rem_p gives b_i >= ceil(rem_p / (n - i)) for any w.  Both bounds
# are exact: a smaller b_i has no completion, so no tuple is dropped.
# ---------------------------------------------------------------------------


def _a_range(surface: SurfaceModel, d: int, min_self: int) -> range:
    """Every a admitting a class of degree ``d`` with L^2 >= ``min_self``
    (<= 0): the integer interval between the roots of the quadratic
    above, widened by one on each side."""
    h0 = surface.H.coeffs[0]
    hsq = sum(x * x for x in surface.H.coeffs[1:])
    root = math.isqrt(hsq * (d * d - surface.degree * min_self))
    lo = -((root - h0 * d) // surface.degree)  # ceil((h0 d - root) / H^2)
    hi = (h0 * d + root) // surface.degree
    return range(lo - 1, hi + 2)


def _weight_blocks(weights) -> list[tuple[int, ...]]:
    """Positions of ``weights`` grouped by equal value, in order of first
    appearance; only groups of two or more positions."""
    groups: dict[int, list[int]] = {}
    for i, w in enumerate(weights):
        groups.setdefault(w, []).append(i)
    return [tuple(g) for g in groups.values() if len(g) > 1]


def _b_solver(weights):
    """The representative search for one weights tuple.

    Returns ``solutions(wsum, psum, sq_lo, sq_hi)``: the orbit
    representatives of the integer tuples b with sum(b_i w_i) = wsum,
    optional sum(b_i) = psum (``None`` leaves it free), and
    sq_lo <= sum(b_i^2) <= sq_hi, in lexicographic order; these are the
    tuples that do not increase along each set of equal-weight positions.
    Depth-first with exact Cauchy-Schwarz pruning on both running
    constraints and the block-order lower bound above.  The tables below
    depend on the weights alone and are built once.

    >>> _b_solver((1, 1))(2, None, 0, 4)
    [(1, 1), (2, 0)]
    """
    n = len(weights)
    suffix_wsq = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_wsq[i] = suffix_wsq[i + 1] + weights[i] * weights[i]
    prev_same = [None] * n
    for block in _weight_blocks(weights):
        for j, i in zip(block, block[1:]):
            prev_same[i] = j
    # run[i] = n - i when positions i..n-1 share one weight, else 0
    run = [0] * n
    for i in range(n - 1, -1, -1):
        if i == n - 1 or (weights[i] == weights[i + 1] and run[i + 1]):
            run[i] = n - i
    run_w = [k * w if w > 0 else 0 for k, w in zip(run, weights)]

    def solutions(wsum, psum, sq_lo, sq_hi):
        if sq_hi < 0:
            return []
        out = []

        def rec(i, rem_w, rem_p, budget, acc):
            if i == n:
                if rem_w == 0 and (psum is None or rem_p == 0):
                    used = sq_hi - budget
                    if used >= sq_lo:
                        out.append(tuple(acc))
                return
            if rem_w * rem_w > budget * suffix_wsq[i]:
                return
            if psum is not None and rem_p * rem_p > budget * (n - i):
                return
            top = math.isqrt(budget)
            hi = top if prev_same[i] is None else min(top, acc[prev_same[i]])
            lo = -top
            if run_w[i]:
                lo = max(lo, -(-rem_w // run_w[i]))
            if run[i] and psum is not None:
                lo = max(lo, -(-rem_p // run[i]))
            for b in range(lo, hi + 1):
                acc.append(b)
                rec(i + 1, rem_w - b * weights[i], rem_p - b, budget - b * b, acc)
                acc.pop()

        rec(0, wsum, 0 if psum is None else psum, sq_hi, [])
        return out

    return solutions


def _multiset_permutations(values):
    """Each distinct ordering of the multiset ``values`` once, in
    lexicographic order (Narayana's next-permutation step).

    >>> list(_multiset_permutations((1, 0, 1)))
    [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    """
    p = sorted(values)
    n = len(p)
    while True:
        yield tuple(p)
        i = n - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1 :] = reversed(p[i + 1 :])


def _orbit_tuples(reps, rank, blocks):
    """Every distinct tuple in the orbits of the coefficient tuples
    ``reps``, sorted: the entries permuted within each block of
    positions (``blocks`` is nonempty and holds no position 0, so
    ``rank >= 3``).

    An orbit depends only on which entries of each block are equal.  So
    the representatives are grouped by a key that maps every block
    position to the first position of its block holding the same value.
    Each distinct arrangement of a key's source positions becomes one
    ``itemgetter`` over the coefficients, built once for the whole group;
    an output tuple is one getter call, and with ``rank >= 3`` a getter
    always returns a tuple.

    >>> _orbit_tuples([(5, 2, 7, 0), (1, 3, 0, 3)], 4, [(1, 3)])
    [(1, 3, 0, 3), (5, 0, 7, 2), (5, 2, 7, 0)]
    """
    moved = [p for block in blocks for p in block]
    fixed = tuple(p for p in range(rank) if p not in moved)
    # puts the entries of fixed + moved at the positions they stand for
    place = itemgetter(*sorted(range(rank), key=[*fixed, *moved].__getitem__))
    groups = {}
    for coeffs in reps:
        key = []
        for block in blocks:
            values = [coeffs[p] for p in block]
            key.append(tuple(block[values.index(v)] for v in values))
        groups.setdefault(tuple(key), []).append(coeffs)
    out = []
    for key, group in groups.items():
        getters = [
            itemgetter(*place(fixed + sum(sources, ())))
            for sources in itertools.product(*map(_multiset_permutations, key))
        ]
        for coeffs in group:
            out += [get(coeffs) for get in getters]
    out.sort()
    return out


def class_representatives(
    surface: SurfaceModel,
    deg: int,
    genus: int | None = None,
    self_ints=None,
    min_self: int | None = None,
) -> list[DivisorClass]:
    """One class per orbit of the classes :func:`enumerate_classes`
    returns, under permutations of blown-up points of equal H-weight.

    Each representative has non-increasing coefficients along every set
    of equal-weight points; degree, genus, C^2, the effectivity screen
    and H - C tests give the same answer on the whole orbit.  On the
    quadric every class is its own representative.  Output order is
    canonical (sorted coefficient tuples).

    >>> dp = get_surface("del_pezzo_4")
    >>> [str(c) for c in class_representatives(dp, 1, genus=0, self_ints=(-1,))]
    ['(0;0,0,0,0,-1)', '(1;1,1,0,0,0)', '(2;1,1,1,1,1)']
    """
    if surface.basis == QUADRIC:
        # (a, deg - a) has C^2 = 2a(deg - a) >= floor exactly when
        # (2a - deg)^2 <= deg^2 - 2 floor; isqrt gives the a range, and
        # increasing a is increasing coefficient order
        if self_ints is not None:
            wanted = set(self_ints)
            floor = min(wanted, default=0)
        else:
            wanted = None
            floor = min_self if min_self is not None else 0
        disc = deg * deg - 2 * floor
        if disc < 0:
            return []
        root = math.isqrt(disc)
        found = []
        for a in range(-((root - deg) // 2), (deg + root) // 2 + 1):
            c = DivisorClass.quadric((a, deg - a))
            if genus is not None and arithmetic_genus(c, surface) != genus:
                continue
            if wanted is not None and self_intersection(c) not in wanted:
                continue
            found.append(c)
        return found

    hodge_cap = (deg * deg) // surface.degree
    if self_ints is None:
        lo = min_self if min_self is not None else 0
        q_list = list(range(lo, hodge_cap + 1))
    else:
        q_list = [q for q in sorted(set(self_ints)) if q <= hodge_cap]
    if not q_list:
        return []
    qset = set(q_list)
    h = surface.H.coeffs
    b_solutions = _b_solver(h[1:])
    found = []
    for a in _a_range(surface, deg, min(q_list[0], 0)):
        wsum = a * h[0] - deg
        if genus is not None:
            for q in q_list:
                sq = a * a - q
                if sq < 0:
                    continue
                # L.K = 2g - 2 - q with K = (-3; -1..-1) pins sum(b_i).
                psum = 3 * a + (2 * genus - 2 - q)
                found += [(a,) + b for b in b_solutions(wsum, psum, sq, sq)]
        else:
            # one sweep over the whole square-budget window
            sq_lo = max(a * a - q_list[-1], 0)
            sq_hi = a * a - q_list[0]
            for b in b_solutions(wsum, None, sq_lo, sq_hi):
                if a * a - sum(x * x for x in b) in qset:
                    found.append((a,) + b)
    classes = [DivisorClass.blownup(c) for c in sorted(found)]
    if genus is not None:
        classes = [c for c in classes if arithmetic_genus(c, surface) == genus]
    return classes


def enumerate_classes(
    surface: SurfaceModel,
    deg: int,
    genus: int | None = None,
    self_ints=None,
    min_self: int | None = None,
) -> list[DivisorClass]:
    """All classes on ``surface`` with degree ``deg``, optionally pinned
    arithmetic genus and/or self-intersection values.

    ``self_ints`` is an iterable of admitted values of C^2; when omitted,
    C^2 ranges over [min_self .. Hodge bound d^2 // H^2].  Every orbit of
    :func:`class_representatives` is expanded.  Output order is canonical
    (sorted coefficient tuples).
    """
    reps = class_representatives(surface, deg, genus, self_ints, min_self)
    blocks = [tuple(i + 1 for i in b) for b in _weight_blocks(surface.H.coeffs[1:])]
    if not blocks:
        # no two points share a weight (the quadric too): orbits are single classes
        return reps
    expanded = _orbit_tuples([c.coeffs for c in reps], len(surface.H.coeffs), blocks)
    return [DivisorClass(BLOWNUP_PLANE, c) for c in expanded]


@lru_cache(maxsize=None)
def lines_on(surface: SurfaceModel) -> LineClassSet:
    """Exhaustive set of line classes: L.H = 1, genus 0, L^2 in {-1, 0}.

    Only blown-up-plane lattices carry the enumeration; the search bound
    is the signature inequality documented above.

    >>> scroll = get_surface("cubic_scroll")
    >>> [str(c) for c in lines_on(scroll).classes]
    ['(0;-1)', '(1;1)']
    """
    if surface.basis != BLOWNUP_PLANE:
        raise UnsupportedSurfaceError(
            f"line enumeration needs a blownup_plane lattice, got {surface.basis}"
        )
    classes = enumerate_classes(surface, 1, genus=0, self_ints=(-1, 0))
    flags = tuple(
        FINITE if self_intersection(c) == -1 else ONE_PARAMETER for c in classes
    )
    return LineClassSet(tuple(classes), flags)


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


@dataclass(frozen=True)
class ScreenRows:
    """Dual rows of the intersection form on one surface, for arithmetic
    on raw coefficient tuples: ``x . y == sum(x_i * row_i)`` where
    ``row`` is the dual row of ``y``.

    ``H``, ``K`` and ``lines`` are the dual rows of the hyperplane class,
    the canonical class and each class of :func:`lines_on` (none on the
    quadric); ``form`` lists the nonzero entries ``(i, j, u_i . u_j)`` of
    the dual rows of the unit classes u, so
    ``x . x == sum(v * x[i] * x[j] for i, j, v in form)``.  ``hh`` is
    H^2, ``hk`` is H.K, ``kk`` is K^2, ``line_k`` holds each L.K and
    ``line_invariants`` the :meth:`invariants` of each line class.
    """

    H: tuple[int, ...]
    K: tuple[int, ...]
    lines: tuple[tuple[int, ...], ...]
    form: tuple[tuple[int, int, int], ...]
    hh: int
    hk: int
    kk: int
    line_k: tuple[int, ...]
    line_invariants: tuple[tuple, ...] = ()

    def invariants(self, c) -> tuple:
        """``(C.H, C^2, C.K, p_min, k_max)`` of the class with coefficients
        ``c``, where p_min = min_L L.C and k_max = max_L (L.K + L.C) over
        the lines L; both are None when there are no lines (the quadric, P2).

        >>> screen_rows(get_surface("cubic_scroll")).invariants((2, 1))
        (3, 3, -5, 1, 0)
        """
        prods = [_dot(c, row) for row in self.lines]
        return (
            _dot(c, self.H),
            sum(v * c[i] * c[j] for i, j, v in self.form),
            _dot(c, self.K),
            min(prods) if prods else None,
            max(map(add, self.line_k, prods)) if prods else None,
        )


@lru_cache(maxsize=None)
def screen_rows(surface: SurfaceModel) -> ScreenRows:
    """The :class:`ScreenRows` of ``surface``; every entry is an
    ``intersect`` value or computed from them, so the form keeps its
    single definition.

    >>> rows = screen_rows(get_surface("cubic_scroll"))
    >>> rows.H, rows.lines, rows.line_k
    ((2, -1), ((0, 1), (1, -1)), (-1, -2))
    >>> rows.line_invariants
    ((1, -1, -1, -1, -1), (1, 0, -2, 0, 0))
    """
    rank = len(surface.H.coeffs)
    units = [
        DivisorClass(surface.basis, tuple(int(i == j) for j in range(rank)))
        for i in range(rank)
    ]

    def row(y: DivisorClass) -> tuple[int, ...]:
        return tuple(intersect(u, y) for u in units)

    lines = lines_on(surface).classes if surface.basis == BLOWNUP_PLANE else ()
    rows = ScreenRows(
        H=row(surface.H),
        K=row(surface.K),
        lines=tuple(row(line) for line in lines),
        form=tuple(
            (i, j, v) for i, u in enumerate(units) for j, v in enumerate(row(u)) if v
        ),
        hh=intersect(surface.H, surface.H),
        hk=intersect(surface.H, surface.K),
        kk=intersect(surface.K, surface.K),
        line_k=tuple(intersect(line, surface.K) for line in lines),
    )
    return replace(rows, line_invariants=tuple(rows.invariants(line.coeffs) for line in lines))


@lru_cache(maxsize=None)
def conic_classes(surface: SurfaceModel) -> tuple[DivisorClass, ...]:
    """Plane-spanning conic candidates: C.H = 2, genus 0, C^2 >= 0."""
    found = enumerate_classes(surface, 2, genus=0, min_self=0)
    return tuple(found)


def is_effective_candidate(surface: SurfaceModel, c: DivisorClass) -> bool:
    """Cheap necessary screen for effectivity of a moving class: positive
    degree and nonnegative intersection with every enumerated line class.

    Classes with a fixed negative component (the lines themselves) fail;
    the screen targets the intermediate classes of chain searches.
    """
    if degree(c, surface) < 1:
        return False
    if surface.basis != BLOWNUP_PLANE:
        return True
    return all(intersect(c, line) >= 0 for line in lines_on(surface).classes)
