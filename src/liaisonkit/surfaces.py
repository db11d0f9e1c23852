"""Surface catalog: named rational surfaces with exact enumeration of
line and conic classes.

The catalog ships as a JSON data file (see ``data/surfaces.json`` for the
schema) so new surfaces can be added without touching code.  A record
stores only what defines its surface: id, ambient space, lattice basis
and hyperplane class H.  The loader derives K, the number of blown-up
points, the degree, the sectional genus and the family dimension, and
refuses a record that stores one of them with another value.
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache
from operator import add, itemgetter, mul

from .errors import (
    CatalogError,
    InvalidClassError,
    Record,
    UnknownSurfaceError,
    UnsupportedSurfaceError,
    _require_int,
    _set,
)
from .lattice import (
    BLOWNUP_PLANE,
    QUADRIC,
    DivisorClass,
    _prechecked_classes,
    arithmetic_genus,
    degree,
    intersect,
    self_intersection,
)

FINITE = "finite"
ONE_PARAMETER = "one_parameter"


class SurfaceModel(Record):
    """A named lattice with hyperplane and canonical class.

    ``blown_points``, ``K``, ``degree``, ``sectional_genus`` and
    ``family_dim`` are derived from ``basis`` and ``H`` at load time (see
    :func:`_derived_fields`).  ``family_dim`` is chi(N_X) for a surface
    in P4, ``None`` elsewhere.  It equals the dimension of the Hilbert
    scheme at X only when h^1(N_X) = 0.  With r blown-up points and
    chi(O_X(H)) = 5 it is 2r + 16: 18, 26, 32 and 36 on the catalog's
    four P4 surfaces.
    """

    __slots__ = (
        "id", "ambient", "basis", "blown_points", "H", "K", "degree",
        "sectional_genus", "family_dim", "special_position_notes",
    )

    def __init__(
        self,
        id: str,
        ambient: str,
        basis: str,
        blown_points: int | None,
        H: DivisorClass,
        K: DivisorClass,
        degree: int,
        sectional_genus: int,
        family_dim: int | None,
        special_position_notes: tuple[str, ...],
    ):
        _set(self, "id", id)
        _set(self, "ambient", ambient)
        _set(self, "basis", basis)
        _set(self, "blown_points", blown_points)
        _set(self, "H", H)
        _set(self, "K", K)
        _set(self, "degree", degree)
        _set(self, "sectional_genus", sectional_genus)
        _set(self, "family_dim", family_dim)
        _set(self, "special_position_notes", special_position_notes)


class LineClassSet(Record):
    """All line classes on a surface with their family flags.

    A flag is ``finite`` for rigid lines (L^2 = -1) and ``one_parameter``
    for ruling families (L^2 = 0).
    """

    __slots__ = ("classes", "family_flags")

    def __init__(self, classes: tuple[DivisorClass, ...], family_flags: tuple[str, ...]):
        _set(self, "classes", classes)
        _set(self, "family_flags", family_flags)

    def pairs(self):
        return tuple(zip(self.classes, self.family_flags))

    def __len__(self) -> int:
        return len(self.classes)


def _canonical_for(basis: str, rank: int) -> DivisorClass:
    if basis == QUADRIC:
        return DivisorClass.quadric((-2, -2))
    return DivisorClass.blownup((-3,) + (-1,) * (rank - 1))


def _derived_fields(basis: str, ambient: str, H: DivisorClass) -> dict:
    """The five invariants a catalog record need not store, derived from
    its basis and hyperplane class H (Hartshorne, Algebraic Geometry, V.1
    and II.8).

    * ``K`` is (-3; -1..-1) on a blown-up plane and (-2,-2) on the quadric,
      and ``blown_points`` is rank - 1 resp. ``None``.
    * ``degree`` is H^2 and ``sectional_genus`` is (H^2 + H.K)/2 + 1.
    * ``family_dim`` is chi(N_X) on P4 and ``None`` elsewhere.  The Euler
      and normal sequences give chi(N_X) = 5 chi(O_X(H)) - chi(O_X)
      - chi(T_X); on a rational surface Riemann-Roch gives
      chi(O_X(H)) = 1 + (H^2 - H.K)/2, and Hirzebruch-Riemann-Roch with
      Noether's formula gives chi(T_X) = 2 K^2 - 10.
    """
    rank = len(H.coeffs)
    K = _canonical_for(basis, rank)
    hh, hk = self_intersection(H), intersect(H, K)
    family_dim = None
    if ambient == "P4":
        family_dim = 5 * (1 + (hh - hk) // 2) - 1 - (2 * self_intersection(K) - 10)
    return {
        "blown_points": rank - 1 if basis == BLOWNUP_PLANE else None,
        "K": K,
        "degree": hh,
        "sectional_genus": (hh + hk) // 2 + 1,
        "family_dim": family_dim,
    }


# field: (test, what the test wants)
_REQUIRED_FIELDS = {
    "id": (lambda v: isinstance(v, str), "a string"),
    "ambient": (lambda v: isinstance(v, str), "a string"),
    "basis": (lambda v: v in (BLOWNUP_PLANE, QUADRIC), f"{BLOWNUP_PLANE!r} or {QUADRIC!r}"),
    "H": (lambda v: isinstance(v, list) and all(type(x) is int for x in v),
          "a list of integers"),
}
_OPTIONAL_FIELDS = {
    "special_position_notes": (
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        "a list of strings",
    ),
}


def _check_fields(rec, where: str) -> None:
    """Raise :class:`CatalogError` naming ``where`` unless ``rec`` is an
    object with every required field, each field of its type."""
    if not isinstance(rec, dict):
        raise CatalogError(f"{where}: a surface record must be an object, got {rec!r}")
    for name in _REQUIRED_FIELDS:
        if name not in rec:
            raise CatalogError(f"{where}: missing field {name!r}")
    for name, (ok, wanted) in (_REQUIRED_FIELDS | _OPTIONAL_FIELDS).items():
        if name in rec and not ok(rec[name]):
            raise CatalogError(f"{where}: field {name!r} must be {wanted}, got {rec[name]!r}")


def _parse_record(rec: dict, where: str) -> SurfaceModel:
    _check_fields(rec, where)
    basis = rec["basis"]
    try:
        H = DivisorClass(basis, tuple(rec["H"]))
    except InvalidClassError as exc:
        raise CatalogError(f"{where} ({rec['id']}): {exc}") from exc
    derived = _derived_fields(basis, rec["ambient"], H)
    # A record may still store a derived field (catalog v1); it must hold
    # the derived value as JSON would write it, so true or 1.0 is no 1.
    for name, value in derived.items():
        want = list(value.coeffs) if name == "K" else value
        if name in rec and repr(rec[name]) != repr(want):
            raise CatalogError(
                f"{where} ({rec['id']}): field {name!r} stores {rec[name]!r}, "
                f"derived {want!r}"
            )
    return SurfaceModel(
        id=rec["id"],
        ambient=rec["ambient"],
        basis=basis,
        H=H,
        special_position_notes=tuple(rec.get("special_position_notes", ())),
        **derived,
    )


def _default_catalog_text() -> str:
    # through the package's loader, so a zipped install reads it too
    path = os.path.join(os.path.dirname(__file__), "data", "surfaces.json")
    return __loader__.get_data(path).decode("utf-8")


@lru_cache(maxsize=None)
def load_catalog(path: str | None = None) -> dict[str, SurfaceModel]:
    """Load and validate the surface catalog.

    ``path`` overrides the packaged data file; a file that cannot be read,
    is not JSON, or lacks a field or has one of the wrong type raises
    :class:`CatalogError` naming it.  The result is cached and immutable;
    concurrent reads are unrestricted.
    """
    if path is None:
        text = _default_catalog_text()
    else:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog {path or '(packaged)'} is not valid JSON: {exc}") from exc
    where = f"catalog {path or '(packaged)'}"
    if not isinstance(raw, dict):
        raise CatalogError(f"{where}: top level must be an object, got {type(raw).__name__}")
    if "surfaces" not in raw:
        raise CatalogError(f"{where}: missing field 'surfaces'")
    if not isinstance(raw["surfaces"], list):
        raise CatalogError(f"{where}: field 'surfaces' must be a list")
    catalog: dict[str, SurfaceModel] = {}
    for i, rec in enumerate(raw["surfaces"]):
        model = _parse_record(rec, f"{where}, surface {i}")
        if model.id in catalog:
            raise CatalogError(f"{where}: duplicate surface id {model.id!r}")
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
# For a class L = (a; b_1..b_n) with L.H = d and L^2 >= c on a lattice
# with H = (h_0; h_1..h_n), |h|^2 = sum(h_i^2) and H^2 = h_0^2 - |h|^2 > 0,
# the Hodge index theorem gives L^2 <= d^2 / H^2, so c ranges up to the
# Hodge cap d^2 // H^2.  With c <= 0 (a floor above 0 is lowered to 0 for
# this bound only):
#
#   a*h_0 - d = sum(b_i h_i), and (sum(b_i h_i))^2 <= |b|^2 |h|^2
#   (Cauchy-Schwarz) with |b|^2 = a^2 - L^2 <= a^2 - c,
#
# so (a*h_0 - d)^2 <= |h|^2 (a^2 - c).  This quadratic in a has leading
# coefficient H^2 > 0 and discriminant 4 |h|^2 (d^2 - H^2 c), so a lies
# between its two roots; math.isqrt gives them exactly.  The b_i are then
# bounded by the square budget: c <= L^2 <= d^2 // H^2 reads
# max(a^2 - d^2 // H^2, 0) <= |b|^2 <= a^2 - c.  This window is exact, so
# every tuple the search returns has its C^2 in range and no per-solution
# C^2 test is needed.
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
# every orbit from the distinct orderings of each block's entries.  Only
# the representatives go through the checking DivisorClass constructor:
# an orbit member inherits its representative's checks, because a
# permutation within blocks keeps the length of the coefficient tuple and
# moves the same int objects, so every check would pass again.
#
# Block-order lower bound.  Suppose positions i..n-1 all carry one
# weight w (always so for i = n - 1).  They lie in one set of
# equal-weight positions, so in a representative b_i is the largest of
# b_i..b_{n-1} and their sum is at most (n - i) b_i.  With w > 0 the
# remaining weighted sum rem_w = w * (b_i + .. + b_{n-1}) gives
# b_i >= ceil(rem_w / (w (n - i))).  The bound is exact: a smaller b_i
# has no completion, so no tuple is dropped.
#
# Genus bound.  With K = (-3; -1..-1), adjunction 2g - 2 = L^2 + L.K
# reads sum(b_i (b_i - 1)) = (a - 1)(a - 2) - 2g, so a pinned genus pins
# this sum for each a, whatever L^2 is.  Every term b(b - 1) is >= 0, so
# with R left of the sum each remaining b_i has b_i (b_i - 1) <= R, that
# is (2 b_i - 1)^2 <= 4R + 1, or 1 - t <= b_i <= t with
# t = (1 + isqrt(1 + 4R)) // 2.  The bound is exact for the same reason:
# a b_i outside it leaves R < 0, which no further nonnegative terms undo.
# ---------------------------------------------------------------------------


def _a_range(surface: SurfaceModel, d: int, min_self: int) -> range:
    """Every a admitting a class of degree ``d`` with L^2 >= ``min_self``:
    the integer interval between the roots of the quadratic above, widened
    by one on each side.  The bound assumes ``min_self <= 0``; callers
    with a higher floor pass ``min(floor, 0)``, a superset of the a they
    need."""
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

    Returns ``solutions(wsum, tri, sq_lo, sq_hi)``: the orbit
    representatives of the integer tuples b with sum(b_i w_i) = wsum,
    optional sum(b_i (b_i - 1)) = tri (``None`` leaves it free), and
    sq_lo <= sum(b_i^2) <= sq_hi, in lexicographic order; these are the
    tuples that do not increase along each set of equal-weight positions.
    Depth-first with exact Cauchy-Schwarz pruning on the weighted sum, the
    adjunction bound on a pinned ``tri`` and the block-order lower bound
    above.  The tables below depend on the weights alone and are built
    once.

    >>> _b_solver((1, 1))(2, None, 0, 4)
    [(1, 1), (2, 0)]
    >>> _b_solver((1, 1))(2, 2, 0, 4)
    [(2, 0)]
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

    def solutions(wsum, tri, sq_lo, sq_hi):
        if sq_hi < 0 or (tri is not None and tri < 0):
            return []
        out = []

        def rec(i, rem_w, rem_t, budget, acc):
            if i == n:
                if rem_w == 0 and (tri is None or rem_t == 0):
                    used = sq_hi - budget
                    if used >= sq_lo:
                        out.append(tuple(acc))
                return
            if rem_w * rem_w > budget * suffix_wsq[i]:
                return
            top = math.isqrt(budget)
            hi = top if prev_same[i] is None else min(top, acc[prev_same[i]])
            lo = -top
            if run_w[i]:
                lo = max(lo, -(-rem_w // run_w[i]))
            if tri is not None:
                t = (1 + math.isqrt(1 + 4 * rem_t)) // 2
                lo = max(lo, 1 - t)
                hi = min(hi, t)
            for b in range(lo, hi + 1):
                acc.append(b)
                rec(i + 1, rem_w - b * weights[i], rem_t - b * (b - 1), budget - b * b, acc)
                acc.pop()

        rec(0, wsum, 0 if tri is None else tri, sq_hi, [])
        del rec  # a cycle through its own cell: free it now, not at a gc run
        return out

    return solutions


def _removals(ms):
    """``(v, ms less one v)`` for each distinct v of the sorted ``ms``, in order."""
    for i, v in enumerate(ms):
        if not i or v != ms[i - 1]:
            yield v, ms[:i] + ms[i + 1 :]


def _orderings(ms, memo):
    """Each distinct ordering of the sorted tuple ``ms`` once, sorted: for
    each distinct value v in increasing order, ``(v,)`` followed by the
    orderings of the rest.  ``memo`` maps the multisets done to their lists."""
    if len(ms) < 2:
        return [ms]
    got = memo.get(ms)
    if got is None:
        got = memo[ms] = []
        for v, rest in _removals(ms):
            got += map((v,).__add__, _orderings(rest, memo))
    return got


def _orbit_tuples(reps, rank, blocks):
    """Every distinct tuple in the orbits of the coefficient tuples
    ``reps``, sorted: the entries permuted within each block of
    positions (``blocks`` is nonempty and holds no position 0, so
    ``rank >= 3`` and ``place`` returns a tuple).

    An orbit is the fixed entries followed by every distinct ordering of
    each block in turn; ``place`` moves them to their positions unless the
    blocks already follow the fixed positions.  The top two levels of a
    block are emitted onto the prefix and only shorter tails are memoized,
    for this call only, so the memo stays small beside the output.
    Unmoved orbits come out as sorted runs, which the final sort merges.
    An output tuple has its representative's length and int entries, so
    it inherits the checks of the representative's class.

    >>> _orbit_tuples([(5, 2, 7, 0), (1, 3, 0, 3)], 4, [(1, 3)])
    [(1, 3, 0, 3), (5, 0, 7, 2), (5, 2, 7, 0)]
    """
    fixed = [p for p in range(rank) if all(p not in block for block in blocks)]
    order = fixed + [p for block in blocks for p in block]
    # puts the entries of fixed + blocks at the positions they stand for
    place = itemgetter(*sorted(range(rank), key=order.__getitem__))
    aligned = order == sorted(order)
    memo = {}
    out = []
    for coeffs in reps:
        heads = [tuple(map(coeffs.__getitem__, fixed))]
        for block in blocks:
            ms = tuple(sorted(map(coeffs.__getitem__, block)))
            longer = []
            for head in heads:
                for v, rest in _removals(ms):
                    for u, tail in _removals(rest):
                        longer += map((head + (v, u)).__add__, _orderings(tail, memo))
            heads = longer
        out += heads if aligned else map(place, heads)
    out.sort()
    return out


def class_representatives(
    surface: SurfaceModel,
    deg: int,
    genus: int | None = None,
    min_self: int = 0,
) -> list[DivisorClass]:
    """One class per orbit of the classes :func:`enumerate_classes`
    returns, under permutations of blown-up points of equal H-weight.

    Each representative has non-increasing coefficients along every set
    of equal-weight points; degree, genus, C^2, the effectivity screen
    and H - C tests give the same answer on the whole orbit.  On the
    quadric every class is its own representative.  Output order is
    canonical (sorted coefficient tuples).  A ``deg``, ``genus`` or
    ``min_self`` that is not an int (or is a bool) raises
    :class:`LiaisonkitError`.

    >>> dp = get_surface("del_pezzo_4")
    >>> [str(c) for c in class_representatives(dp, 1, genus=0, min_self=-1)]
    ['(0;0,0,0,0,-1)', '(1;1,1,0,0,0)', '(2;1,1,1,1,1)']
    """
    _require_int("deg", deg)
    if genus is not None:
        _require_int("genus", genus)
    _require_int("min_self", min_self)
    if surface.basis == QUADRIC:
        # (a, deg - a) has C^2 = 2a(deg - a) >= min_self exactly when
        # (2a - deg)^2 <= deg^2 - 2 min_self; isqrt gives the a range, and
        # increasing a is increasing coefficient order
        disc = deg * deg - 2 * min_self
        if disc < 0:
            return []
        root = math.isqrt(disc)
        found = []
        for a in range(-((root - deg) // 2), (deg + root) // 2 + 1):
            c = DivisorClass.quadric((a, deg - a))
            if genus is None or arithmetic_genus(c, surface) == genus:
                found.append(c)
        return found

    hodge_cap = (deg * deg) // surface.degree
    if min_self > hodge_cap:
        return []
    h = surface.H.coeffs
    b_solutions = _b_solver(h[1:])
    found = []
    for a in _a_range(surface, deg, min(min_self, 0)):
        # adjunction with K = (-3; -1..-1): 2g - 2 = L^2 + L.K
        # = a^2 - 3a - sum(b_i (b_i - 1)), so a genus pins that sum
        tri = None if genus is None else (a - 1) * (a - 2) - 2 * genus
        # min_self <= a^2 - sum(b_i^2) <= hodge_cap, as a square budget
        sq_lo = max(a * a - hodge_cap, 0)
        for b in b_solutions(a * h[0] - deg, tri, sq_lo, a * a - min_self):
            found.append((a,) + b)
    classes = [DivisorClass.blownup(c) for c in sorted(found)]
    if genus is not None:
        classes = [c for c in classes if arithmetic_genus(c, surface) == genus]
    return classes


def enumerate_classes(
    surface: SurfaceModel,
    deg: int,
    genus: int | None = None,
    min_self: int = 0,
) -> list[DivisorClass]:
    """All classes on ``surface`` with degree ``deg``, C^2 in
    [min_self .. Hodge bound d^2 // H^2] and, when given, arithmetic
    genus ``genus``.

    Every orbit of :func:`class_representatives` is expanded.  Output
    order is canonical (sorted coefficient tuples).

    Only the representatives are built through the checking
    :class:`DivisorClass` constructor; the other orbit members inherit
    their checks and are built in bulk without a second one.
    """
    reps = class_representatives(surface, deg, genus, min_self)
    blocks = [tuple(i + 1 for i in b) for b in _weight_blocks(surface.H.coeffs[1:])]
    if not blocks:
        # no two points share a weight (the quadric too): orbits are single classes
        return reps
    expanded = _orbit_tuples([c.coeffs for c in reps], len(surface.H.coeffs), blocks)
    return _prechecked_classes(BLOWNUP_PLANE, expanded)


@lru_cache(maxsize=None)
def lines_on(surface: SurfaceModel) -> LineClassSet:
    """Exhaustive set of line classes: L.H = 1, genus 0, L^2 in {-1, 0}.

    Only blown-up-plane lattices carry the enumeration; the search bound
    is the signature inequality documented above.  The floor -1 list of
    degree-1, genus-0 classes is filtered here to L^2 <= 0: by the Hodge
    index theorem a degree-1 class has L^2 <= 1/H^2, so the filter drops
    a class only on plane_p2 (H^2 = 1), the class (1;) of a line of P2,
    which moves in a two-parameter family and is not one of these lines.

    >>> scroll = get_surface("cubic_scroll")
    >>> [str(c) for c in lines_on(scroll).classes]
    ['(0;-1)', '(1;1)']
    """
    if surface.basis != BLOWNUP_PLANE:
        raise UnsupportedSurfaceError(
            f"line enumeration needs a blownup_plane lattice, got {surface.basis}"
        )
    classes = [
        c for c in enumerate_classes(surface, 1, genus=0, min_self=-1)
        if self_intersection(c) <= 0
    ]
    flags = tuple(
        FINITE if self_intersection(c) == -1 else ONE_PARAMETER for c in classes
    )
    return LineClassSet(tuple(classes), flags)


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


class ScreenRows(Record):
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

    __slots__ = ("H", "K", "lines", "form", "hh", "hk", "kk", "line_k", "line_invariants")

    def __init__(
        self,
        H: tuple[int, ...],
        K: tuple[int, ...],
        lines: tuple[tuple[int, ...], ...],
        form: tuple[tuple[int, int, int], ...],
        hh: int,
        hk: int,
        kk: int,
        line_k: tuple[int, ...],
        line_invariants: tuple[tuple, ...] = (),
    ):
        _set(self, "H", H)
        _set(self, "K", K)
        _set(self, "lines", lines)
        _set(self, "form", form)
        _set(self, "hh", hh)
        _set(self, "hk", hk)
        _set(self, "kk", kk)
        _set(self, "line_k", line_k)
        _set(self, "line_invariants", line_invariants)

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
    fields = dict(
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
    rows = ScreenRows(**fields)
    return ScreenRows(
        **fields, line_invariants=tuple(rows.invariants(line.coeffs) for line in lines)
    )


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
