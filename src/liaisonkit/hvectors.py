"""O-sequences, generic h-vectors of point sets, Gorenstein symmetry
tests, h-vector linkage, and postulation characters.

Everything operates on short tuples of nonnegative integers; all checks
are exact.  The Gorenstein test in codimension 3 is the SI-sequence
criterion (symmetric, and the first difference of the first half is again
an O-sequence); in codimension 2 the same check specializes to the
complete-intersection trapezoids.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from math import comb

from .errors import CharacterError, LiaisonkitError, LinkageError, Record, _require_int, _set

AMBIENT_CODIM = {"P2": 2, "P3": 3}


class HVector(Record):
    """Finite sequence of nonnegative integers starting with 1, trailing
    zeros trimmed; ``ambient_codim`` is the codimension of the points it
    describes (3 for P3, 2 for P2)."""

    __slots__ = ("entries", "ambient_codim")

    def __init__(self, entries: tuple[int, ...], ambient_codim: int = 3):
        trimmed = tuple(entries)
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        if not trimmed or trimmed[0] != 1:
            raise LiaisonkitError(f"h-vector must start with 1, got {entries}")
        if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in trimmed):
            raise LiaisonkitError(f"h-vector entries must be nonnegative integers: {trimmed}")
        _set(self, "entries", trimmed)
        _set(self, "ambient_codim", ambient_codim)

    @property
    def mass(self) -> int:
        return sum(self.entries)

    def get(self, i: int) -> int:
        return self.entries[i] if 0 <= i < len(self.entries) else 0

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.entries) + ")"


def macaulay_bound(a: int, i: int) -> int:
    """Maximal growth a^<i> of an O-sequence from value ``a`` in degree
    ``i >= 1`` (Macaulay binomial expansion bound)."""
    if i < 1:
        raise LiaisonkitError("macaulay_bound needs degree index >= 1")
    if a == 0:
        return 0
    out = 0
    rest, j = a, i
    while rest > 0:
        m = j
        while comb(m + 1, j) <= rest:
            m += 1
        out += comb(m + 1, j + 1)
        rest -= comb(m, j)
        j -= 1
    return out


def _growth_failure(seq) -> int | None:
    """First index j >= 2 with seq[j] > seq[j-1]^<j-1>, or None."""
    for i in range(1, len(seq) - 1):
        if seq[i + 1] > macaulay_bound(seq[i], i):
            return i + 1
    return None


def is_O_sequence(h) -> bool:
    """True iff h(i+1) <= h(i)^<i> for every i >= 1 (and h starts with 1).

    >>> is_O_sequence((1, 3, 6, 10))
    True
    >>> is_O_sequence((1, 0, 1))
    False
    """
    seq = tuple(h.entries if isinstance(h, HVector) else h)
    if not seq or seq[0] != 1 or any(x < 0 for x in seq):
        return False
    return _growth_failure(seq) is None


def _caps(r: int, surface_degree: int | None):
    """Lazy pointwise caps h(0), h(1), ... on the h-vector of points in
    codimension ``r``: the dimension of the degree-i forms, lowered to the
    Hilbert function of a degree-e surface when ``surface_degree = e``."""
    section = 0
    for i in count():
        cap = comb(i + r - 1, r - 1)
        if surface_degree is not None:
            section += min(i + 1, surface_degree)
            cap = min(cap, section)
        yield cap


def _ambient_codim(ambient: str, surface_degree: int | None) -> int:
    """Codimension of points in the ambient space, after checking the
    ambient and the optional surface constraint (P3 only)."""
    if ambient not in AMBIENT_CODIM:
        raise LiaisonkitError(f"ambient must be P2 or P3, got {ambient!r}")
    if surface_degree is not None:
        if ambient != "P3":
            raise LiaisonkitError("surface constraint applies to P3 only")
        _require_int("surface degree", surface_degree)
        # a degree below 1 caps every entry at <= 0, so no h-vector completes
        if surface_degree < 1:
            raise LiaisonkitError("surface degree must be >= 1")
    return AMBIENT_CODIM[ambient]


def generic_points_h_vector(
    n: int, ambient: str = "P3", surface_degree: int | None = None
) -> HVector:
    """Greedy-maximal h-vector of n general points in P2 or P3.

    With ``surface_degree = e`` (P3 only) the growth is additionally
    capped by the Hilbert function of a degree-e surface: general points
    constrained to lie on such a surface.

    >>> generic_points_h_vector(20).entries
    (1, 3, 6, 10)
    >>> generic_points_h_vector(18).entries
    (1, 3, 6, 8)
    """
    _require_int("n", n)
    if n < 1:
        raise LiaisonkitError("need at least one point")
    r = _ambient_codim(ambient, surface_degree)
    entries = []
    remaining = n
    for cap in _caps(r, surface_degree):
        if remaining == 0:
            break
        take = min(cap, remaining)
        entries.append(take)
        remaining -= take
    return HVector(tuple(entries), ambient_codim=r)


def growth_envelope(
    length: int, ambient: str = "P3", surface_degree: int | None = None
) -> tuple[int, ...]:
    """Pointwise caps on h-vector entries of point sets in the ambient
    space, optionally constrained to a degree-e surface (P3 only)."""
    return tuple(islice(_caps(_ambient_codim(ambient, surface_degree), surface_degree), length))


def is_gorenstein_h_vector(h: HVector) -> bool:
    """Symmetric with SI first half; codimension 2 or 3 only.

    >>> is_gorenstein_h_vector(HVector((1, 3, 3, 1)))
    True
    >>> is_gorenstein_h_vector(HVector((1, 3, 2)))
    False
    """
    if h.ambient_codim not in (2, 3):
        raise LiaisonkitError(f"unsupported codimension {h.ambient_codim}")
    seq = h.entries
    s = len(seq) - 1
    if any(seq[i] != seq[s - i] for i in range(s + 1)):
        return False
    if len(seq) > 1 and seq[1] > h.ambient_codim:
        return False
    half = seq[: s // 2 + 1]
    diff = [half[0]] + [half[i] - half[i - 1] for i in range(1, len(half))]
    if any(x < 0 for x in diff):
        return False
    return is_O_sequence(tuple(diff))


def link_h_vector(z: HVector, w: HVector) -> HVector:
    """Residual of ``z`` under a Gorenstein link through ``w``:
    res(i) = w(i) - z(s - i) with s the socle degree of w.

    Validates containment, nonnegativity and O-sequence growth of the
    residual; the failing index is reported.  Mass is conserved:
    sum(z) + sum(res) = sum(w).
    """
    if z.ambient_codim != w.ambient_codim:
        raise LinkageError("h-vectors live in different codimensions")
    if not is_gorenstein_h_vector(w):
        raise LinkageError(f"{w} is not a Gorenstein h-vector")
    ze, we = z.entries, w.entries
    s = len(we) - 1
    # z(i) > w(i) = 0 past the end of w is a containment failure too
    for i, a in enumerate(ze):
        if a > (we[i] if i <= s else 0):
            raise LinkageError(f"containment violated: z({i}) > w({i})", index=i)
    res = [we[i] - (ze[s - i] if s - i < len(ze) else 0) for i in range(s + 1)]
    for i, v in enumerate(res):
        if v < 0:
            raise LinkageError(f"negative residual entry {v}", index=i)
    while res and res[-1] == 0:
        res.pop()
    if not res:
        raise LinkageError("residual is the empty configuration (z equals w)")
    bad = 0 if res[0] != 1 else _growth_failure(res)
    if bad is not None:
        raise LinkageError(f"residual {tuple(res)} is not a valid O-sequence", index=bad)
    return HVector(tuple(res), ambient_codim=w.ambient_codim)


class PostulationCharacter(Record):
    """Integer sequence gamma(0), gamma(1), ... with sum 0 and weighted
    sum equal to the curve degree."""

    __slots__ = ("values", "degree")

    def __init__(self, values: tuple[int, ...], degree: int):
        values = tuple(values)
        while values and values[-1] == 0:
            values = values[:-1]
        if sum(values) != 0:
            raise CharacterError(f"character mass {sum(values)} != 0: {values}")
        if sum(i * v for i, v in enumerate(values)) != degree:
            raise CharacterError(
                f"weighted character sum != degree {degree}: {values}"
            )
        _set(self, "values", values)
        _set(self, "degree", degree)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.values) + ")"


def character_is_positive(gamma: PostulationCharacter) -> bool:
    """gamma(0) = -1 and, from the first nonnegative index s0 >= 1 on,
    every value is nonnegative."""
    v = gamma.values
    if not v or v[0] != -1:
        return False
    s0 = None
    for i in range(1, len(v)):
        if v[i] >= 0:
            s0 = i
            break
    if s0 is None:
        return True
    return all(x >= 0 for x in v[s0:])


def character_is_connected(gamma: PostulationCharacter) -> bool:
    """The set of indices with gamma > 0 is an interval."""
    pos = [i for i, x in enumerate(gamma.values) if x > 0]
    if not pos:
        return True
    return pos[-1] - pos[0] + 1 == len(pos)


def acm_character(h) -> PostulationCharacter:
    """Character of an ACM curve from its h-vector: gamma(n) = h(n-1) - h(n)."""
    seq = tuple(h.entries if isinstance(h, HVector) else h)
    values = []
    for n in range(len(seq) + 1):
        prev = seq[n - 1] if n - 1 >= 0 else 0
        cur = seq[n] if n < len(seq) else 0
        values.append(prev - cur)
    d = sum(seq)
    return PostulationCharacter(tuple(values), degree=d)


@lru_cache(maxsize=None)
def acm_h_vector_candidates(d: int, g: int) -> tuple[tuple[int, ...], ...]:
    """h-vectors (1, 3, h_2, ...) of integral nondegenerate ACM curves in
    P4 with the given degree (= mass) and genus (= sum over i >= 2 of
    (i-1) h_i), filtered to positive connected characters (strictly
    increasing, then a plateau, then strictly decreasing).

    Empty result means no integral nondegenerate ACM curve in P4 can have
    this (degree, genus) pair; in particular every degree below 4.
    """
    results = []

    def rec(seq, mass, genus_acc):
        if mass == d and genus_acc == g:
            gamma = acm_character(tuple(seq))
            if character_is_positive(gamma) and character_is_connected(gamma):
                results.append(tuple(seq))
        i = len(seq)
        hi_max = min(macaulay_bound(seq[-1], i - 1), d - mass)
        for hi in range(1, hi_max + 1):
            extra_g = (i - 1) * hi
            if genus_acc + extra_g > g:
                continue
            rec(seq + [hi], mass + hi, genus_acc + extra_g)

    if d >= 4:
        rec([1, 3], 4, 0)
    del rec  # a cycle through its own cell: free it now, not at a gc run
    return tuple(sorted(results))
