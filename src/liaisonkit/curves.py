"""Curve records, multisecant profiles, pencil bounds, and the minimal
curve constructors.

A :class:`CurveRecord` stores exact degree and arithmetic genus, an
optional divisor-class witness, and a symbolic Rao tag; it keeps no
record of how it was built (a liaison chain's steps do).  A witness
carries its :class:`SurfaceModel` itself, not a catalog id, so records on
surfaces from an alternate catalog work like any other.  Rao tags are
bookkeeping only: no cohomology is computed, and ``unknown`` is the
honest default for curves without an asserted module.
"""

from __future__ import annotations

from collections import Counter

from .errors import InvalidClassError, LiaisonkitError, MissingWitnessError, Record, _set
from .lattice import DivisorClass, arithmetic_genus, intersect
from .lattice import degree as _degree  # CurveRecord takes a `degree` argument
from .surfaces import SurfaceModel, conic_classes, lines_on

RAO_ZERO = "zero"
RAO_SIMPLE_K = "simple_k"
RAO_M_A = "m_a"
RAO_UNKNOWN = "unknown"


class RaoTag(Record):
    """Symbolic Rao module: kind, module parameter (for the m_a family),
    starting degree, and a duality flag toggled by odd links."""

    __slots__ = ("kind", "a", "shift", "dualized")

    def __init__(
        self, kind: str = RAO_UNKNOWN, a: int | None = None, shift: int = 0, dualized: bool = False
    ):
        if kind not in (RAO_ZERO, RAO_SIMPLE_K, RAO_M_A, RAO_UNKNOWN):
            raise LiaisonkitError(f"unknown Rao kind {kind!r}")
        if kind == RAO_M_A:
            if a is None or a < 2:
                raise LiaisonkitError("m_a tags need a >= 2 (a = 1 is simple_k)")
        elif a is not None:
            raise LiaisonkitError(f"kind {kind} takes no module parameter")
        if kind == RAO_ZERO and (shift != 0 or dualized):
            shift, dualized = 0, False
        _set(self, "kind", kind)
        _set(self, "a", a)
        _set(self, "shift", shift)
        _set(self, "dualized", dualized)

    @classmethod
    def zero(cls) -> "RaoTag":
        return cls(RAO_ZERO)

    @classmethod
    def simple_k(cls, shift: int = 0) -> "RaoTag":
        return cls(RAO_SIMPLE_K, shift=shift)

    @classmethod
    def m_a(cls, a: int, shift: int = 0) -> "RaoTag":
        return cls(RAO_M_A, a=a, shift=shift)

    def shifted(self, h: int) -> "RaoTag":
        """Tag after an elementary biliaison of height h: start degree moves
        by h, kind and duality are unchanged (biliaison is even)."""
        if self.kind == RAO_ZERO:
            return self
        return RaoTag(self.kind, self.a, self.shift + h, self.dualized)

    def linked(self, twist: int) -> "RaoTag":
        """Tag after one odd link through a Gorenstein scheme whose
        hyperplane twist is ``twist``: dualize and reflect the start."""
        if self.kind == RAO_ZERO:
            return self
        return RaoTag(self.kind, self.a, twist - self.shift, not self.dualized)

    def __str__(self) -> str:
        if self.kind == RAO_ZERO:
            return "0"
        if self.kind == RAO_UNKNOWN:
            return "?"
        name = "k" if self.kind == RAO_SIMPLE_K else f"M_{self.a}"
        out = f"{name}@{self.shift}"
        return out + ("*" if self.dualized else "")


class Witness(Record):
    """A divisor class on a surface, for a curve that lies on it."""

    __slots__ = ("surface", "cls")

    def __init__(self, surface: SurfaceModel, cls: DivisorClass):
        _set(self, "surface", surface)
        _set(self, "cls", cls)


class CurveRecord(Record):
    """Exact (degree, genus) with an optional surface witness and a Rao tag.

    When a witness is present, degree and genus are recomputed from the
    lattice on construction and must agree with the stored values.  A
    record holds no history: two records are equal when their numbers,
    witnesses and tags are.
    """

    __slots__ = ("degree", "genus", "witness", "rao")

    def __init__(
        self, degree: int, genus: int, witness: Witness | None = None, rao: RaoTag = RaoTag()
    ):
        if witness is not None:
            s = witness.surface
            d = _degree(witness.cls, s)
            g = arithmetic_genus(witness.cls, s)
            if (d, g) != (degree, genus):
                raise InvalidClassError(
                    f"witness {witness.cls} on {s.id} has (d,g)=({d},{g}), "
                    f"record says ({degree},{genus})"
                )
        _set(self, "degree", degree)
        _set(self, "genus", genus)
        _set(self, "witness", witness)
        _set(self, "rao", rao)

    @classmethod
    def on_surface(
        cls, surface: SurfaceModel, divisor: DivisorClass, rao: RaoTag = RaoTag()
    ) -> "CurveRecord":
        return cls(
            degree=_degree(divisor, surface),
            genus=arithmetic_genus(divisor, surface),
            witness=Witness(surface, divisor),
            rao=rao,
        )

    @classmethod
    def abstract(cls, d: int, g: int, rao: RaoTag = RaoTag()) -> "CurveRecord":
        return cls(degree=d, genus=g, witness=None, rao=rao)

    @property
    def dg(self) -> tuple[int, int]:
        return (self.degree, self.genus)

    def witness_surface(self) -> SurfaceModel:
        if self.witness is None:
            raise MissingWitnessError(f"curve ({self.degree},{self.genus}) has no witness")
        return self.witness.surface


class SecantProfile(Record):
    """Intersection numbers of a witnessed curve with every line class on
    its surface, plus the multiset summary."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[DivisorClass, str, int], ...]):
        _set(self, "entries", entries)

    def summary(self) -> tuple[int, ...]:
        return tuple(sorted(v for _, _, v in self.entries))

    def summary_counter(self) -> Counter:
        return Counter(v for _, _, v in self.entries)

    def compact(self) -> str:
        """Multiset as ``0,1^4,2^6`` style text."""
        counts = sorted(self.summary_counter().items())
        return ",".join(f"{v}^{m}" if m > 1 else f"{v}" for v, m in counts)


def multisecant_profile(curve: CurveRecord) -> SecantProfile:
    """Map every line class of the witness surface to its intersection
    number with the curve."""
    surface = curve.witness_surface()
    entries = tuple(
        (line, flag, intersect(curve.witness.cls, line))
        for line, flag in lines_on(surface).pairs()
    )
    return SecantProfile(entries)


def k_secant_lines(curve: CurveRecord, k: int) -> list[tuple[DivisorClass, str]]:
    """Line classes meeting the curve in exactly ``k`` points.

    "Exactly" is deliberate: a class meeting the curve 4 times is a
    quadrisecant, not a trisecant.
    """
    profile = multisecant_profile(curve)
    return [(line, flag) for line, flag, v in profile.entries if v == k]


def plane_pencil_bound(curve: CurveRecord, conic: DivisorClass) -> int:
    """Residual pencil degree cut by hyperplanes through the plane of a
    conic on the witness surface: degree(C) - C.conic.  An upper bound for
    the gonality of the curve."""
    surface = curve.witness_surface()
    if conic not in conic_classes(surface):
        raise InvalidClassError(f"{conic} is not a conic class on {surface.id}")
    return curve.degree - intersect(curve.witness.cls, conic)


def disjoint_union(c1: CurveRecord, c2: CurveRecord) -> CurveRecord:
    """Union of two disjoint curves: degrees add, genus is g1 + g2 - 1
    (additivity of the Euler characteristic chi(O) = 1 - g).

    Geometric disjointness is the caller's assertion.  The witness is kept
    only when both parts live on the same surface and their classes have
    intersection number 0; otherwise the union is recorded abstractly.
    """
    witness = None
    if (
        c1.witness is not None
        and c2.witness is not None
        and c1.witness.surface == c2.witness.surface
        and intersect(c1.witness.cls, c2.witness.cls) == 0
    ):
        witness = Witness(c1.witness.surface, c1.witness.cls + c2.witness.cls)
    return CurveRecord(
        degree=c1.degree + c2.degree,
        genus=c1.genus + c2.genus - 1,
        witness=witness,
        rao=RaoTag(),
    )


def plane_curve(d: int) -> CurveRecord:
    """A plane curve of degree d: genus (d-1)(d-2)/2."""
    if d < 1:
        raise LiaisonkitError("plane curves have degree >= 1")
    return CurveRecord.abstract(d, (d - 1) * (d - 2) // 2, rao=RaoTag.zero())


def minimal_curve_M_k(d: int) -> CurveRecord:
    """Minimal curve with one-dimensional Rao module in degree 0: the
    disjoint union of a line and a plane curve of degree d-1 in general
    position, so (d, (d-2)(d-3)/2 - 1).

    >>> minimal_curve_M_k(2).dg
    (2, -1)
    """
    if d < 2:
        raise LiaisonkitError("minimal curves for module k need degree >= 2")
    g = (d - 2) * (d - 3) // 2 - 1
    return CurveRecord.abstract(d, g, rao=RaoTag.simple_k(0))


def lesperance_parts(
    kind: str,
    a: int,
    b: int | None = None,
    acm_curve: CurveRecord | None = None,
) -> tuple[CurveRecord, CurveRecord]:
    """Components of the reduced minimal curves with Rao module M_a, four
    shapes:

    a) line + plane curve of degree a (planes meeting at a point off the
       curves);
    b) plane curves of degrees a <= b, the plane intersection point on
       neither curve;
    c) plane curves of degrees a and b >= 1, the intersection point lying
       on the degree-b curve (b = 1 recovers type a);
    d) line + an ACM space curve, supplied by the caller since its genus
       is not determined by its degree; ``a`` is the least degree of a
       surface containing the ACM curve but not the distinguished point.
    """
    if a < 2:
        raise LiaisonkitError("module parameter a must be >= 2")
    line = CurveRecord.abstract(1, 0, rao=RaoTag.zero())
    if kind == "a":
        return (line, plane_curve(a))
    if kind == "b":
        if b is None or b < a:
            raise LiaisonkitError("type b needs a <= b")
        return (plane_curve(a), plane_curve(b))
    if kind == "c":
        if b is None or b < 1:
            raise LiaisonkitError("type c needs b >= 1")
        return (plane_curve(a), plane_curve(b))
    if kind == "d":
        if acm_curve is None:
            raise LiaisonkitError("type d needs the ACM space curve record")
        if b is not None and b != acm_curve.degree:
            raise LiaisonkitError(
                f"type d: stated degree {b} != ACM curve degree {acm_curve.degree}"
            )
        return (line, acm_curve)
    raise LiaisonkitError(f"unknown minimal-curve type {kind!r}")


def lesperance_curve(
    kind: str,
    a: int,
    b: int | None = None,
    acm_curve: CurveRecord | None = None,
) -> CurveRecord:
    """The minimal curve with Rao module M_a of shape ``kind``: the disjoint
    union of :func:`lesperance_parts`, tagged M_a."""
    union = disjoint_union(*lesperance_parts(kind, a, b, acm_curve))
    return CurveRecord.abstract(union.degree, union.genus, rao=RaoTag.m_a(a))
