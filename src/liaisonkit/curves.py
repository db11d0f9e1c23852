"""Curve records, multisecant profiles, pencil bounds, and the minimal
curve constructors.

A :class:`CurveRecord` stores exact degree and arithmetic genus, an
optional divisor-class witness, and a symbolic Rao tag.  A witness
carries its :class:`SurfaceModel` itself, not a catalog id, so records on
surfaces from an alternate catalog work like any other.  Rao tags are
bookkeeping only: no cohomology is computed, and ``unknown`` is the
honest default for curves without an asserted module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .errors import InvalidClassError, LiaisonkitError, MissingWitnessError
from .lattice import DivisorClass, arithmetic_genus, degree, intersect
from .surfaces import SurfaceModel, conic_classes, lines_on

RAO_ZERO = "zero"
RAO_SIMPLE_K = "simple_k"
RAO_M_A = "m_a"
RAO_UNKNOWN = "unknown"


@dataclass(frozen=True)
class RaoTag:
    """Symbolic Rao module: kind, module parameter (for the m_a family),
    starting degree, and a duality flag toggled by odd links."""

    kind: str = RAO_UNKNOWN
    a: int | None = None
    shift: int = 0
    dualized: bool = False

    def __post_init__(self):
        if self.kind not in (RAO_ZERO, RAO_SIMPLE_K, RAO_M_A, RAO_UNKNOWN):
            raise LiaisonkitError(f"unknown Rao kind {self.kind!r}")
        if self.kind == RAO_M_A:
            if self.a is None or self.a < 2:
                raise LiaisonkitError("m_a tags need a >= 2 (a = 1 is simple_k)")
        elif self.a is not None:
            raise LiaisonkitError(f"kind {self.kind} takes no module parameter")
        if self.kind == RAO_ZERO and (self.shift != 0 or self.dualized):
            object.__setattr__(self, "shift", 0)
            object.__setattr__(self, "dualized", False)

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
        if self.kind == RAO_ZERO:
            return self
        return replace(self, shift=self.shift + h)

    def linked(self, twist: int) -> "RaoTag":
        """Tag after one odd link through a Gorenstein scheme whose
        hyperplane twist is ``twist``: dualize and reflect the start."""
        if self.kind == RAO_ZERO:
            return self
        return replace(self, shift=twist - self.shift, dualized=not self.dualized)

    def __str__(self) -> str:
        if self.kind == RAO_ZERO:
            return "0"
        if self.kind == RAO_UNKNOWN:
            return "?"
        name = "k" if self.kind == RAO_SIMPLE_K else f"M_{self.a}"
        out = f"{name}@{self.shift}"
        return out + ("*" if self.dualized else "")


@dataclass(frozen=True)
class Witness:
    surface: SurfaceModel
    cls: DivisorClass


@dataclass(frozen=True)
class CurveRecord:
    """Exact (degree, genus) with optional surface witness and provenance.

    When a witness is present, degree and genus are recomputed from the
    lattice on construction and must agree with the stored values.
    """

    degree: int
    genus: int
    witness: Witness | None = None
    rao: RaoTag = RaoTag()
    provenance: str = ""

    def __post_init__(self):
        if self.witness is not None:
            s = self.witness.surface
            d = degree(self.witness.cls, s)
            g = arithmetic_genus(self.witness.cls, s)
            if (d, g) != (self.degree, self.genus):
                raise InvalidClassError(
                    f"witness {self.witness.cls} on {s.id} has (d,g)=({d},{g}), "
                    f"record says ({self.degree},{self.genus})"
                )

    @classmethod
    def on_surface(
        cls,
        surface: SurfaceModel,
        divisor: DivisorClass,
        rao: RaoTag = RaoTag(),
        provenance: str = "",
    ) -> "CurveRecord":
        return cls(
            degree=degree(divisor, surface),
            genus=arithmetic_genus(divisor, surface),
            witness=Witness(surface, divisor),
            rao=rao,
            provenance=provenance,
        )

    @classmethod
    def abstract(
        cls, d: int, g: int, rao: RaoTag = RaoTag(), provenance: str = ""
    ) -> "CurveRecord":
        return cls(degree=d, genus=g, witness=None, rao=rao, provenance=provenance)

    @property
    def dg(self) -> tuple[int, int]:
        return (self.degree, self.genus)

    def witness_surface(self) -> SurfaceModel:
        if self.witness is None:
            raise MissingWitnessError(f"curve ({self.degree},{self.genus}) has no witness")
        return self.witness.surface


@dataclass(frozen=True)
class SecantProfile:
    """Intersection numbers of a witnessed curve with every line class on
    its surface, plus the multiset summary."""

    entries: tuple[tuple[DivisorClass, str, int], ...]

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
        provenance=f"disjoint_union[{c1.provenance or c1.dg}|{c2.provenance or c2.dg}]",
    )


def plane_curve(d: int) -> CurveRecord:
    """A plane curve of degree d: genus (d-1)(d-2)/2."""
    if d < 1:
        raise LiaisonkitError("plane curves have degree >= 1")
    return CurveRecord.abstract(
        d, (d - 1) * (d - 2) // 2, rao=RaoTag.zero(), provenance=f"plane_curve({d})"
    )


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
    return CurveRecord.abstract(
        d, g, rao=RaoTag.simple_k(0), provenance=f"minimal_curve_M_k({d})"
    )


def lesperance_curve(
    kind: str,
    a: int,
    b: int | None = None,
    acm_curve: CurveRecord | None = None,
) -> CurveRecord:
    """Reduced minimal curves with Rao module M_a, four shapes:

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
    tag = RaoTag.m_a(a)
    line = CurveRecord.abstract(1, 0, rao=RaoTag.zero(), provenance="line")
    if kind == "a":
        parts = (line, plane_curve(a))
    elif kind == "b":
        if b is None or b < a:
            raise LiaisonkitError("type b needs a <= b")
        parts = (plane_curve(a), plane_curve(b))
    elif kind == "c":
        if b is None or b < 1:
            raise LiaisonkitError("type c needs b >= 1")
        parts = (plane_curve(a), plane_curve(b))
    elif kind == "d":
        if acm_curve is None:
            raise LiaisonkitError("type d needs the ACM space curve record")
        if b is not None and b != acm_curve.degree:
            raise LiaisonkitError(
                f"type d: stated degree {b} != ACM curve degree {acm_curve.degree}"
            )
        parts = (line, acm_curve)
    else:
        raise LiaisonkitError(f"unknown minimal-curve type {kind!r}")
    union = disjoint_union(*parts)
    return CurveRecord(
        degree=union.degree,
        genus=union.genus,
        witness=None,
        rao=tag,
        provenance=f"lesperance_{kind}(a={a}"
        + (f",b={b}" if b is not None else "")
        + ")",
    )


def rao_after_biliaison(tag: RaoTag, h: int) -> RaoTag:
    """Tag after an elementary biliaison of height h: start degree moves
    by h, kind and duality are unchanged (biliaison is even)."""
    return tag.shifted(h)
