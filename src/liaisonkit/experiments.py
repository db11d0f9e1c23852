"""Named, scripted reproductions with reference values and provenance.

Each experiment computes a battery of exact values and compares them with
its stored references.  A reference carries one of three provenance tags:

* ``paper``   - a value asserted by the source example being replayed;
* ``trivial`` - immediate from a definition;
* ``derived`` - computed by an independent oracle and frozen here.

References whose ``value`` has no computed counterpart are display-only
(``not recomputed``); they never affect the match status.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from .errors import InvalidInvocationError
from .lattice import (
    DivisorClass,
    arithmetic_genus,
    degree,
    expected_dim_linear_system,
    intersect,
    self_intersection,
)
from .surfaces import (
    class_representatives,
    enumerate_classes,
    get_surface,
    is_effective_candidate,
)
from .curves import (
    CurveRecord,
    RaoTag,
    disjoint_union,
    k_secant_lines,
    lesperance_curve,
    minimal_curve_M_k,
    multisecant_profile,
    plane_pencil_bound,
)
from .liaison import (
    SearchFailure,
    ascending_chain_search,
    elementary_biliaison,
    family_dimension,
    hilbert_dim_lower_bound,
)
from .hvectors import acm_h_vector_candidates, acm_character
from .glicci import GlicciFailure, glicci_chain

SCHEMA_VERSION = 1


def _jnorm(value):
    """Reduce a value to JSON-native types so reports round-trip exactly."""
    if isinstance(value, DivisorClass):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jnorm(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jnorm(v) for k, v in value.items()}
    if hasattr(value, "entries"):  # HVector
        return list(value.entries)
    return value


@dataclass(frozen=True)
class RefValue:
    value: object
    provenance: str  # paper | trivial | derived
    note: str = ""

    def __post_init__(self):
        if self.provenance not in ("paper", "trivial", "derived"):
            raise InvalidInvocationError(f"bad provenance {self.provenance!r}")
        object.__setattr__(self, "value", _jnorm(self.value))


@dataclass(frozen=True)
class ExperimentReport:
    experiment_id: str
    anchor: str
    computed: dict
    references: dict
    matches: dict
    runtime_seconds: float
    schema_version: int = SCHEMA_VERSION

    @property
    def all_match(self) -> bool:
        return all(v is not False for v in self.matches.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "experiment_id": self.experiment_id,
            "anchor": self.anchor,
            "computed": self.computed,
            "references": {
                k: {"value": r.value, "provenance": r.provenance, "note": r.note}
                for k, r in self.references.items()
            },
            "matches": self.matches,
            "runtime_seconds": self.runtime_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        refs = {
            k: RefValue(r["value"], r["provenance"], r.get("note", ""))
            for k, r in data["references"].items()
        }
        return cls(
            experiment_id=data["experiment_id"],
            anchor=data["anchor"],
            computed=data["computed"],
            references=refs,
            matches=data["matches"],
            runtime_seconds=data["runtime_seconds"],
            schema_version=data["schema_version"],
        )


# --------------------------------------------------------------------------
# individual experiments
# --------------------------------------------------------------------------


def _ex3_2():
    scroll = get_surface("cubic_scroll")
    l1 = CurveRecord.on_surface(scroll, DivisorClass.blownup((0, -1)), rao=RaoTag.zero())
    l2 = CurveRecord.on_surface(scroll, DivisorClass.blownup((1, 1)), rao=RaoTag.zero())
    c1 = elementary_biliaison(l1, 3)
    c2 = elementary_biliaison(l2, 3)
    conic = DivisorClass.blownup((1, 0))
    computed = {
        "c1_class": c1.witness.cls,
        "c2_class": c2.witness.cls,
        "c1_dg": c1.dg,
        "c2_dg": c2.dg,
        "c1_self_intersection": self_intersection(c1.witness.cls),
        "c2_self_intersection": self_intersection(c2.witness.cls),
        "c1_trisecants": [(str(c), f) for c, f in k_secant_lines(c1, 3)],
        "c2_trisecants": [(str(c), f) for c, f in k_secant_lines(c2, 3)],
        "c1_conic_plane": intersect(c1.witness.cls, conic),
        "c2_conic_plane": intersect(c2.witness.cls, conic),
        "c1_pencil_bound": plane_pencil_bound(c1, conic),
        "c2_pencil_bound": plane_pencil_bound(c2, conic),
    }
    references = {
        "c1_class": RefValue("(6;2)", "paper", "first smooth (10,9) type"),
        "c2_class": RefValue("(7;4)", "paper", "second smooth (10,9) type"),
        "c1_dg": RefValue([10, 9], "paper"),
        "c2_dg": RefValue([10, 9], "paper"),
        "c1_self_intersection": RefValue(32, "paper"),
        "c2_self_intersection": RefValue(33, "paper"),
        "c1_trisecants": RefValue([], "paper", "no trisecants"),
        "c2_trisecants": RefValue(
            [["(1;1)", "one_parameter"]], "paper", "infinitely many trisecants"
        ),
        "c1_conic_plane": RefValue(6, "paper"),
        "c2_conic_plane": RefValue(7, "paper"),
        "c1_pencil_bound": RefValue(4, "paper", "pencil through the conic plane"),
        "c2_pencil_bound": RefValue(3, "paper", "trigonal"),
    }
    return "Example 3.2", computed, references


def _ex3_4():
    bordiga = get_surface("bordiga_6")
    ls = [
        DivisorClass.blownup((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1)),
        DivisorClass.blownup((1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)),
        DivisorClass.blownup((2, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0)),
    ]
    records = [
        elementary_biliaison(
            CurveRecord.on_surface(bordiga, l, rao=RaoTag.zero()), 3
        )
        for l in ls
    ]
    dgs = sorted({r.dg for r in records})
    cands = acm_h_vector_candidates(*records[0].dg)
    computed = {
        "l_squares": [self_intersection(l) for l in ls],
        "common_dg": dgs[0] if len(dgs) == 1 else list(dgs),
        "dg_identical": len(dgs) == 1,
        "self_intersections": [self_intersection(r.witness.cls) for r in records],
        "self_intersections_distinct": len(
            {self_intersection(r.witness.cls) for r in records}
        )
        == 3,
        "acm_h_vector_candidates": [list(h) for h in cands],
        "shared_character": list(acm_character(cands[0]).values) if cands else [],
    }
    references = {
        "l_squares": RefValue([-1, -2, -3], "paper"),
        "common_dg": RefValue([19, 27], "derived", "biliaison update at m=3"),
        "dg_identical": RefValue(True, "paper", "same degree, genus, postulation"),
        "self_intersections": RefValue([59, 58, 57], "derived", "L^2 + 6 L.H + 9 deg"),
        "self_intersections_distinct": RefValue(True, "paper"),
        "acm_h_vector_candidates": RefValue([[1, 3, 6, 6, 3]], "derived"),
        "shared_character": RefValue([-1, -2, -3, 0, 3, 3], "derived"),
    }
    return "Example 3.4", computed, references


def _ex3_6():
    scroll = get_surface("cubic_scroll")
    bordiga = get_surface("bordiga_6")
    c_10_9 = DivisorClass.blownup((6, 2))
    c_10_6 = DivisorClass.blownup((6, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1))
    computed = {
        "bound_20_26": hilbert_dim_lower_bound(20, 26),
        "exceeds_biliaison_family": hilbert_dim_lower_bound(20, 26) > 74,
        "scroll_10_9_family_dim": family_dimension(scroll, c_10_9),
        "bound_10_9": hilbert_dim_lower_bound(10, 9),
        "bordiga_10_6_family_dim": family_dimension(bordiga, c_10_6),
        "bound_10_6": hilbert_dim_lower_bound(10, 6),
    }
    references = {
        "bound_20_26": RefValue(75, "paper", "5d + 1 - g"),
        "determinantal_family_dim_upper": RefValue(
            69, "paper", "not recomputed: determinantal family bound"
        ),
        "biliaison_family_dim_upper": RefValue(
            74, "paper", "not recomputed: curves moving on degree-10 surfaces"
        ),
        "exceeds_biliaison_family": RefValue(
            True, "derived", "75 > 74: general member not ascending-reachable"
        ),
        "scroll_10_9_family_dim": RefValue(42, "derived", "18 + dim|C|"),
        "bound_10_9": RefValue(42, "derived", "component bound met with equality"),
        "bordiga_10_6_family_dim": RefValue(45, "derived", "36 + dim|C|"),
        "bound_10_6": RefValue(45, "derived", "component bound met with equality"),
    }
    return "Example 3.6", computed, references


def _prop2_1():
    lengths = {}
    ok = True
    for n in range(1, 31):
        chain = glicci_chain(n, ambient="P2")
        if isinstance(chain, GlicciFailure):
            ok = False
            continue
        lengths[n] = chain.length
    computed = {
        "all_succeed_up_to_30": ok,
        "chain_lengths": [lengths.get(n) for n in range(1, 31)],
    }
    references = {
        "all_succeed_up_to_30": RefValue(
            True, "paper", "every general plane configuration reaches a point"
        ),
        "chain_lengths": RefValue(
            [
                0, 1, 1, 2, 1, 2, 2, 1, 2, 3, 2, 2, 2, 3, 4,
                3, 2, 3, 3, 4, 5, 4, 3, 3, 3, 4, 5, 6, 5, 4,
            ],
            "derived",
            "shortest link counts under default bounds",
        ),
    }
    return "Proposition 2.1", computed, references


def _prop2_2():
    quadric = get_surface("quadric_p3")
    acm_degrees = []
    for c in range(1, 6):
        classes = [
            cls
            for cls in enumerate_classes(quadric, c, min_self=0)
            if abs(cls.coeffs[0] - cls.coeffs[1]) <= 1
            and min(cls.coeffs) >= 0
        ]
        if classes:
            acm_degrees.append(c)
    # degree-level replay: one ascending move m -> m + h*c on a degree-c
    # curve; the ruling line (c = 1, h = n - 1) reaches every n from 1
    chains = {n: [1, {"curve_degree": 1, "height": n - 1}, n] for n in range(1, 31)}
    reachable = all(
        chain[0] + chain[1]["curve_degree"] * chain[1]["height"] == chain[2]
        for chain in chains.values()
    )
    computed = {
        "acm_curve_degrees": acm_degrees,
        "all_reachable_up_to_30": reachable,
        "sample_chain_n7": chains[7],
    }
    references = {
        "acm_curve_degrees": RefValue(
            [1, 2, 3, 4, 5], "derived", "classes (a,b) with |a-b| <= 1"
        ),
        "all_reachable_up_to_30": RefValue(
            True, "paper", "ascending biliaisons on curves lying on the quadric"
        ),
    }
    return "Proposition 2.2", computed, references


def _prop2_3():
    ok = True
    n18 = None
    for n in range(1, 20):
        chain = glicci_chain(n, ambient="P3", surface_degree=3)
        if isinstance(chain, GlicciFailure):
            ok = False
            continue
        if n == 18:
            n18 = chain
    computed = {
        "all_succeed_up_to_19": ok,
        "n18_point_counts": list(n18.counts),
        "n18_link_masses": [w.mass for w in n18.links],
        "n18_intermediates_exceed_18": n18.exceeds_start,
    }
    references = {
        "all_succeed_up_to_19": RefValue(True, "paper", "connected through general points"),
        "paper_intermediate_counts": RefValue(
            [20, 28], "paper", "not recomputed: the route reported in the source"
        ),
        "n18_intermediates_exceed_18": RefValue(
            True, "paper", "one has to link up before linking down"
        ),
    }
    return "Proposition 2.3", computed, references


def _cor2_4():
    full_ok = True
    cubic_ok = True
    for n in range(1, 20):
        if isinstance(glicci_chain(n, ambient="P3", mode="full"), GlicciFailure):
            full_ok = False
        if isinstance(glicci_chain(n, ambient="P3", surface_degree=3), GlicciFailure):
            cubic_ok = False
    computed = {
        "all_glicci_up_to_19": full_ok,
        "all_glicci_on_cubic_up_to_19": cubic_ok,
        "cubic_forms_in_p3": comb(6, 3),
        "max_n_below_cubic_forms": comb(6, 3) - 1,
    }
    references = {
        "all_glicci_up_to_19": RefValue(True, "paper", "n <= 19 general points are glicci"),
        "all_glicci_on_cubic_up_to_19": RefValue(True, "paper"),
        "cubic_forms_in_p3": RefValue(20, "derived", "monomial count C(6,3)"),
        "max_n_below_cubic_forms": RefValue(
            19, "paper", "n <= 19 points lie on a nonsingular cubic"
        ),
    }
    return "Corollary 2.4", computed, references


def acm_candidate_pairs(surface_ids, max_degree=9):
    """(d, g) pairs admitted by the catalog enumeration: some class on an
    allowed surface passes the effectivity and nondegeneracy screens and
    the pair carries an integral-type ACM h-vector."""
    pairs = set()
    for sid in sorted(surface_ids):
        surface = get_surface(sid)
        for d in range(1, max_degree + 1):
            # every test below is constant on an orbit (see surfaces.py)
            for cls in class_representatives(surface, d, min_self=0):
                g = arithmetic_genus(cls, surface)
                if (d, g) in pairs or not acm_h_vector_candidates(d, g):
                    continue
                if not is_effective_candidate(surface, cls):
                    continue
                residual = surface.H - cls
                if residual.is_zero():
                    continue  # the hyperplane section itself is degenerate
                if degree(residual, surface) > 0:
                    # nonspecial estimate of h^0(H - C): > 0 means the class
                    # is plausibly contained in a hyperplane, hence degenerate
                    if expected_dim_linear_system(residual, surface) + 1 > 0:
                        continue
                pairs.add((d, g))
    return sorted(pairs)


def _prop3_1():
    trio = ("cubic_scroll", "del_pezzo_4", "castelnuovo_5")
    admitted = acm_candidate_pairs(trio)
    chains = {}
    ok = True
    for d, g in admitted:
        res = ascending_chain_search((d, g), surfaces=list(trio), max_steps=6)
        if isinstance(res, SearchFailure):
            ok = False
            chains[(d, g)] = None
        else:
            chains[(d, g)] = res.liaison_steps
    bordiga_res = ascending_chain_search(
        (10, 6), surfaces=["cubic_scroll", "del_pezzo_4", "castelnuovo_5", "bordiga_6"],
        max_steps=6,
    )
    computed = {
        "admitted_pairs": [list(p) for p in admitted],
        "all_chains_found": ok,
        "chain_steps": [[d, g, chains[(d, g)]] for d, g in admitted],
        "bordiga_10_6_steps": None
        if isinstance(bordiga_res, SearchFailure)
        else bordiga_res.liaison_steps,
    }
    references = {
        "admitted_pairs": RefValue(
            [[4, 0], [5, 1], [6, 2], [7, 3], [8, 4], [8, 5], [9, 5], [9, 6], [9, 7]],
            "derived",
            "catalog enumeration + integral ACM h-vector test",
        ),
        "all_chains_found": RefValue(
            True, "paper", "ascending chains from a line for every admitted pair"
        ),
        "bordiga_10_6_steps": RefValue(2, "paper", "the (10,6) case uses the degree-6 surface"),
    }
    return "Proposition 3.1", computed, references


def _prop4_1():
    rows = []
    for d in range(2, 9):
        rec = minimal_curve_M_k(d)
        line = CurveRecord.abstract(1, 0, rao=RaoTag.zero())
        plane_part = CurveRecord.abstract(d - 1, (d - 2) * (d - 3) // 2, rao=RaoTag.zero())
        union = disjoint_union(line, plane_part)
        rows.append([d, rec.genus, union.dg == rec.dg, str(rec.rao)])
    computed = {"minimal_curves": rows}
    references = {
        "minimal_curves": RefValue(
            [[d, (d - 2) * (d - 3) // 2 - 1, True, "k@0"] for d in range(2, 9)],
            "paper",
            "line plus a plane curve of degree d-1; module k in degree 0",
        ),
    }
    return "Proposition 4.1", computed, references


def _ex4_2():
    scroll = get_surface("cubic_scroll")
    start = CurveRecord.on_surface(
        scroll, DivisorClass.blownup((2, 2)), rao=RaoTag.simple_k(0)
    )
    result = elementary_biliaison(start, 1)
    computed = {
        "start_dg": start.dg,
        "start_rao": str(start.rao),
        "result_class": result.witness.cls,
        "result_dg": result.dg,
        "result_rao_shift": result.rao.shift,
    }
    references = {
        "start_dg": RefValue([2, -1], "paper", "two skew lines"),
        "start_rao": RefValue("k@0", "paper"),
        "result_class": RefValue("(4;3)", "derived", "class arithmetic on the scroll"),
        "result_dg": RefValue([5, 0], "paper"),
        "result_rao_shift": RefValue(1, "paper", "module k in degree 1"),
    }
    return "Example 4.2", computed, references


def _ex4_3():
    dp = get_surface("del_pezzo_4")
    scroll = get_surface("cubic_scroll")
    general = elementary_biliaison(
        CurveRecord.on_surface(
            dp, DivisorClass.blownup((0, 0, 0, 0, -1, -1)), rao=RaoTag.simple_k(0)
        ),
        1,
    )
    special = elementary_biliaison(
        CurveRecord.on_surface(
            scroll, DivisorClass.blownup((1, -1)), rao=RaoTag.simple_k(0)
        ),
        1,
    )
    general_tri = k_secant_lines(general, 3)
    special_tri = k_secant_lines(special, 3)
    computed = {
        "general_dg": general.dg,
        "general_rao_shift": general.rao.shift,
        "general_trisecants": [(str(c), f) for c, f in general_tri],
        "special_dg": special.dg,
        "special_rao_shift": special.rao.shift,
        "special_trisecant_flags": sorted({f for _, f in special_tri}),
    }
    references = {
        "general_dg": RefValue([6, 1], "paper"),
        "general_rao_shift": RefValue(1, "paper", "module k in degree 1"),
        "general_trisecants": RefValue(
            [["(1;0,0,0,1,1)", "finite"], ["(2;1,1,1,1,1)", "finite"]],
            "paper",
            "exactly two trisecants",
        ),
        "special_dg": RefValue([6, 1], "paper"),
        "special_rao_shift": RefValue(1, "paper"),
        "special_trisecant_flags": RefValue(
            ["one_parameter"], "paper", "infinitely many trisecants"
        ),
    }
    return "Example 4.3", computed, references


def _ex4_4():
    c5 = get_surface("castelnuovo_5")
    dp = get_surface("del_pezzo_4")
    castelnuovo_start = CurveRecord.on_surface(
        c5,
        DivisorClass.blownup((0, 0, -1, -1, 0, 0, 0, 0, 0)),
        rao=RaoTag.simple_k(0),
    )
    del_pezzo_start = CurveRecord.on_surface(
        dp, DivisorClass.blownup((1, 1, 0, 0, 0, -1)), rao=RaoTag.simple_k(0)
    )
    via_castelnuovo = elementary_biliaison(castelnuovo_start, 1)
    via_del_pezzo = elementary_biliaison(del_pezzo_start, 1)
    computed = {
        "castelnuovo_start_degree": castelnuovo_start.degree,
        "castelnuovo_dg": via_castelnuovo.dg,
        "castelnuovo_rao_shift": via_castelnuovo.rao.shift,
        "del_pezzo_start_degree": del_pezzo_start.degree,
        "del_pezzo_dg": via_del_pezzo.dg,
        "del_pezzo_rao_shift": via_del_pezzo.rao.shift,
    }
    references = {
        "castelnuovo_dg": RefValue([7, 2], "paper"),
        "castelnuovo_rao_shift": RefValue(1, "paper"),
        "del_pezzo_dg": RefValue([7, 2], "paper"),
        "del_pezzo_rao_shift": RefValue(1, "paper"),
        "castelnuovo_start_degree": RefValue(2, "paper", "minimal curve of degree 2"),
        "del_pezzo_start_degree": RefValue(3, "paper", "minimal curve of degree 3"),
    }
    return "Example 4.4", computed, references


def _ex4_5():
    scroll = get_surface("cubic_scroll")
    bordiga = get_surface("bordiga_6")
    start = CurveRecord.on_surface(
        scroll, DivisorClass.blownup((2, 2)), rao=RaoTag.simple_k(0)
    )
    res = ascending_chain_search(
        (11, 7), surfaces=["cubic_scroll", "bordiga_6"], starts=[start], max_steps=4
    )
    if isinstance(res, SearchFailure):
        computed = {"steps": None, "search_explored": res.explored}
        return "Example 4.5", computed, _EX4_5_REFS
    final = res.end
    final_cls = final.witness.cls
    computed = {
        "steps": res.liaison_steps,
        "intermediate_dg": res.steps[0].after.dg,
        "final_class": final_cls,
        "final_dg": final.dg,
        "final_rao_shift": final.rao.shift,
        "bordiga_family_dim": family_dimension(bordiga, final_cls),
        "hilbert_bound_11_7": hilbert_dim_lower_bound(11, 7),
        "general_curve_escapes_bordiga": family_dimension(bordiga, final_cls)
        < hilbert_dim_lower_bound(11, 7),
    }
    return "Example 4.5", computed, _EX4_5_REFS


_EX4_5_REFS = {
    "steps": RefValue(2, "paper", "two ascending steps"),
    "intermediate_dg": RefValue([5, 0], "paper", "through the (5,0) curve"),
    "final_dg": RefValue([11, 7], "paper"),
    "final_rao_shift": RefValue(2, "paper", "module k in degree 2"),
    "bordiga_family_dim": RefValue(47, "derived", "36 + dim|C|"),
    "hilbert_bound_11_7": RefValue(49, "derived"),
    "general_curve_escapes_bordiga": RefValue(
        True, "paper", "general curve not on a degree-6 surface"
    ),
}


def _prop4_7():
    twisted_cubic = CurveRecord.abstract(3, 0, rao=RaoTag.zero(), provenance="twisted_cubic")
    a = lesperance_curve("a", 2)
    b = lesperance_curve("b", 2, 2)
    c = lesperance_curve("c", 2, 1)
    d = lesperance_curve("d", 2, acm_curve=twisted_cubic)
    computed = {
        "type_a": [a.degree, a.genus, str(a.rao)],
        "type_b": [b.degree, b.genus, str(b.rao)],
        "type_c_b1_equals_type_a": (c.degree, c.genus, str(c.rao))
        == (a.degree, a.genus, str(a.rao)),
        "type_d": [d.degree, d.genus, str(d.rao)],
    }
    references = {
        "type_a": RefValue([3, -1, "M_2@0"], "paper", "line plus a plane conic"),
        "type_b": RefValue([4, -1, "M_2@0"], "paper", "two plane conics"),
        "type_c_b1_equals_type_a": RefValue(True, "paper", "b = 1 recovers type a"),
        "type_d": RefValue([4, -1, "M_2@0"], "paper", "line plus a twisted cubic"),
    }
    return "Proposition 4.7", computed, references


def _ex4_8():
    two_conics = lesperance_curve("b", 2, 2)
    line_twisted = lesperance_curve(
        "d", 2, acm_curve=CurveRecord.abstract(3, 0, rao=RaoTag.zero())
    )
    computed = {
        "two_conics": [two_conics.degree, two_conics.genus, str(two_conics.rao)],
        "line_plus_twisted_cubic": [
            line_twisted.degree,
            line_twisted.genus,
            str(line_twisted.rao),
        ],
        "same_numerics": two_conics.dg == line_twisted.dg
        and two_conics.rao == line_twisted.rao,
        "distinct_constructions": two_conics.provenance != line_twisted.provenance,
    }
    references = {
        "two_conics": RefValue([4, -1, "M_2@0"], "paper"),
        "line_plus_twisted_cubic": RefValue([4, -1, "M_2@0"], "paper"),
        "same_numerics": RefValue(True, "paper", "both minimal with module M_2"),
        "distinct_constructions": RefValue(True, "paper", "two irreducible families"),
    }
    return "Example 4.8", computed, references


def _ex4_10():
    dp = get_surface("del_pezzo_4")
    conic = DivisorClass.blownup((1, 1, 0, 0, 0, 0))
    c1 = CurveRecord.on_surface(
        dp, DivisorClass.blownup((2, 2, 0, 0, 0, 0)), rao=RaoTag.m_a(2)
    )
    c2 = CurveRecord.on_surface(
        dp, DivisorClass.blownup((1, 0, 0, 0, 0, -1)), rao=RaoTag.m_a(2)
    )
    d1 = elementary_biliaison(c1, 1)
    d2 = elementary_biliaison(c2, 1)
    pi = DivisorClass.blownup((2, 0, 1, 1, 1, 1))
    computed = {
        "conic_self": self_intersection(conic),
        "two_disjoint_conics": intersect(conic, conic) == 0,
        "c1_class": c1.witness.cls,
        "c2_class": c2.witness.cls,
        "d1_class": d1.witness.cls,
        "d2_class": d2.witness.cls,
        "d1_dg": d1.dg,
        "d2_dg": d2.dg,
        "d1_self": self_intersection(d1.witness.cls),
        "d2_self": self_intersection(d2.witness.cls),
        "d1_profile": multisecant_profile(d1).compact(),
        "d2_profile": multisecant_profile(d2).compact(),
        "d1_quadrisecants": [(str(c), f) for c, f in k_secant_lines(d1, 4)],
        "d2_quadrisecants": [(str(c), f) for c, f in k_secant_lines(d2, 4)],
        "d1_trisecant_count": len(k_secant_lines(d1, 3)),
        "d1_conic_plane": intersect(d1.witness.cls, pi),
        "d2_conic_plane": intersect(d2.witness.cls, pi),
        "d1_pencil_bound": plane_pencil_bound(d1, pi),
        "d2_pencil_bound": plane_pencil_bound(d2, pi),
        "d1_rao": str(d1.rao),
        "d2_rao": str(d2.rao),
        "family_dim_d1": family_dimension(dp, d1.witness.cls),
        "hilbert_bound_8_3": hilbert_dim_lower_bound(8, 3),
        "general_curve_escapes_del_pezzo": family_dimension(dp, d1.witness.cls)
        < hilbert_dim_lower_bound(8, 3),
    }
    references = {
        "conic_self": RefValue(0, "derived", "conic moves in a pencil"),
        "two_disjoint_conics": RefValue(True, "paper", "two such are disjoint"),
        "d1_class": RefValue("(5;3,1,1,1,1)", "paper"),
        "d2_class": RefValue("(4;1,1,1,1,0)", "paper"),
        "d1_dg": RefValue([8, 3], "paper"),
        "d2_dg": RefValue([8, 3], "paper"),
        "d1_self": RefValue(12, "paper"),
        "d2_self": RefValue(12, "paper"),
        "d1_profile": RefValue("1^8,3^8", "paper"),
        "d2_profile": RefValue("0,1^4,2^6,3^4,4", "paper"),
        "d1_quadrisecants": RefValue([], "paper", "no quadrisecant"),
        "d2_quadrisecants": RefValue(
            [["(2;1,1,1,1,1)", "finite"]], "paper", "a quadrisecant line"
        ),
        "d1_conic_plane": RefValue(6, "paper"),
        "d2_conic_plane": RefValue(5, "paper"),
        "d1_pencil_bound": RefValue(2, "paper", "hyperelliptic"),
        "d2_pencil_bound": RefValue(3, "paper", "gonality 3"),
        "d1_rao": RefValue("M_2@1", "paper", "module M_2 after one ascending step"),
        "d2_rao": RefValue("M_2@1", "paper"),
        "family_dim_d1": RefValue(36, "derived", "26 + dim|C|"),
        "hilbert_bound_8_3": RefValue(38, "derived"),
        "general_curve_escapes_del_pezzo": RefValue(
            True, "paper", "general (8,3) curve does not lie on this surface"
        ),
    }
    return "Example 4.10", computed, references


REGISTRY = {
    "prop2.1": _prop2_1,
    "prop2.2": _prop2_2,
    "prop2.3": _prop2_3,
    "cor2.4": _cor2_4,
    "prop3.1": _prop3_1,
    "ex3.2": _ex3_2,
    "ex3.4": _ex3_4,
    "ex3.6": _ex3_6,
    "prop4.1": _prop4_1,
    "ex4.2": _ex4_2,
    "ex4.3": _ex4_3,
    "ex4.4": _ex4_4,
    "ex4.5": _ex4_5,
    "prop4.7": _prop4_7,
    "ex4.8": _ex4_8,
    "ex4.10": _ex4_10,
}


def experiment_ids() -> tuple[str, ...]:
    return tuple(REGISTRY)


def run_experiment(experiment_id: str) -> ExperimentReport:
    """Run one registered experiment, time it with ``time.perf_counter``
    and compare its values against its references.  Each registered
    function returns ``(anchor, computed, references)``.
    """
    if experiment_id not in REGISTRY:
        raise InvalidInvocationError(
            f"unknown experiment {experiment_id!r}; registered ids: "
            + ", ".join(REGISTRY)
        )
    started = time.perf_counter()
    anchor, computed, references = REGISTRY[experiment_id]()
    runtime = time.perf_counter() - started
    computed = {k: _jnorm(v) for k, v in computed.items()}
    matches = {}
    for key, ref in references.items():
        if key in computed:
            matches[key] = computed[key] == ref.value
        else:
            matches[key] = None  # display-only reference
    return ExperimentReport(
        experiment_id=experiment_id,
        anchor=anchor,
        computed=computed,
        references=references,
        matches=matches,
        runtime_seconds=round(runtime, 6),
    )


def divisor_eval(surface_id: str, coeffs, catalog_path: str | None = None) -> dict:
    """One-shot calculator: degree, genus, self-intersection, dimension
    estimate, and the multisecant profile where lines are enumerable."""
    surface = get_surface(surface_id, catalog_path)
    cls = DivisorClass(surface.basis, tuple(coeffs))
    record = CurveRecord.on_surface(surface, cls)
    out = {
        "surface": surface.id,
        "class": str(cls),
        "degree": record.degree,
        "genus": record.genus,
        "self_intersection": self_intersection(cls),
        "expected_dim_linear_system": expected_dim_linear_system(cls, surface),
    }
    if surface.basis == "blownup_plane":
        out["profile"] = multisecant_profile(record).compact()
    else:
        out["profile"] = None
    return out
