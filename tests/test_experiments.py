"""Every registered experiment reproduces its references, its report
survives a JSON round trip, and its JSON matches the frozen
``experiment run all --format json`` output of the benchmark oracle.
Reports derive their matches from the rows an experiment returns.
Admission of (d, g) pairs agrees with the genus-free floor-list scan."""

import itertools
import json
from pathlib import Path

import pytest

from liaisonkit import cli, experiments
from liaisonkit.curves import CurveRecord, RaoTag, lesperance_curve, lesperance_parts
from liaisonkit.experiments import (
    NOT_RECOMPUTED,
    REGISTRY,
    ExperimentReport,
    RefValue,
    _component_degrees,
    acm_candidate_pairs,
    run_experiment,
)
from liaisonkit.hvectors import acm_h_vector_candidates
from liaisonkit.lattice import arithmetic_genus, degree, expected_dim_linear_system
from liaisonkit.search import SearchFailure
from liaisonkit.surfaces import (
    class_representatives,
    get_surface,
    is_effective_candidate,
    load_catalog,
)

# the reports of `experiment run all --format json`, runtime_seconds lines removed
ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle" / "reproduce.txt"


@pytest.fixture(scope="module")
def frozen_reports():
    decoder = json.JSONDecoder()
    text = ORACLE.read_text(encoding="utf-8")
    reports, pos = {}, 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        report, pos = decoder.raw_decode(text, pos)
        reports[report["experiment_id"]] = report
    return reports


@pytest.mark.parametrize("experiment_id", list(REGISTRY))
def test_experiment_matches_and_round_trips(experiment_id, frozen_reports):
    report = run_experiment(experiment_id)
    assert report.all_match, {k: v for k, v in report.matches.items() if v is False}
    assert report.runtime_seconds >= 0
    data = json.loads(json.dumps(report.to_dict()))
    assert ExperimentReport.from_dict(data) == report
    del data["runtime_seconds"]
    assert data == frozen_reports[experiment_id]


def test_report_derives_matches_from_rows(monkeypatch):
    def fake():
        return "Fake 0.0", {
            "agrees": ((1, 2), RefValue([1, 2], "paper")),
            "disagrees": (None, RefValue(2, "derived", "a failed search")),
            "display_only": (NOT_RECOMPUTED, RefValue(69, "paper", "not recomputed")),
            "shown": (7, None),
        }

    monkeypatch.setattr(experiments, "REGISTRY", {"fake": fake})
    report = run_experiment("fake")
    assert report.computed == {"agrees": [1, 2], "disagrees": None, "shown": 7}
    assert set(report.references) == {"agrees", "disagrees", "display_only"}
    assert report.matches == {"agrees": True, "disagrees": False, "display_only": None}
    assert not report.all_match
    data = json.loads(json.dumps(report.to_dict()))
    assert data["matches"] == report.matches
    # a stored match that contradicts the stored values is not believed
    data["matches"]["disagrees"] = True
    restored = ExperimentReport.from_dict(data)
    assert restored == report
    assert restored.matches["disagrees"] is False


def test_prop2_3_reports_a_missing_n18_chain_as_a_mismatch(monkeypatch, capsys):
    real = experiments.glicci_chain

    def no_n18(n, **kwargs):
        return SearchFailure(target=n, explored=0) if n == 18 else real(n, **kwargs)

    monkeypatch.setattr(experiments, "glicci_chain", no_n18)
    code = cli.main(["experiment", "run", "prop2.3", "--format", "json"])
    assert code == cli.EXIT_MISMATCH
    report = json.loads(capsys.readouterr().out)
    n18_rows = ("n18_point_counts", "n18_link_masses", "n18_intermediates_exceed_18")
    assert [report["computed"][k] for k in n18_rows] == [None, None, None]
    assert report["matches"]["n18_intermediates_exceed_18"] is False
    assert report["matches"]["all_succeed_up_to_19"] is False


def test_ex4_8_separates_the_constructions_by_component_degrees():
    cubic = CurveRecord.abstract(3, 0, rao=RaoTag.zero())
    # the two records are equal, so only their parts can tell them apart
    assert lesperance_curve("b", 2, 2) == lesperance_curve("d", 2, acm_curve=cubic)
    two_conics = _component_degrees(lesperance_parts("b", 2, 2))
    line_cubic = _component_degrees(lesperance_parts("d", 2, acm_curve=cubic))
    assert (two_conics, line_cubic) == ((2, 2), (1, 3))
    # the invariant compares constructions, not calls: b(2, 2) is one family
    assert _component_degrees(lesperance_parts("b", 2, 2)) == two_conics
    assert run_experiment("ex4.8").computed["distinct_constructions"] is True


def _floor_list_pairs(sid, max_degree):
    """Oracle: admission on one surface by the floor-list scan, which lists
    every C^2 >= 0 representative of every degree and genus and computes
    each one's genus before the h-vector and screen tests."""
    surface = get_surface(sid)
    pairs = set()
    for d in range(1, max_degree + 1):
        for cls in class_representatives(surface, d, min_self=0):
            g = arithmetic_genus(cls, surface)
            if (d, g) in pairs or not acm_h_vector_candidates(d, g):
                continue
            if not is_effective_candidate(surface, cls):
                continue
            residual = surface.H - cls
            if residual.is_zero():
                continue
            if degree(residual, surface) > 0:
                if expected_dim_linear_system(residual, surface) + 1 > 0:
                    continue
            pairs.add((d, g))
    return pairs


def test_admission_equals_the_floor_list_scan(frozen_reports):
    """A pair is admitted when some surface of the set has a witness, so
    the oracle of a set is the union of its surfaces' scans."""
    ids = list(load_catalog())
    p4 = ("cubic_scroll", "del_pezzo_4", "castelnuovo_5", "bordiga_6")
    for max_degree in (9, 12):
        single = {sid: _floor_list_pairs(sid, max_degree) for sid in ids}
        subsets = [(sid,) for sid in ids] + list(itertools.combinations(ids, 2)) + [p4]
        for subset in subsets:
            expected = sorted(set().union(*(single[sid] for sid in subset)))
            assert acm_candidate_pairs(subset, max_degree) == expected, (subset, max_degree)
    trio = ("cubic_scroll", "del_pezzo_4", "castelnuovo_5")
    frozen = frozen_reports["prop3.1"]["computed"]["admitted_pairs"]
    assert [list(p) for p in acm_candidate_pairs(trio, 9)] == frozen
    assert len(frozen) == 9
    assert len(acm_candidate_pairs(p4, 12)) == 23
    assert len(acm_candidate_pairs(p4, 14)) == 35
