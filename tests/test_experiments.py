"""Every registered experiment reproduces its references, its report
survives a JSON round trip, and its JSON matches the frozen
``experiment run all --format json`` output of the benchmark oracle.
Reports derive their matches from the rows an experiment returns."""

import json
from pathlib import Path

import pytest

from liaisonkit import experiments
from liaisonkit.curves import CurveRecord, RaoTag, lesperance_curve, lesperance_parts
from liaisonkit.experiments import (
    NOT_RECOMPUTED,
    REGISTRY,
    ExperimentReport,
    RefValue,
    _component_degrees,
    run_experiment,
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
