"""Value semantics of the package's 16 record classes: equality by class
and fields, hash of the fields, the ``Name(field=value, ...)`` repr,
refused assignment and deletion, and pickle and deepcopy round trips."""

import copy
import pickle

import pytest

from liaisonkit.curves import CurveRecord, RaoTag, SecantProfile, Witness, multisecant_profile
from liaisonkit.errors import FrozenRecordError, Record, _set
from liaisonkit.experiments import ExperimentReport, RefValue, run_experiment
from liaisonkit.glicci import PointChain, glicci_chain
from liaisonkit.hvectors import HVector, PostulationCharacter
from liaisonkit.lattice import DivisorClass
from liaisonkit.liaison import BILIAISON, Chain, ChainStep, ascending_chain_search, elementary_biliaison
from liaisonkit.search import SearchFailure
from liaisonkit.surfaces import LineClassSet, ScreenRows, SurfaceModel, get_surface, lines_on, screen_rows

SCROLL = get_surface("cubic_scroll")
CONIC = CurveRecord.on_surface(SCROLL, DivisorClass.blownup((1, 0)))
STEP = ChainStep(BILIAISON, CONIC, elementary_biliaison(CONIC, 1), h=1)

# One instance of each record class, and its fields in constructor order.
SAMPLES = [
    (DivisorClass.blownup((2, 1)), "basis coeffs"),
    (HVector((1, 3, 2, 0)), "entries ambient_codim"),
    (PostulationCharacter((-1, -1, 2), 3), "values degree"),
    (SCROLL, "id ambient basis blown_points H K degree sectional_genus family_dim "
             "special_position_notes"),
    (lines_on(SCROLL), "classes family_flags"),
    (screen_rows(SCROLL), "H K lines form hh hk kk line_k line_invariants"),
    (RaoTag.m_a(2, shift=1), "kind a shift dualized"),
    (Witness(SCROLL, DivisorClass.blownup((1, 0))), "surface cls"),
    (CONIC, "degree genus witness rao"),
    (multisecant_profile(CONIC), "entries"),
    (SearchFailure((10, 99), 7, (1, 6), {"max_steps": 4}), "target explored frontier_sizes bounds"),
    (STEP, "kind before after h m"),
    (ascending_chain_search((5, 1)), "steps ascending_only"),
    (glicci_chain(4), "states links"),
    (RefValue((1, 2), "paper", "a note"), "value provenance note"),
    (run_experiment("ex4.2"), "experiment_id anchor computed references runtime_seconds "
                              "schema_version"),
]
CLASSES = [
    DivisorClass, HVector, PostulationCharacter, SurfaceModel, LineClassSet, ScreenRows,
    RaoTag, Witness, CurveRecord, SecantProfile, SearchFailure, ChainStep, Chain, PointChain,
    RefValue, ExperimentReport,
]

records = pytest.mark.parametrize(
    "record, fields",
    [(r, f.split()) for r, f in SAMPLES],
    ids=[type(r).__name__ for r, _ in SAMPLES],
)


def _values(record, fields):
    return [getattr(record, name) for name in fields]


def test_samples_cover_every_record_class():
    assert [type(r) for r, _ in SAMPLES] == CLASSES


@records
def test_a_record_is_slotted_and_its_fields_are_its_slots(record, fields):
    assert isinstance(record, Record)
    assert not hasattr(record, "__dict__")
    assert list(type(record).__slots__) == fields


@records
def test_equal_fields_give_equal_records_and_hashes(record, fields):
    by_position = type(record)(*_values(record, fields))
    by_keyword = type(record)(**dict(zip(fields, _values(record, fields))))
    assert by_position == record == by_keyword
    assert by_position is not record
    assert not by_position != record
    try:
        want = hash(tuple(_values(record, fields)))
    except TypeError:  # a dict or list field: the record is unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(by_position) == hash(record) == want


@records
def test_another_class_with_equal_fields_compares_unequal(record, fields):
    twin_class = type(type(record).__name__, (Record,), {"__slots__": tuple(fields)})
    twin = object.__new__(twin_class)
    for name in fields:
        _set(twin, name, getattr(record, name))
    assert twin != record and record != twin
    assert record.__eq__(twin) is NotImplemented
    assert record != tuple(_values(record, fields))
    others = [r for r, _ in SAMPLES if r is not record]
    assert all(record != other for other in others)


@records
def test_repr_names_the_class_and_each_field(record, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, _values(record, fields)))
    assert repr(record) == f"{type(record).__qualname__}({shown})"


def test_repr_examples():
    assert repr(DivisorClass.blownup((2, 1))) == "DivisorClass(basis='blownup_plane', coeffs=(2, 1))"
    assert repr(HVector((1, 3, 2, 0))) == "HVector(entries=(1, 3, 2), ambient_codim=3)"
    assert repr(RaoTag.zero()) == "RaoTag(kind='zero', a=None, shift=0, dualized=False)"
    assert repr(SearchFailure((10, 99), 7)) == (
        "SearchFailure(target=(10, 99), explored=7, frontier_sizes=(), bounds={})"
    )


@records
def test_fields_cannot_be_assigned_or_deleted(record, fields):
    for name in [*fields, "other"]:
        with pytest.raises(FrozenRecordError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)


@records
def test_pickle_and_deepcopy_round_trip(record, fields):
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)


def test_search_failure_bounds_default_to_a_new_dict():
    a, b = SearchFailure((10, 99), 7), SearchFailure((10, 99), 7)
    assert a.bounds == {} and a.bounds is not b.bounds


def test_divisor_classes_order_like_their_fields():
    b, q = DivisorClass.blownup, DivisorClass.quadric
    classes = [b((2, 1)), q((1, 0)), b((1, 1)), b((1, 0, 0)), q((0, 3))]
    keys = sorted((c.basis, c.coeffs) for c in classes)
    assert [(c.basis, c.coeffs) for c in sorted(classes)] == keys
    assert b((1, 1)) < b((2, 1)) <= b((2, 1)) and b((2, 1)) > b((1, 1)) >= b((1, 1))
    with pytest.raises(TypeError):
        b((1, 1)) < (1, 1)
