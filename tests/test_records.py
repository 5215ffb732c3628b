"""Value semantics of the 16 records.

A frozen record equals a copy built from its fields, hashes like the tuple of
its fields in field order (so it has no hash when a field, such as a
``Poly``, has none) and refuses assignment; ``CurveIncidenceGraph``
holds dicts and has no hash.  Every other record compares by value and has
no hash.  ``ModificationSpec`` leaves its built ``center_ideal`` out of
equality, hashing and repr, and every repr names the class.  A record holds
its slots and no instance dict, and importing the command line imports no
``dataclasses``.  A record that only stores its fields has no constructor of
its own: ``Record``'s takes the fields by position or by name and refuses a
missing, unknown, repeated or surplus one with a TypeError naming the class.
"""
from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from realforms.classification import (
    ClassificationResult,
    CurveIncidenceGraph,
    IsoWitness,
    classify,
    incidence_graph,
)
from realforms.groebner import Ideal
from realforms.intersection import (
    DivisorClass,
    EnumerationResult,
    NegativeCurveRecord,
    enumerate_negative_classes,
)
from realforms.modification import ModificationSpec, ReesPresentation, standard_modification
from realforms.reports import CertifiedReport, CheckItem, SuiteEntry, SuiteReport
from realforms.surfaces import (
    Center,
    PointConfiguration,
    RealStructure,
    SurfacePresentation,
    make_surface,
    standard_conjugation,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Each record's fields in order, and one field with a changed value that its
# checks at construction still accept.
FIELDS = {
    IsoWitness: ("matrix", "scalar", "matching", "matching_labels"),
    DivisorClass: ("degree", "mults"),
    NegativeCurveRecord: ("label", "cls", "kind", "form", "through", "avoids"),
    ModificationSpec: ("table", "base_vars", "generators", "divisor"),
    SurfacePresentation: ("table", "ideal", "alpha", "beta"),
    RealStructure: ("surface", "map"),
    Center: ("x", "y"),
    PointConfiguration: ("table", "centers", "removed", "units"),
    CurveIncidenceGraph: ("labels", "weights", "real_action", "center_rows"),
    ClassificationResult: ("alpha", "beta", "witnesses", "outcomes", "d_max"),
    EnumerationResult: ("config", "records", "line_at_infinity", "candidates_scanned",
                        "unrealized", "undetermined", "d_max"),
    ReesPresentation: ("table", "ideal", "scale_vars"),
    CheckItem: ("claim_id", "status", "witness"),
    CertifiedReport: ("check_id", "items"),
    SuiteEntry: ("check_id", "status", "witness", "elapsed_ms"),
    SuiteReport: ("version", "entries"),
}
FIELD_HASHED = (IsoWitness, DivisorClass, NegativeCurveRecord, ModificationSpec,
            SurfacePresentation, RealStructure, Center, PointConfiguration)
FROZEN = FIELD_HASHED + (CurveIncidenceGraph,)
MUTABLE = (ClassificationResult, EnumerationResult, ReesPresentation, CheckItem,
           CertifiedReport, SuiteEntry, SuiteReport)


def _examples() -> dict:
    """One record of each class, and (field, other value) for each."""
    surface = make_surface(2, 3)
    enumeration = enumerate_negative_classes(2)
    config = enumeration.config
    result = classify(2, Fraction(1, 2))
    spec = standard_modification(2)
    graph = incidence_graph(2)
    item = CheckItem("claim", "pass", {"n": 1})
    relabeled = SurfacePresentation(surface.table, surface.ideal, Fraction(5), surface.beta)
    return {
        IsoWitness: (result.witness, "scalar", result.witness.scalar + 1),
        DivisorClass: (DivisorClass(1, (1, 1, 0, 0, 0)), "degree", 2),
        NegativeCurveRecord: (enumeration.records[0], "label", "E(other)"),
        ModificationSpec: (spec, "base_vars", ("y", "x")),
        SurfacePresentation: (surface, "alpha", Fraction(5)),
        RealStructure: (standard_conjugation(surface), "surface", relabeled),
        Center: (config.centers[1], "x", config.centers[1].x + 1),
        PointConfiguration: (config, "removed", ()),
        CurveIncidenceGraph: (graph, "real_action", tuple(range(graph.size()))),
        ClassificationResult: (result, "d_max", result.d_max + 1),
        EnumerationResult: (enumeration, "candidates_scanned", -1),
        ReesPresentation: (ReesPresentation(spec.table, spec.center_ideal, ("T1",)),
                           "scale_vars", ("T2",)),
        CheckItem: (item, "status", "fail"),
        CertifiedReport: (CertifiedReport("lem-3.5", [item]), "items", []),
        SuiteEntry: (SuiteEntry("lem-3.5", "pass", None, 3), "elapsed_ms", 4),
        SuiteReport: (SuiteReport("0.1", [SuiteEntry("lem-3.5", "pass", None, 3)]),
                      "entries", []),
    }


@pytest.fixture(scope="module")
def examples():
    return _examples()


def _copy(record, **changes):
    cls = type(record)
    return cls(**{f: changes.get(f, getattr(record, f)) for f in FIELDS[cls]})


def _hash(value):
    """hash(value), or TypeError when a field has no hash (a Poly has none)."""
    try:
        return hash(value)
    except TypeError as exc:
        return TypeError, str(exc)


def test_the_classes_split_into_frozen_and_mutable():
    assert set(FROZEN) | set(MUTABLE) == set(FIELDS) and len(FIELDS) == 16
    assert not set(FROZEN) & set(MUTABLE)
    hashed = [DivisorClass(1, (1, 1, 0, 0, 0)), make_surface(2, 3)]
    assert len({*hashed, *hashed}) == 2


@pytest.mark.parametrize("cls", FIELD_HASHED, ids=lambda c: c.__name__)
def test_a_frozen_record_equals_and_hashes_like_a_copy(examples, cls):
    record, field, other = examples[cls]
    copy = _copy(record)
    assert copy is not record and copy == record and not copy != record
    assert _hash(copy) == _hash(record) == _hash(tuple(getattr(record, f) for f in FIELDS[cls]))
    changed = _copy(record, **{field: other})
    assert changed != record and not changed == record
    assert record != tuple(getattr(record, f) for f in FIELDS[cls])


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_a_frozen_record_refuses_assignment(examples, cls):
    record, field, other = examples[cls]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_copy_and_pickle_rebuild_a_record(examples, cls):
    record = examples[cls][0]
    shallow = copy.copy(record)
    assert shallow == record and shallow is not record
    assert all(getattr(shallow, f) is getattr(record, f) for f in FIELDS[cls])
    # an Ideal compares by identity, so a deep copy is compared by its repr
    for rebuilt in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(rebuilt) is cls and repr(rebuilt) == repr(record)


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_a_mutable_record_compares_by_value_and_has_no_hash(examples, cls):
    record, field, other = examples[cls]
    copy = _copy(record)
    assert copy is not record and copy == record
    assert _copy(record, **{field: other}) != record
    with pytest.raises(TypeError):
        hash(record)
    setattr(copy, field, other)
    assert getattr(copy, field) == other and copy != record


def test_the_incidence_graph_compares_by_value_and_has_no_hash(examples):
    graph, field, other = examples[CurveIncidenceGraph]
    assert _copy(graph) == graph and _copy(graph, **{field: other}) != graph
    with pytest.raises(TypeError):
        hash(graph)


def test_modification_spec_equality_ignores_its_center_ideal(examples):
    spec = examples[ModificationSpec][0]
    copy = _copy(spec)
    assert copy.center_ideal is not spec.center_ideal
    assert copy.center_ideal.generators == spec.center_ideal.generators
    object.__setattr__(copy, "center_ideal", Ideal([spec.divisor], spec.table))
    assert copy == spec and _hash(copy) == _hash(spec)
    assert "center_ideal" not in repr(spec)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_repr_names_the_class_and_its_fields(examples, cls):
    text = repr(examples[cls][0])
    assert text.startswith(f"{cls.__name__}({FIELDS[cls][0]}=")
    positions = [text.find(f"{f}=") for f in FIELDS[cls]]
    assert -1 not in positions and positions == sorted(positions)


def test_repr_of_small_records():
    assert repr(DivisorClass(1, (1, 1, 0, 0, 0))) == "DivisorClass(degree=1, mults=(1, 1, 0, 0, 0))"
    assert repr(CheckItem("c", "pass")) == "CheckItem(claim_id='c', status='pass', witness=None)"


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_a_record_holds_its_slots_only(examples, cls):
    record = examples[cls][0]
    assert not hasattr(record, "__dict__")
    assert set(FIELDS[cls]) <= set(cls.__slots__)


def test_importing_the_cli_imports_no_dataclasses():
    # a fresh interpreter, since pytest itself imports inspect and ast
    code = ("import realforms.cli, sys; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert done.stdout.strip() == "[]"


def test_defaults_are_fresh_per_record():
    assert CheckItem("c", "pass").witness is None
    first, second = CertifiedReport("x"), CertifiedReport("x")
    assert first.items == [] and first.items is not second.items
    assert SuiteReport("v").entries == [] and SuiteReport("v").entries is not SuiteReport("v").entries


# the records that only store their fields build through Record's constructor
STORE_ONLY = (IsoWitness, CurveIncidenceGraph, NegativeCurveRecord, SurfacePresentation, Center,
              EnumerationResult, ReesPresentation, SuiteEntry)


def test_store_only_records_have_no_constructor_of_their_own():
    assert all("__init__" not in cls.__dict__ for cls in STORE_ONLY)


@pytest.mark.parametrize("cls", (Center, SuiteEntry), ids=lambda c: c.__name__)
def test_the_shared_constructor_takes_fields_by_position_and_by_name(cls):
    values = tuple(f"value of {f}" for f in FIELDS[cls])
    named = dict(zip(FIELDS[cls], values))
    by_position, by_name = cls(*values), cls(**named)
    mixed = cls(values[0], **{f: named[f] for f in reversed(FIELDS[cls][1:])})
    for record in (by_position, by_name, mixed):
        assert tuple(getattr(record, f) for f in FIELDS[cls]) == values
    assert by_position == by_name == mixed


@pytest.mark.parametrize("cls", (Center, SuiteEntry), ids=lambda c: c.__name__)
def test_the_shared_constructor_refuses_a_wrong_field(cls):
    fields = FIELDS[cls]
    values = tuple(range(len(fields)))
    wrong = {
        "missing": (values[:-1], {}),
        "missing by name": ((), dict(zip(fields[1:], values[1:]))),
        "unknown": (values, {"other": 0}),
        "unknown in place of one": (values[:-1], {"other": 0}),
        "repeated": (values, {fields[0]: 0}),
        "surplus": (values + (0,), {}),
    }
    for args, named in wrong.values():
        with pytest.raises(TypeError, match=rf"^{cls.__name__} takes the fields "):
            cls(*args, **named)
