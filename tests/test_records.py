"""The library's records: immutable, hashable by value, and printed as before.

Records are ``typing.NamedTuple`` classes, which are far cheaper to create at
import than dataclasses.
"""

from __future__ import annotations

import json

import pytest

from strata import aim, deformation, document, equations, errors, homology, level_graph, plumbing
from strata.deformation import RowOutcome
from strata.document import DeformationSpec
from strata.errors import Violation
from strata.level_graph import Edge, Undegeneration

MODULES = (aim, deformation, document, equations, errors, homology, level_graph, plumbing)

RECORDS = sorted(
    (
        cls
        for module in MODULES
        for name, cls in vars(module).items()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and hasattr(cls, "_fields")
        and not name.startswith("_")
    ),
    key=lambda cls: cls.__name__,
)

EXPECTED = {
    "Analytic", "BasisElement", "Binomial", "ConsistencyCertificate", "CrossWitnessResult",
    "CylinderClass", "DecomposeResult", "DeformationReport", "DeformationSpec", "Edge",
    "HurwitzCertificate", "LatticeReport", "LemmaBoundReport", "LocalModel",
    "Marking", "PassageTable", "RawSymplectic",
    "RowOutcome", "SmoothingWitness", "SubspaceReport", "UndegClassification",
    "Undegeneration", "Vertex", "Violation",
}


def _instance(cls):
    return cls(*range(1, len(cls._fields) + 1))


def test_every_record_is_found():
    assert {cls.__name__ for cls in RECORDS} == EXPECTED


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment(cls):
    record = _instance(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.not_a_field = 0


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_records_hash_equally(cls):
    a, b = _instance(cls), _instance(cls)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: "kept"}[b] == "kept"


def test_undegenerations_built_either_way_share_a_key():
    made = Undegeneration.make([-1, -2], ["h2", "h1"])
    direct = Undegeneration((-2, -1), ("h1", "h2"))
    assert made == direct and hash(made) == hash(direct)
    assert {made: 1}[direct] == 1


def test_edge_defaults():
    edge = Edge("e1", ("a", "b"))
    assert edge.top is None and edge.kappa is None
    assert edge == Edge("e1", ("a", "b"), None, None)
    assert Edge("v", ("a", "b"), top="a", kappa=2).kappa == 2


def test_violation_prints_as_before():
    violation = Violation("vertex v0", "genus", "negative genus -1")
    assert str(violation) == "vertex v0: genus: negative genus -1"
    assert repr(violation) == (
        "Violation(subject='vertex v0', rule='genus', detail='negative genus -1')"
    )
    assert f"{violation}" == str(violation)


def test_index_fields_read_the_field():
    assert RowOutcome(3, "preserved", "0", "").index == 3


def test_a_positive_stretch_is_a_record(fixture_dir):
    doc = document.parse_document(json.loads((fixture_dir / "parallel_cylinders.json").read_text()))
    [spec] = doc.deformation_requests()
    assert spec == DeformationSpec("e1", (2, 1), (1, 1))
    assert (spec.class_edge, spec.r, spec.s) == ("e1", (2, 1), (1, 1))
    assert repr(spec) == "DeformationSpec(class_edge='e1', r=(2, 1), s=(1, 1))"
