"""Equations and relations are parsed straight into their cycles.

Each literal is written into its basis column as it is read, and a name the
basis lacks is reported as a reference violation instead.  Every outcome,
parse error text, cycles and violations, is compared with the two-pass parse
kept in ``oracle_document``: name-keyed dicts first, checked against the
basis and the edges afterwards.  STRATA_SEED picks the hypothesis draws.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracle_document
from strata.document import parse_document
from strata.errors import DocumentParseError
from strata.homology import Cycle

from support import SEED, bench_pool_documents

FIXTURES = Path(__file__).parent.parent / "fixtures"
BASE = json.loads((FIXTURES / "minimal_stratum_parallel.json").read_text())


def _two_pass(raw: dict):
    """Vectors of the equations and relations, and their reference violations, read in two passes."""
    system = raw["system"]
    seen: dict = {}
    parsed = [
        (f"equation {k}", oracle_document.parse_equation(item, f"$.system.equations[{k}]", seen))
        for k, item in enumerate(system.get("equations", []))
    ]
    parsed += [
        (f"relation {k}", oracle_document.parse_equation(item, f"$.system.relations[{k}]", seen))
        for k, item in enumerate(system.get("relations", []))
    ]
    basis = parse_document({**raw, "system": {}}).basis
    names = set(basis.names)
    edges = {e.id for e in basis.graph.edges}
    vectors, violations = [], []
    for subject, (coeffs, lam) in parsed:
        known = Cycle(
            basis,
            {name: c for name, c in coeffs.items() if name in names},
            {eid: c for eid, c in lam.items() if eid in edges},
        )
        vectors.append(known.vector)
        violations += oracle_document.check_carriers(coeffs, lam, subject, names, edges)
    return vectors, violations


def _one_pass(raw: dict):
    doc = parse_document(raw)
    cycles = [*doc.raw_equations, *doc.relations]
    assert all(c.basis is doc.basis for c in cycles)
    return [c.vector for c in cycles], doc._reference_violations()


def _outcome(parse, raw):
    try:
        return parse(raw)
    except DocumentParseError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fixtures_parse_as_the_two_pass_oracle_does(path):
    raw = json.loads(path.read_text())
    vectors, violations = _one_pass(raw)
    assert (vectors, violations) == _two_pass(raw) and not violations


def test_bench_pool_documents_parse_as_the_two_pass_oracle_does():
    for raw in bench_pool_documents():
        vectors, violations = _one_pass(raw)
        assert (vectors, violations) == _two_pass(raw) and not violations


def test_the_system_holds_the_parsed_cycles():
    doc = parse_document(copy.deepcopy(BASE))
    system = doc.system()
    assert len(system.equations) == 4 and len(system.relations) == 3
    assert all(a is b for a, b in zip(system.equations, doc.raw_equations))
    assert all(a is b for a, b in zip(system.relations, doc.relations))
    assert system.ratios is doc.ratios


NAMES = st.sampled_from(["d1", "d2", "a3", "e1", "e3", "zz", "x", ""])
ZEROS = ["0", "0/5", "-0", "0+0i", 0]
GOOD = ["1", "-1", "1/2", "2+i", "i", " 3 ", 2]
BAD = ["", "1/x", "2//3", "+", "1e99999999", 1.5, None, True, [1], {"x": 1}]
LITERAL = st.sampled_from(ZEROS + GOOD)


def _mostly(usual, rare, one_in: int):
    """``rare`` about once in ``one_in`` draws, else ``usual``: most blocks parse,
    so cycles and violations are compared about as often as error texts."""
    pick = st.tuples(st.sampled_from(range(one_in)), usual, rare)
    return pick.map(lambda t: t[2] if t[0] == one_in - 1 else t[1])


TABLE = _mostly(
    st.dictionaries(NAMES, _mostly(LITERAL, st.sampled_from(BAD), 16), max_size=4),
    st.sampled_from([None, [], "coeffs", 3]),
    20,
)
ITEM = _mostly(
    st.fixed_dictionaries({}, optional={"coeffs": TABLE, "lambda": TABLE}),
    st.sampled_from([None, 3, "eq", [], [{"coeffs": {}}]]),
    20,
)
BLOCK = st.lists(ITEM, max_size=4)


@seed(SEED + 2323)
@settings(max_examples=400, deadline=None)
@given(equations=BLOCK, relations=BLOCK)
def test_blocks_parse_as_the_two_pass_oracle_does(equations, relations):
    raw = copy.deepcopy(BASE)
    raw["system"]["equations"] = equations
    raw["system"]["relations"] = relations
    assert _outcome(_one_pass, raw) == _outcome(_two_pass, raw)
