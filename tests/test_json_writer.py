"""The CLI's JSON writer against ``json.dumps``, the call it replaced.

``--json`` output is ``json.dumps(report, sort_keys=True, indent=2,
default=cycle_to_json)`` byte for byte; the writer takes only the types a
report holds and raises TypeError on anything else.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from strata import cli
from strata.cli import main
from strata.document import cycle_to_json, load_document
from strata.gaussian import GaussianRational
from strata.homology import Cycle

FIXTURES = Path(__file__).parent.parent / "fixtures"
BASIS = load_document(str(FIXTURES / "minimal_stratum_parallel.json")).basis


class Pair(NamedTuple):
    first: object
    second: object


TRICKY = ["", '"', "\\", "\x00\x1f\x7f", "é ü ∞ \U0001d11e", "  ", "\ud800", 'a"b\\c\n\t\r/']

texts = st.text() | st.sampled_from(TRICKY)
gaussians = st.builds(
    lambda a, b, d: GaussianRational(a, b) / d, st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12)
)
cycles = st.builds(
    lambda coeffs, lam: Cycle(BASIS, coeffs, lam),
    st.dictionaries(st.sampled_from(BASIS.names), gaussians),
    st.dictionaries(st.sampled_from(["e1", "e2", "e3"]), gaussians),
)
leaves = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**30, max_value=10**60).map(lambda n: -n)
    | texts | cycles
)
values = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.builds(Pair, children, children)
        | st.dictionaries(texts, children, max_size=4)
    ),
    max_leaves=24,
)


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, default=cycle_to_json)


@seed(18)
@settings(max_examples=400, deadline=None)
@given(values)
def test_the_writer_matches_json_dumps(value):
    assert cli._json_text(value) == _dumps(value)


@pytest.mark.parametrize(
    "value",
    [1.5, {1, 2}, object(), GaussianRational(1, 2), b"x", [1, [2, 0.5]], {"a": {"b": frozenset()}}, {1: "x"}],
    ids=["float", "set", "object", "gaussian", "bytes", "nested-float", "nested-frozenset", "int-key"],
)
def test_the_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_analyze_json_makes_no_json_dumps_call(monkeypatch, capsys):
    path = str(FIXTURES / "double_cover_relation.json")
    code = main(["analyze", path, "--json"])
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert main(["analyze", path, "--json"]) == code
    assert capsys.readouterr().out == expected
