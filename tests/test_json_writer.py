"""The CLI's JSON writer against ``json.dumps``, the call it replaced.

``--json`` output is ``json.dumps(report, sort_keys=True, indent=2,
default=cycle_to_json)`` byte for byte; the writer takes only the types a
report holds and raises TypeError on anything else.  An undegeneration row is
an ``UndegClassification`` written from one key template; its oracle is the
seven-key dict ``analyze`` built per row before, through ``json.dumps``, and
the text line that was rendered from that dict.
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
from strata.equations import classify_undegeneration
from strata.gaussian import GaussianRational
from strata.homology import Cycle
from strata.level_graph import enumerate_undegenerations
from support import cylinders_system, random_graph, random_system, rng, write_cylinders_document

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


# -- undegeneration rows ------------------------------------------------------------


def _dict_row(row) -> dict:
    """The seven-key dict ``analyze`` built for each table row before rows were records."""
    und = row.undegeneration
    return {
        "passages": und.kept_passages, "horizontal": und.kept_horizontal,
        "lost": row.lost, "codim": row.codim_in_total, "divisorial": row.divisorial,
        "branch": row.branch, "ordering_caveat": row.ordering_caveat,
    }


def _dict_row_text(row) -> str:
    """``cli._undegeneration_text`` as it read that dict."""
    passages, horizontal = row["passages"], row["horizontal"]
    text = (
        f"  passages={{{','.join([str(i) for i in passages])}}}"
        f" horizontal={{{','.join(horizontal)}}} L'={len(passages)} H'={len(horizontal)}"
        f" lost={row['lost']} codim={row['codim']}"
    )
    if row["divisorial"]:
        text += f" divisorial[{row['branch']}]"
    if row["ordering_caveat"]:
        text += " (non-adapted remap)"
    return text


def _tables():
    systems = [load_document(str(path)).system() for path in sorted(FIXTURES.glob("*.json"))]
    systems += [cylinders_system(g) for g in range(2, 13)]
    r = rng(1901)
    for _ in range(80):
        graph = random_graph(r, max_depth=3, max_horizontal=3)
        systems.append(random_system(graph, r, rank=r.randint(0, 4), real=r.random() < 0.5))
    assert {system.graph.depth for system in systems} == {0, 1, 2, 3}
    for system in systems:
        yield [classify_undegeneration(system, u) for u in enumerate_undegenerations(system.graph)]


def test_rows_match_json_dumps_of_the_seven_key_dict():
    kinds = set()
    for rows in _tables():
        dicts = [_dict_row(row) for row in rows]
        assert cli._json_text({"undegenerations": rows}) == _dumps({"undegenerations": dicts})
        for row, old in zip(rows, dicts):
            assert cli._json_text(row) == _dumps(old)
            assert cli._undegeneration_text(row) == _dict_row_text(old)
            kinds.add((old["branch"], old["ordering_caveat"], bool(old["passages"]), bool(old["horizontal"])))
    assert {branch for branch, *_ in kinds} == {None, "vertical", "horizontal", "theorem-violating"}
    assert {caveat for _, caveat, *_ in kinds} == {False, True}


def test_analyze_json_writes_the_table_without_a_call_per_row(monkeypatch, capsys, tmp_path):
    path = write_cylinders_document(tmp_path / "g9.json", 9)
    assert main(["analyze", path, "--json"]) == 0
    expected = capsys.readouterr().out
    calls = []
    original = cli._json_text

    def counting(value, newline="\n"):
        calls.append(1)
        return original(value, newline)

    monkeypatch.setattr(cli, "_json_text", counting)
    assert main(["analyze", path, "--json"]) == 0
    assert capsys.readouterr().out == expected
    assert expected.count('"ordering_caveat"') == 2**9
    assert 0 < len(calls) < 2**9
