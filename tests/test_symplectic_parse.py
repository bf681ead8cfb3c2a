"""The symplectic block's rows: one pass per row, the per-entry loop on a bad row.

A row is read in one pass (a type test or a lookup of already-parsed literal
text per entry) and only a row holding an entry that pass cannot take is read
entry by entry, with JSON paths.  The exit-64 lines are pinned, and a
hypothesis test compares every outcome with the per-entry loops kept in
``oracle_document``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_document
import pytest
from strata.cli import main
from strata.document import parse_document
from strata.errors import DocumentParseError

FIXTURE = Path(__file__).parent.parent / "fixtures" / "minimal_stratum_parallel.json"
BASE = json.loads(FIXTURE.read_text())
LONG = "1" * 5000


def _edit(where: tuple, value):
    doc = copy.deepcopy(BASE)
    target = doc["symplectic"]
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    return doc


@pytest.mark.parametrize(
    "where, value, line",
    [
        (("J", 1, 2), True, "parse error at $.symplectic.J[1][2]: expected integer"),
        (("J", 3, 3), 0.5, "parse error at $.symplectic.J[3][3]: expected integer, got float"),
        # A bad text among texts new to the load, then among texts seen before.
        (
            ("iota", 0),
            ["3/3", "0/5", "1/x", *["0/7"] * 6],
            "parse error at $.symplectic.iota[0][2]: malformed rational literal '1/x'",
        ),
        (("iota", 3, 5), "2//3", "parse error at $.symplectic.iota[3][5]: malformed rational literal '2//3'"),
        (("iota", 5, 8), "", "parse error at $.symplectic.iota[5][8]: empty gaussian literal"),
        (("u_lambda", "e2", 1), [1], "parse error at $.symplectic.u_lambda.e2[1]: expected gaussian literal, got list"),
        (
            ("u_lambda", "e3", 4),
            None,
            "parse error at $.symplectic.u_lambda.e3[4]: expected gaussian literal, got NoneType",
        ),
        (("iota", 2, 7), LONG, f"parse error at $.symplectic.iota[2][7]: malformed rational literal '{LONG}'"),
    ],
    ids=["J-bool", "J-float", "iota-new-text", "iota-seen-texts", "iota-empty", "u-list", "u-null", "iota-long"],
)
def test_bad_entries_exit_64_with_their_path(tmp_path, capsys, where, value, line):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_edit(where, value)))
    assert main(["validate", str(path)]) == 64
    assert capsys.readouterr().out == line + "\n"


def test_a_repeated_text_in_the_bad_row_is_read_as_before():
    doc = _edit(("iota", 4, 0), "1/1")  # new text, then repeats of "0" and "1"
    doc["symplectic"]["iota"][4][1] = "1/1"
    doc["symplectic"]["iota"][4][2] = 7
    rows = parse_document(doc).raw_symplectic.iota
    assert [str(x) for x in rows[4][:3]] == ["1", "1", "7"]
    assert rows[4][0] is rows[4][1]  # one value per distinct text in a load


def _outcome(parse):
    try:
        return parse()
    except DocumentParseError as exc:
        return ("error", str(exc))


GOOD = ["0", "1", "-1", "1/2", "2+i", "1/1", " 1 ", "i"]
BAD = ["", "1/x", "2//3", "+", "1e99999999", LONG]
ENTRY = st.one_of(
    st.sampled_from(GOOD),
    st.sampled_from(BAD),
    st.integers(-3, 3),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.none(),
    st.just([1]),
    st.just({"x": 1}),
)
INTS = st.one_of(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), ENTRY)
ROW = st.one_of(st.lists(ENTRY, max_size=5), st.sampled_from(["0", 3, None]))


@settings(max_examples=300, deadline=None)
@given(
    j=st.one_of(st.lists(st.one_of(st.lists(INTS, max_size=5), st.just("row")), max_size=4), st.just({})),
    iota=st.lists(ROW, max_size=4),
    u_lambda=st.dictionaries(st.sampled_from(["e1", "e2", "e3", "x"]), ROW, max_size=3),
)
def test_rows_parse_as_the_per_entry_loops_do(j, iota, u_lambda):
    ydata = {"J": j, "iota": iota, "u_lambda": u_lambda, "minimal": True}
    doc = copy.deepcopy(BASE)
    doc["symplectic"] = ydata

    def fast():
        raw = parse_document(doc).raw_symplectic
        return raw.j_matrix, raw.iota, raw.u_lambda

    expected = _outcome(lambda: oracle_document.parse_symplectic_rows(ydata, "$.symplectic", {}))
    assert _outcome(fast) == expected
