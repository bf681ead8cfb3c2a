import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from strata.cli import main
from strata.document import load_document, parse_document
from strata.errors import DocumentParseError

FIXTURES = Path(__file__).parent.parent / "fixtures"


def run_cli(*argv) -> tuple[int, str]:
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def test_all_fixtures_validate():
    for path in sorted(FIXTURES.glob("*.json")):
        code, output = run_cli("validate", str(path))
        assert code == 0, output


def test_the_readme_schema_example_validates(tmp_path):
    readme = (FIXTURES.parent / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    example = tmp_path / "example.json"
    example.write_text("\n".join([line.split("//", 1)[0] for line in block.splitlines()]))
    for command in ("validate", "analyze", "plumb", "aim"):
        code, output = run_cli(command, str(example))
        assert code == 0, (command, output)
    sections = {"schema", "graph", "basis", "system", "symplectic", "periods", "deformations"}
    assert set(json.loads(example.read_text())) == sections


def test_schema_version_required(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope", "graph": {}, "basis": [], "system": {}}))
    code, output = run_cli("validate", str(bad))
    assert code == 64
    assert "schema" in output


def test_malformed_gaussian_is_parse_error(tmp_path):
    doc = json.loads((FIXTURES / "three_node_pinch.json").read_text())
    doc["system"]["equations"][0]["coeffs"]["d1"] = "1//2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, output = run_cli("validate", str(bad))
    assert code == 64
    assert "coeffs.d1" in output


def test_invalid_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    code, output = run_cli("validate", str(bad))
    assert code == 64
    assert ":2:" in output
    assert output.count(f"{bad}:2:") == 1


def test_missing_vertex_is_violation(tmp_path):
    doc = json.loads((FIXTURES / "three_node_pinch.json").read_text())
    doc["graph"]["edges"][0]["ends"] = ["u", "ghost"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, output = run_cli("validate", str(bad))
    assert code == 1
    assert "ghost" in output


def test_unknown_top_vertex_is_orientation_violation(tmp_path):
    doc = json.loads((FIXTURES / "intro_two_level.json").read_text())
    doc["graph"]["edges"][0]["top"] = "nosuch"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, output = run_cli("validate", str(bad))
    assert code == 1
    assert "orientation" in output


def test_non_array_deformations_is_parse_error(tmp_path):
    doc = json.loads((FIXTURES / "intro_two_level.json").read_text())
    doc["deformations"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DocumentParseError) as raised:
        parse_document(doc)
    assert raised.value.position == "$.deformations"
    code, output = run_cli("validate", str(bad))
    assert code == 64
    assert output == "parse error at $.deformations: expected array, got int\n"


@pytest.mark.parametrize("provenance", [7, None, ["declared"], {"by": "hand"}])
def test_non_string_provenance_is_parse_error(tmp_path, provenance):
    doc = json.loads((FIXTURES / "minimal_stratum_parallel.json").read_text())
    doc["system"]["relations"][1]["provenance"] = provenance
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, output = run_cli("validate", str(bad))
    assert code == 64
    assert output.startswith("parse error at $.system.relations[1].provenance: expected string, got ")
    assert output.count("\n") == 1


def test_provenance_is_free_text(tmp_path):
    doc = json.loads((FIXTURES / "minimal_stratum_parallel.json").read_text())
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps(doc))
    del doc["system"]["relations"][0]["provenance"]
    doc["system"]["relations"][1]["provenance"] = "read off the cover, by hand"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    for command in ("validate", "analyze"):
        assert run_cli(command, str(edited)) == run_cli(command, str(reference))


@pytest.mark.parametrize("where", ["top", "graph"])
def test_deeply_nested_json_is_parse_error(tmp_path, where):
    deep = "[" * 100000 + "]" * 100000
    text = deep if where == "top" else '{"schema": "sbv-1", "graph": ' + deep + "}"
    bad = tmp_path / "deep.json"
    bad.write_text(text)
    code, output = run_cli("validate", str(bad))
    assert code == 64
    assert output == f"parse error at {bad}: arrays or objects nested too deeply\n"


def test_unknown_basis_reference_is_violation(tmp_path):
    doc = json.loads((FIXTURES / "three_node_pinch.json").read_text())
    doc["system"]["equations"][0]["coeffs"]["zz"] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, output = run_cli("validate", str(bad))
    assert code == 1
    assert "zz" in output


UNKNOWN_NAMES = [
    "equation 0: references: unknown basis element b0",
    "equation 0: references: unknown basis element zz",
    "equation 1: references: unknown edge e0",
    "equation 1: references: unknown edge x9",
    "relation 0: references: unknown basis element q",
    "relation 0: references: unknown edge w",
    "ratio e1~n1: references: unknown edge n1",
    "nonvanishing n2: references: unknown edge",
]


def test_unknown_names_are_reported_in_document_order(tmp_path):
    doc = json.loads((FIXTURES / "parallel_cylinders.json").read_text())
    system = doc["system"]
    system["equations"][0]["coeffs"].update({"zz": "1", "b0": "2"})
    system["equations"][1]["lambda"].update({"x9": "1", "e0": "0"})
    system["relations"] = [{"coeffs": {"q": "1"}, "lambda": {"w": "1", "e1": "1"}}]
    system["ratios"] = [{"e": "e1", "e'": "n1", "q": "2"}]
    system["nonvanishing"] = ["n2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, output = run_cli("validate", str(bad))
    assert code == 1
    assert output == "\n".join([f"violations: {len(UNKNOWN_NAMES)}"] + [f"  {p}" for p in UNKNOWN_NAMES]) + "\n"
    code, output = run_cli("validate", str(bad), "--json")
    assert code == 1
    assert json.loads(output) == {"command": "validate", "violations": UNKNOWN_NAMES}


def test_a_deep_level_gap_is_reported_without_a_set_of_every_level(tmp_path):
    import tracemalloc

    doc = json.loads((FIXTURES / "parallel_cylinders.json").read_text())
    doc["graph"]["vertices"].append({"id": "deep", "genus": 0, "level": -10**12})
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, output = run_cli("validate", str(bad))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert output.splitlines() == [
        "violations: 3",
        "  graph: levels: level map is not surjective onto {0,...,-1000000000000}: levels used [-1000000000000, 0]",
        "  vertex deep: order-balance: orders sum to 0, expected -2",
        "  graph: connected: graph is disconnected",
    ]
    assert peak < 2**20  # the set of every level would take terabytes


@pytest.mark.parametrize("flags", [(), ("--json",)])
@pytest.mark.parametrize("command", ["analyze", "plumb", "deform", "aim"])
def test_invalid_document_is_refused_before_the_command_runs(tmp_path, command, flags):
    doc = json.loads((FIXTURES / "minimal_stratum_parallel.json").read_text())
    doc["system"]["equations"][0]["coeffs"]["zz"] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    problems = [str(v) for v in load_document(str(bad)).violations()]
    assert problems and any("zz" in p for p in problems)
    code, output = run_cli(command, str(bad), *flags)
    assert code == 1
    if flags:
        assert json.loads(output) == {"command": command, "violations": problems}
    else:
        assert output.splitlines() == ["invalid document:"] + [f"  {p}" for p in problems]


def test_analyze_exit_codes():
    code, output = run_cli("analyze", str(FIXTURES / "intro_two_level.json"))
    assert code == 2
    assert "R2" in output and "lambda[e] = 0" in output
    code, output = run_cli("analyze", str(FIXTURES / "three_node_pinch.json"))
    assert code == 0
    assert "lambda[e1] ~ lambda[e2]" in output


def test_analyze_empty_system(tmp_path):
    doc = json.loads((FIXTURES / "three_node_pinch.json").read_text())
    doc["system"]["equations"] = []
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(doc))
    code, output = run_cli("analyze", str(empty))
    assert code == 0
    assert "CONSISTENT" in output


def test_plumb_exit_codes(tmp_path):
    code, output = run_cli("plumb", str(FIXTURES / "parallel_cylinders.json"))
    assert code == 0
    assert "exp(f1)*s[e1] - s[e2] = 0" in output
    doc = json.loads((FIXTURES / "parallel_cylinders.json").read_text())
    doc["system"]["equations"] = [doc["system"]["equations"][0]]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc))
    code, output = run_cli("plumb", str(missing))
    assert code == 3
    assert "required relation" in output


def test_deform_exit_codes(tmp_path):
    code, output = run_cli("deform", str(FIXTURES / "parallel_cylinders.json"))
    assert code == 0
    assert "preserved" in output
    doc = json.loads((FIXTURES / "parallel_cylinders.json").read_text())
    doc["periods"]["basis"]["d2"] = "1+2i"
    doc["periods"]["lambda"]["e2"] = "2"  # still satisfies nothing about d2
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, output = run_cli("deform", str(broken))
    assert code == 4
    assert "not-covered" in output or "hypothesis" in output


def test_deform_without_periods(tmp_path):
    doc = json.loads((FIXTURES / "three_node_pinch.json").read_text())
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc))
    code, output = run_cli("deform", str(plain))
    assert code == 1


def test_self_ratio_of_one_validates_with_periods(tmp_path):
    doc = json.loads((FIXTURES / "parallel_cylinders.json").read_text())
    doc["system"]["ratios"] = [{"e": "e1", "e'": "e1", "q": "1"}]
    path = tmp_path / "self_ratio.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", str(path)) == (
        0, "ok: graph, basis, system, and attached data satisfy all invariants\n"
    )
    doc["system"]["ratios"][0]["q"] = "2"
    path.write_text(json.dumps(doc))
    code, output = run_cli("validate", str(path))
    assert code == 1 and "ratio e1~e1: ratio-consistency: self-ratio differs from 1" in output


RATIO_CONFLICTS = {
    "chain": (
        [("e1", "e2", "2"), ("e2", "e3", "3"), ("e1", "e3", "5")],
        "ratio e2~e3: ratio-consistency: chain gives 1/6, declared closure gives 1/5",
    ),
    "declared-twice": (
        [("e1", "e2", "2"), ("e1", "e2", "3")],
        "ratio e1~e2: ratio-consistency: chain gives 1/3, declared closure gives 1/2",
    ),
    # The chain's ratio over a negative q: the sign is printed on the numerator.
    "negative": (
        [("e1", "e2", "2"), ("e2", "e3", "-3"), ("e1", "e3", "5")],
        "ratio e2~e3: ratio-consistency: chain gives -1/6, declared closure gives 1/5",
    ),
}


@pytest.mark.parametrize("case", sorted(RATIO_CONFLICTS))
def test_a_conflicting_ratio_is_reported_once_as_declared(tmp_path, case):
    entries, violation = RATIO_CONFLICTS[case]
    doc = json.loads((FIXTURES / "three_node_pinch.json").read_text())
    doc["system"]["ratios"] = [{"e": e, "e'": ep, "q": q} for e, ep, q in entries]
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", str(path)) == (1, f"violations: 1\n  {violation}\n")
    payload = {"command": "validate", "violations": [violation]}
    assert run_cli("validate", str(path), "--json") == (1, json.dumps(payload, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_values_past_the_digit_limit_end_in_one_error_line(tmp_path, flags):
    doc = json.loads((FIXTURES / "intro_two_level.json").read_text())
    doc["system"]["equations"][0]["coeffs"] = {"g1": "1e2500", "g2": "-3e-2500"}
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(doc))
    limit = sys.get_int_max_str_digits()
    assert run_cli("analyze", str(path), *flags) == (
        1, f"error: a computed value needs more than {limit} digits to print\n"
    )


def test_aim_paths():
    code, output = run_cli("aim", str(FIXTURES / "minimal_stratum_parallel.json"))
    assert code == 0
    assert "symplectic" in output and "bound satisfied" in output
    code, output = run_cli(
        "aim", str(FIXTURES / "minimal_stratum_parallel.json"), "--pairwise-cross", "e1", "e3"
    )
    assert code == 0 and "pairwise witness" in output
    code, output = run_cli("aim", str(FIXTURES / "triple_node_cover.json"), "--pairwise-cross", "e1", "e2")
    assert code == 1 and "minimal stratum required" in output
    code, output = run_cli("aim", str(FIXTURES / "three_node_pinch.json"))
    assert code == 1 and "symplectic block" in output
    code, output = run_cli(
        "aim", str(FIXTURES / "minimal_stratum_parallel.json"), "--decompose", "0"
    )
    assert code == 0 and "at-most-two-nodes" in output
    code, output = run_cli(
        "aim", str(FIXTURES / "minimal_stratum_parallel.json"), "--decompose", "2"
    )
    assert code == 0 and "pairwise-circumference" in output
    code, output = run_cli(
        "aim", str(FIXTURES / "minimal_stratum_parallel.json"), "--decompose", "9"
    )
    assert code == 1 and "out of range" in output


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_aim_decompose_honours_limit(fmt):
    path = str(FIXTURES / "minimal_stratum_parallel.json")
    code, output = run_cli("aim", path, "--decompose", "0", "--limit", "2", *fmt)
    assert code == 1
    assert output.splitlines() == ["error: 3 horizontal edges exceed the search limit 2"]
    code, output = run_cli("aim", path, "--decompose", "0", "--limit", "3", *fmt)
    assert code == 0


def _cylinders_variant(tmp_path, edit) -> str:
    doc = json.loads((FIXTURES / "parallel_cylinders.json").read_text())
    edit(doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _cut_to_first_equation(doc):
    doc["system"]["equations"] = doc["system"]["equations"][:1]


def _complex_coefficients(doc):
    doc["system"]["flags"]["real"] = False


def _two_bad_self_ratios(doc):
    doc["system"]["ratios"] = [{"e": "e1", "e'": "e1", "q": "2"}, {"e": "e2", "e'": "e2", "q": "3"}]


def _approximate_past_float(key):
    def edit(doc):
        doc["periods"]["mode"] = "approximate"
        doc["deformations"][0][key] = "1e400"
    return edit


def _approximate_with(block, entry):
    """Approximate mode, and ``entry`` added to the system's ``block``."""
    def edit(doc):
        doc["periods"]["mode"] = "approximate"
        doc["system"][block].append(entry)
    return edit


def _sheared_past_float(doc):
    """d1 - d2 vanishes exactly, but shearing Im = 1e10 by s = 1e300 moves d1 past the float range."""
    doc["periods"]["mode"] = "approximate"
    doc["periods"]["basis"].update(d1=[1, 1e10], d2=[1, 1e10])
    doc["deformations"][0]["s"] = "1e300"


PAST_FLOAT_ROW = {"coeffs": {"a1": "1", "a2": "1e400"}, "lambda": {}}
# Holds exactly at a1 = a2, but 1e308 times a1 = 2 is past the float range.
TERM_PAST_FLOAT_ROW = {"coeffs": {"a1": "1e308", "a2": "-1e308"}, "lambda": {}}


def _row_with_terms_past_float(doc):
    """a1 + 1e308 a2 - 1e308 lambda[e1] vanishes exactly at a1 = 0 and a2 =
    lambda[e1] = 2, but its last two terms are each past the float range."""
    doc["periods"]["mode"] = "approximate"
    doc["periods"]["basis"]["a1"] = "0"
    doc["system"]["equations"].append({"coeffs": {"a1": "1", "a2": "1e308"}, "lambda": {"e1": "-1e308"}})


SELF_RATIO = "ratio-consistency: self-ratio differs from 1"
PAST_FLOAT = "is past the float range of approximate mode"
SUM_PAST_FLOAT = "takes the sum past the float range of approximate mode"
OBSTRUCTION = "row 0: no relation links the period over e2 to the one over e1"
REFUSALS = {
    "plumb-obstruction": (
        "plumb", _cut_to_first_equation, 3,
        f"conversion obstruction: {OBSTRUCTION}\n  required relation: lambda[e2] ~ lambda[e1]\n",
        {"command": "plumb", "missing": "lambda[e2] ~ lambda[e1]", "obstruction": OBSTRUCTION},
    ),
    "deform-complex": (
        "deform", _complex_coefficients, 4,
        "hypothesis violation: cylinder deformation requires real coefficients\n",
        {"command": "deform", "error": "cylinder deformation requires real coefficients"},
    ),
    "deform-r-past-float": (
        "deform", _approximate_past_float("r"), 4,
        f"hypothesis violation: stretch factor r {PAST_FLOAT}\n",
        {"command": "deform", "error": f"stretch factor r {PAST_FLOAT}"},
    ),
    "deform-s-past-float": (
        "deform", _approximate_past_float("s"), 4,
        f"hypothesis violation: shear s {PAST_FLOAT}\n",
        {"command": "deform", "error": f"shear s {PAST_FLOAT}"},
    ),
    "deform-coefficient-past-float": (
        "deform", _approximate_with("equations", PAST_FLOAT_ROW), 4,
        f"hypothesis violation: the coefficient of a2 {PAST_FLOAT}\n",
        {"command": "deform", "error": f"the coefficient of a2 {PAST_FLOAT}"},
    ),
    "deform-term-past-float": (
        "deform", _row_with_terms_past_float, 4,
        f"hypothesis violation: the term of a2 {SUM_PAST_FLOAT}\n",
        {"command": "deform", "error": f"the term of a2 {SUM_PAST_FLOAT}"},
    ),
    "deform-moved-period-past-float": (
        "deform", _sheared_past_float, 4,
        f"hypothesis violation: the moved period of d1 {PAST_FLOAT}\n",
        {"command": "deform", "error": f"the moved period of d1 {PAST_FLOAT}"},
    ),
    "validate-violations": (
        "validate", _two_bad_self_ratios, 1,
        f"violations: 2\n  ratio e1~e1: {SELF_RATIO}\n  ratio e2~e2: {SELF_RATIO}\n",
        {"command": "validate", "violations": [f"ratio e1~e1: {SELF_RATIO}", f"ratio e2~e2: {SELF_RATIO}"]},
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_print_their_pinned_output(tmp_path, case):
    command, edit, code, text, payload = REFUSALS[case]
    path = _cylinders_variant(tmp_path, edit)
    assert run_cli(command, path) == (code, text)
    assert run_cli(command, path, "--json") == (code, json.dumps(payload, sort_keys=True, indent=2) + "\n")


GATE_PAST_FLOAT = {
    "relation": (
        "relations", PAST_FLOAT_ROW, f"relation 0: relations-hold: the coefficient of a2 {PAST_FLOAT}",
    ),
    "ratio": (
        "ratios", {"e": "e1", "e'": "e2", "q": "1e400"},
        f"ratio e1~e2: ratios-hold: the coefficient of lambda[e2] {PAST_FLOAT}",
    ),
    "relation-term": (
        "relations", TERM_PAST_FLOAT_ROW, f"relation 0: relations-hold: the term of a1 {SUM_PAST_FLOAT}",
    ),
}


@pytest.mark.parametrize("command", ["validate", "analyze", "plumb", "deform", "aim"])
@pytest.mark.parametrize("case", sorted(GATE_PAST_FLOAT))
def test_the_periods_gate_reports_a_coefficient_past_the_float_range(tmp_path, case, command):
    block, entry, violation = GATE_PAST_FLOAT[case]
    path = _cylinders_variant(tmp_path, _approximate_with(block, entry))
    heading = "violations: 1" if command == "validate" else "invalid document:"
    assert run_cli(command, path) == (1, f"{heading}\n  {violation}\n")
    payload = {"command": command, "violations": [violation]}
    assert run_cli(command, path, "--json") == (1, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def test_an_exact_stretch_past_the_float_range_is_still_checked(tmp_path):
    path = _cylinders_variant(tmp_path, lambda doc: doc["deformations"][0].update(r="1e400"))
    code, output = run_cli("deform", path)
    assert (code, output.splitlines()[1:]) == (
        0, ["  row 0: preserved, residual 0", "  row 1: preserved, residual 0", "deformation: preserved"]
    )
    assert output.startswith(f"class {{e1, e2}} under r={10 ** 400}, s=1:")


def _nearly_real_periods(doc):
    doc["periods"]["mode"] = "approximate"
    doc["periods"]["basis"].update(d1=[1, 8e-10], d2=[1, 0])
    doc["deformations"][0]["s"] = "100"


def test_an_unexpected_residual_comes_from_approximate_tolerance(tmp_path):
    """Row 0 vanishes at the base point within 1e-9, and so does its remainder's
    imaginary part; shearing by s = 100 scales the leftover past the tolerance."""
    path = _cylinders_variant(tmp_path, _nearly_real_periods)
    residual = "(7.999999995789153e-08+1.6e-09j)"
    assert run_cli("deform", path) == (4, "\n".join([
        "class {e1, e2} under r=2, s=100:",
        f"  row 0: residual-nonzero, residual {residual} (unexpected residual)",
        "  row 1: preserved, residual 0j",
        "deformation: hypothesis-violation",
    ]) + "\n")
    rows = [
        {"note": "unexpected residual", "residual": residual, "row": 0, "status": "residual-nonzero"},
        {"note": "", "residual": "0j", "row": 1, "status": "preserved"},
    ]
    payload = {
        "command": "deform",
        "reports": [{"class": ["e1", "e2"], "preserved": False, "r": "2", "rows": rows, "s": "100"}],
        "verdict": "hypothesis-violation",
    }
    assert run_cli("deform", path, "--json") == (4, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    # In exact mode the same periods leave row 0 not covered: it does not vanish.
    def exact_periods(doc):
        _nearly_real_periods(doc)
        doc["periods"] = dict(doc["periods"], mode="exact")
        doc["periods"]["basis"].update(d1="1+8e-10 i", d2="1")

    code, output = run_cli("deform", _cylinders_variant(tmp_path, exact_periods))
    assert code == 4
    assert output.splitlines()[1] == (
        "  row 0: not-covered, residual 1/12500000+1/625000000*i (row does not vanish at the base point)"
    )


def test_json_output_renders_no_text(monkeypatch):
    from strata.plumbing import Binomial

    path = str(FIXTURES / "parallel_cylinders.json")
    expected = run_cli("plumb", path, "--json")
    calls = []
    original = Binomial.render
    monkeypatch.setattr(Binomial, "render", lambda self: calls.append(self) or original(self))
    assert run_cli("plumb", path, "--json") == expected
    assert calls == []
    assert "exp(f1)*s[e1] - s[e2] = 0" in run_cli("plumb", path)[1]
    assert len(calls) == 1  # rendered once for the table, reused under its block


def test_decompose_out_of_range_prints_its_pinned_output():
    path = str(FIXTURES / "minimal_stratum_parallel.json")
    assert run_cli("aim", path, "--decompose", "99") == (
        1, "aim error: row index 99 out of range (rank 4)\n"
    )
    assert run_cli("aim", path, "--decompose", "99", "--json") == (
        1, '{\n  "command": "aim",\n  "error": "row index 99 out of range (rank 4)"\n}\n'
    )


def _two_vertical_document():
    return {
        "schema": "sbv-1",
        "graph": {
            "vertices": [
                {"id": "top", "genus": 1, "level": 0},
                {"id": "bottom", "genus": 1, "level": -1},
            ],
            "edges": [
                {"id": "v1", "ends": ["top", "bottom"], "top": "top", "kappa": 1},
                {"id": "v2", "ends": ["top", "bottom"], "top": "top", "kappa": 1},
            ],
            "markings": [{"vertex": "top", "order": 0}, {"vertex": "bottom", "order": 4}],
        },
        "basis": [
            {"name": "g1", "level": 0, "kind": "noncrossing", "edge": None, "pairings": {"v1": 1, "v2": -1}},
            {"name": "g2", "level": 0, "kind": "noncrossing", "edge": None, "pairings": {"v1": 1, "v2": 1}},
        ],
        "system": {
            "equations": [
                {"coeffs": {"g1": "1"}, "lambda": {}},
                {"coeffs": {"g2": "1"}, "lambda": {}},
            ],
            "ratios": [],
            "relations": [],
            "flags": {"real": True, "minimal_stratum": False},
            "nonvanishing": ["v1", "v2"],
        },
    }


def test_assume_theorems_chains_residue_relations(tmp_path):
    doc = _two_vertical_document()
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    # Without the flag each residue form stays multi-term: consistent.
    code, output = run_cli("analyze", str(path))
    assert code == 0, output
    # With the flag the first residue relation reduces the second to a single
    # nonvanishing period, which is a contradiction.
    code, output = run_cli("analyze", str(path), "--assume-theorems")
    assert code == 2
    assert "R2" in output


def test_analyze_limit_skips_table(tmp_path):
    code, output = run_cli(
        "analyze", str(FIXTURES / "double_cover_relation.json"), "--limit", "3"
    )
    assert code == 0
    assert "skipped" in output and "passages=" not in output


@pytest.mark.parametrize("command", ["validate", "deform"])
@pytest.mark.parametrize(
    "value",
    ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, '"1e400"', "[1, NaN]", "[0, -Infinity]", "[1e400, 0]"],
)
def test_non_finite_approximate_periods_are_parse_errors(tmp_path, command, value):
    data = json.loads((FIXTURES / "parallel_cylinders.json").read_text())
    data["periods"]["mode"] = "approximate"
    data["periods"]["lambda"]["e1"] = "VALUE"
    path = tmp_path / "periods.json"
    path.write_text(json.dumps(data).replace('"VALUE"', value))
    assert run_cli(command, str(path)) == (64, "parse error at $.periods.lambda.e1: expected a finite number\n")


def test_console_script_installed():
    import shutil

    exe = shutil.which("strata")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "validate", str(FIXTURES / "three_node_pinch.json")], capture_output=True
    )
    assert proc.returncode == 0


def test_console_script_target_runs_in_process(monkeypatch, capsys):
    """The wiring an install turns into the ``strata`` script, checked without one."""
    import importlib

    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((FIXTURES.parent / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"strata": "strata.cli:main"}
    module, _, name = pyproject["project"]["scripts"]["strata"].partition(":")
    target = getattr(importlib.import_module(module), name)
    # A console script calls its target with no arguments, so it reads sys.argv.
    monkeypatch.setattr(sys, "argv", ["strata", "validate", str(FIXTURES / "three_node_pinch.json")])
    assert target() == 0
    assert capsys.readouterr().out.startswith("ok: ")


def test_json_outputs_parse_and_roundtrip():
    for command, fixture in (
        ("validate", "three_node_pinch"),
        ("analyze", "intro_two_level"),
        ("analyze", "double_cover_relation"),
        ("plumb", "stacked_cylinders"),
        ("deform", "parallel_cylinders"),
        ("aim", "minimal_stratum_parallel"),
    ):
        code, output = run_cli(command, str(FIXTURES / f"{fixture}.json"), "--json")
        payload = json.loads(output)
        assert payload["command"] == command
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == output


def test_document_objects_round_trip():
    doc = load_document(str(FIXTURES / "triple_node_cover.json"))
    assert doc.violations() == []
    system = doc.system()
    assert system.rank == 2
    data = doc.symplectic()
    assert data is not None and data.dim == 6


def test_parse_document_rejects_non_object():
    with pytest.raises(DocumentParseError):
        parse_document(["not", "an", "object"])


def test_integer_literals_accepted(tmp_path):
    doc = json.loads((FIXTURES / "three_node_pinch.json").read_text())
    doc["system"]["equations"][0]["coeffs"] = {"d1": 1, "d2": 1, "d3": 1}
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli("validate", str(path))
    assert code == 0
    code, _ = run_cli("analyze", str(path))
    assert code == 0


def _run_subprocess(args, hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-m", "strata.cli", *args],
        capture_output=True,
        env=env,
        cwd=str(FIXTURES.parent),
    )
    return proc.returncode, proc.stdout


def test_cli_determinism_across_runs_and_hashseeds():
    jobs = [
        ("validate", "minimal_stratum_parallel"),
        ("analyze", "intro_two_level"),
        ("analyze", "three_node_pinch"),
        ("plumb", "triple_node_cover"),
        ("deform", "stacked_cylinders"),
        ("aim", "minimal_stratum_parallel"),
    ]
    for command, fixture in jobs:
        for flags in ((), ("--json",)):
            args = [command, f"fixtures/{fixture}.json", *flags]
            first = _run_subprocess(args, "0")
            second = _run_subprocess(args, "0")
            third = _run_subprocess(args, "424242")
            assert first == second == third


# -- one parser per process ------------------------------------------------------


def _mixed_command_lines() -> list[tuple[str, ...]]:
    parallel = str(FIXTURES / "minimal_stratum_parallel.json")
    two = str(FIXTURES / "intro_two_level.json")
    stacked = str(FIXTURES / "stacked_cylinders.json")
    return [
        ("aim", parallel, "--decompose", "0"),
        ("aim", parallel),
        ("aim", "--json", parallel, "--pairwise-cross", "e1", "e3"),
        ("aim", parallel),
        ("analyze", two, "--json"),
        ("analyze", two),
        ("plumb", "--assume-theorems", "--json", stacked),
        ("plumb", stacked),
        ("deform", parallel, "--limit", "2"),
        ("validate", two, "--json"),
        ("validate", two),
        ("aim", parallel, "--decompose", "0", "--limit", "2", "--json"),
        ("aim", parallel, "--json"),
        ("analyze", str(FIXTURES / "missing.json")),
        ("analyze", "--assume-theorems", stacked),
        ("analyze", stacked),
    ]


def test_main_reuses_one_parser_with_fresh_parser_output(monkeypatch):
    from strata import cli

    lines = _mixed_command_lines()
    fresh = []
    for argv in lines:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run_cli(*argv))
    reused = [run_cli(*argv) for argv in lines]
    assert reused == fresh
    assert cli._parser is not None
    # A rejected command line leaves the shared parser as it was.
    with pytest.raises(SystemExit):
        run_cli("aim", "--decompose")
    assert [run_cli(*argv) for argv in lines] == fresh
    for argv in lines:
        assert vars(cli._parser.parse_args(list(argv))) == vars(cli.build_parser().parse_args(list(argv)))


def test_main_builds_the_parser_once(monkeypatch):
    from strata import cli

    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    for argv in _mixed_command_lines():
        run_cli(*argv)
    assert len(built) == 1


# -- no Fraction inside rref or literal parsing ------------------------------------


class _AnyFraction(type(Fraction)):
    """Metaclass that keeps ``isinstance(x, CountingFraction)`` true for every Fraction."""

    def __instancecheck__(cls, obj):
        return isinstance(obj, Fraction)


def test_dense_analyze_builds_no_fraction_in_rref_or_literal_parsing(monkeypatch, tmp_path):
    import types

    from strata import document, gaussian, linalg

    bench = str(Path(__file__).resolve().parent.parent / "bench")
    monkeypatch.syspath_prepend(bench)
    import generators

    path = tmp_path / "dense.json"
    generators.write_document(generators.dense_document(10, 0), str(path))

    built = [0]

    class CountingFraction(Fraction, metaclass=_AnyFraction):
        def __new__(cls, *args, **kwargs):
            built[0] += 1
            return Fraction(*args, **kwargs)

    # The library imports ``Fraction`` where it builds one, so it reads it off this
    # stand-in for ``fractions``; the real module's own code keeps its class.
    counting = types.ModuleType("fractions")
    counting.Fraction = CountingFraction
    monkeypatch.setitem(sys.modules, "fractions", counting)
    inside = {"rref": [0, 0], "parse_gaussian": [0, 0]}  # calls, Fractions built

    def counted(name, original):
        def wrapper(*args, **kwargs):
            before = built[0]
            try:
                return original(*args, **kwargs)
            finally:
                inside[name][0] += 1
                inside[name][1] += built[0] - before

        return wrapper

    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    monkeypatch.setattr(document, "parse_gaussian", counted("parse_gaussian", document.parse_gaussian))
    code, _ = run_cli("analyze", str(path))
    assert code == 0
    assert inside["rref"][0] > 0 and inside["parse_gaussian"][0] > 0
    assert inside == {"rref": [inside["rref"][0], 0], "parse_gaussian": [inside["parse_gaussian"][0], 0]}
    # The counter sees constructions through the patched names.
    before = built[0]
    assert gaussian.GaussianRational("1/2").re == Fraction(1, 2)
    assert built[0] - before == 3


# -- literals at the integer digit limit ---------------------------------------------


def _with_g1(tmp_path, literal_json: str) -> str:
    """intro_two_level with the g1 coefficient replaced by raw JSON text."""
    text = (FIXTURES / "intro_two_level.json").read_text()
    assert text.count('"g1": "1"') == 1
    path = tmp_path / "literal.json"
    path.write_text(text.replace('"g1": "1"', f'"g1": {literal_json}'))
    return str(path)


def _run_cli_process(*args) -> subprocess.CompletedProcess:
    # A timeout turns a regression into a failure rather than a hang.
    return subprocess.run(
        [sys.executable, "-m", "strata.cli", *args], capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize(
    "command, literal, message",
    [
        ("analyze", '"1e5000"', "malformed rational literal '1e5000'"),
        ("validate", '"1e99999999"', "malformed rational literal '1e99999999'"),
        ("validate", '"0.5e-99999999"', "malformed rational literal '0.5e-99999999'"),
        ("analyze", "1" * 5000, "Exceeds the limit (4300 digits)"),
    ],
)
def test_literals_past_the_digit_limit_exit_64(tmp_path, command, literal, message):
    proc = _run_cli_process(command, _with_g1(tmp_path, literal))
    assert proc.returncode == 64, proc.stdout + proc.stderr
    assert proc.stdout.startswith("parse error at ") and message in proc.stdout
    assert proc.stderr == ""


def test_literal_just_under_the_digit_limit_parses_and_prints(tmp_path):
    assert sys.get_int_max_str_digits() == 4300
    proc = _run_cli_process("analyze", "--json", _with_g1(tmp_path, '"1e4299"'))
    assert proc.returncode == 2 and proc.stderr == ""
    forced = json.loads(proc.stdout)
    assert forced["certificate"]["verdict"] == "inconsistent"
    assert "1/1" + "0" * 4299 in proc.stdout  # the g2 coefficient of the rref row, 4300 digits
    code, output = run_cli("validate", _with_g1(tmp_path, '"-3.5e-4297"'))
    assert code == 0, output
    doc = load_document(_with_g1(tmp_path, '"0e99999999"'))
    assert "g1" not in doc.raw_equations[0].coeffs  # a zero coefficient is absent from the cycle's view
