import json
import os
import subprocess
import sys
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
    assert "$.deformations" in output


def test_unknown_basis_reference_is_violation(tmp_path):
    doc = json.loads((FIXTURES / "three_node_pinch.json").read_text())
    doc["system"]["equations"][0]["coeffs"]["zz"] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, output = run_cli("validate", str(bad))
    assert code == 1
    assert "zz" in output


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


def test_console_script_installed():
    import shutil

    exe = shutil.which("strata")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "validate", str(FIXTURES / "three_node_pinch.json")], capture_output=True
    )
    assert proc.returncode == 0


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
