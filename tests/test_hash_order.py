"""CLI output that no string hash seed can change.

Set iteration order over strings follows ``PYTHONHASHSEED``, so a loop over a
set of edge ids that reaches the output makes the output depend on the seed.
Each of two seeds runs in one subprocess, which calls ``strata.cli.main``
in-process on every fixture command line and on a document whose basis
elements carry several wrong horizontal pairings; the two runs must write the
same stdout, line by line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from strata.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Seeds under which a loop over the set {"e1", "e2", "e3"} visits it in two orders.
HASH_SEEDS = ("1", "2")

RUNNER = """
import contextlib, hashlib, io, json, sys
from strata.cli import main
digests = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    digests.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
json.dump(digests, sys.stdout)
"""

BAD_PAIRINGS_TEXT = """\
violations: 5
  basis element d1: crossing-pairings: pairing with e2 is 1, expected 0
  basis element d1: crossing-pairings: pairing with e3 is 1, expected 0
  basis element a1: noncrossing-pairings: nonzero pairing with horizontal edge e1
  basis element a1: noncrossing-pairings: nonzero pairing with horizontal edge e2
  basis element a1: noncrossing-pairings: nonzero pairing with horizontal edge e3
"""


def _write_bad_pairings(path: Path) -> str:
    """The minimal-stratum fixture with d1 paired to every horizontal edge, and a1 to all three."""
    doc = json.loads((FIXTURES / "minimal_stratum_parallel.json").read_text())
    for element in doc["basis"]:
        if element["name"] == "d1":
            element["pairings"] = {"e1": 1, "e2": 1, "e3": 1}
        if element["name"] == "a1":
            element["pairings"] = {"e1": 1, "e2": 2, "e3": 3}
    path.write_text(json.dumps(doc))
    return str(path)


def _fixture_command_lines() -> list[list[str]]:
    commands = [
        ["validate"], ["analyze"], ["plumb"], ["deform"], ["aim"],
        *[["aim", "--decompose", str(k)] for k in range(4)],
        ["aim", "--pairwise-cross", "e1", "e2"],
    ]
    return [
        [command, str(path), *rest, *json_flag, *assume]
        for path in sorted(FIXTURES.glob("*.json"))
        for command, *rest in commands
        for json_flag in ([], ["--json"])
        for assume in ([], ["--assume-theorems"])
    ]


def _digests(argvs: list[list[str]], hash_seed: str) -> list[list]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER], input=json.dumps(argvs), capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


def test_cli_output_does_not_follow_the_hash_seed(tmp_path):
    bad = _write_bad_pairings(tmp_path / "bad_pairings.json")
    argvs = _fixture_command_lines() + [
        [command, bad, *json_flag] for command in ("validate", "analyze", "aim") for json_flag in ([], ["--json"])
    ]
    assert len(argvs) == 286
    first, second = (_digests(argvs, seed) for seed in HASH_SEEDS)
    assert [" ".join(argv) for argv, a, b in zip(argvs, first, second) if a != b] == []


def test_wrong_horizontal_pairings_are_listed_in_edge_order(tmp_path, capsys):
    bad = _write_bad_pairings(tmp_path / "bad_pairings.json")
    assert main(["validate", bad]) == 1
    assert capsys.readouterr().out == BAD_PAIRINGS_TEXT
    assert main(["validate", bad, "--json"]) == 1
    violations = [line[2:] for line in BAD_PAIRINGS_TEXT.splitlines()[1:]]
    payload = {"command": "validate", "violations": violations}
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
