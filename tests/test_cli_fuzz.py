"""Seeded exit-code fuzz of the command line.

Bounded mutations of the shipped fixtures (delete a key, drop a list item,
swap a value for a wrong-typed literal, or rename a key of a coefficient or
period map to a name the document lacks) run through every command
in-process.  Whatever the damage, ``main`` must end in a documented exit code
and never raise.  STRATA_SEED picks the mutations.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from strata.cli import main

from support import rng

FIXTURES = Path(__file__).parent.parent / "fixtures"
EXIT_CODES = {0, 1, 2, 3, 4, 64}
MUTATIONS = 200
RENAMES = 100
UNKNOWN_NAMES = ("zz", "x9", "e0", "b0", "lambda", "")
WRONG_LITERALS = (None, True, 0, -1, 7, 1.5, "", "x", "1//2", [], {}, ["x"], {"x": 1})
COMMAND_LINES = (
    ("validate",),
    ("validate", "--json"),
    ("analyze",),
    ("analyze", "--json", "--assume-theorems"),
    ("plumb",),
    ("plumb", "--json", "--assume-theorems"),
    ("deform",),
    ("deform", "--json"),
    ("aim",),
    ("aim", "--json"),
    ("aim", "--pairwise-cross", "e1", "e2"),
    ("aim", "--decompose", "0"),
)


def _slots(node, path=()):
    """Every (container path, key or index) of a JSON tree, in document order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _slots(child, path + (key,))


def mutate(doc: dict, r) -> tuple[dict, str]:
    """One damaged copy of a document and a description of the damage."""
    out = copy.deepcopy(doc)
    path, key = r.choice(list(_slots(out)))
    parent = out
    for step in path:
        parent = parent[step]
    where = "$" + "".join(f"[{step!r}]" for step in path + (key,))
    if r.random() < 0.4:
        del parent[key]
        return out, f"delete {where}"
    literal = r.choice(WRONG_LITERALS)
    parent[key] = copy.deepcopy(literal)
    return out, f"set {where} = {literal!r}"


def _named_maps(doc: dict):
    """Every nonempty name-keyed map of a document: the ``coeffs`` and ``lambda``
    of each equation and relation, ``u_lambda``, and the period maps."""
    system = doc["system"]
    maps = [
        item[key]
        for block in ("equations", "relations")
        for item in system.get(block, [])
        for key in ("coeffs", "lambda")
        if key in item
    ]
    maps += [(doc.get("symplectic") or {}).get("u_lambda", {})]
    maps += [(doc.get("periods") or {}).get(key, {}) for key in ("basis", "lambda")]
    return [m for m in maps if m]


def rename(doc: dict, r) -> tuple[dict, str]:
    """A copy of a document with one key of a name-keyed map renamed to a name it lacks."""
    out = copy.deepcopy(doc)
    table = r.choice(_named_maps(out))
    old = r.choice(sorted(table))
    names = {b["name"] for b in out["basis"]} | {e["id"] for e in out["graph"]["edges"]} | set(table)
    new = r.choice([name for name in UNKNOWN_NAMES if name not in names])
    table[new] = table.pop(old)
    return out, f"rename {old!r} to {new!r}"


def _run_every_command_line(fixtures: dict, draw, draws: int, r, tmp_path):
    names = sorted(fixtures)
    for k in range(draws):
        name = r.choice(names)
        doc, damage = draw(fixtures[name], r)
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(doc))
        for line in COMMAND_LINES:
            argv = [line[0], str(path), *line[1:]]
            with redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except Exception as exc:
                    raise AssertionError(f"{name}: {damage}: {line} raised {exc!r}") from exc
            assert code in EXIT_CODES, f"{name}: {damage}: {line} exited {code}"


def _fixtures() -> dict:
    return {p.stem: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}


def test_mutated_fixtures_end_in_documented_exit_codes(tmp_path):
    _run_every_command_line(_fixtures(), mutate, MUTATIONS, rng(5150), tmp_path)


def test_renamed_keys_end_in_documented_exit_codes(tmp_path):
    _run_every_command_line(_fixtures(), rename, RENAMES, rng(5151), tmp_path)
