"""Rules about how the library source is written, checked on its syntax tree."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "strata").glob("*.py"))


def _generator_built_tuples(tree: ast.AST) -> list[int]:
    """Lines of ``tuple(<genexpr>)`` calls and ``*<genexpr>`` arguments."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
        ):
            lines.append(node.lineno)
        if isinstance(node, ast.Starred) and isinstance(node.value, ast.GeneratorExp):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_tuples_are_built_from_lists(path):
    # See the package docstring: generator-built tuples fill the tuple free lists.
    assert _generator_built_tuples(ast.parse(path.read_text(), str(path))) == []


def test_the_rule_sees_both_forms():
    tree = ast.parse("a = tuple(x for x in y)\nb = lcm(*(x for x in y))\nc = tuple([x for x in y])\n")
    assert _generator_built_tuples(tree) == [1, 2]


def _to_vector_calls(tree: ast.AST) -> list[int]:
    """Lines of ``<anything>.to_vector()`` calls: a cycle is read through ``.vector``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_vector"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_cycles_are_read_as_vectors(path):
    assert _to_vector_calls(ast.parse(path.read_text(), str(path))) == []


def test_the_vector_rule_sees_calls():
    tree = ast.parse("a = c.to_vector()\nb = eq.cycle.to_vector()\nc = x.vector\nd = to_vector\n")
    assert _to_vector_calls(tree) == [1, 2]


def _dataclass_imports(tree: ast.AST) -> list[int]:
    """Lines importing ``dataclasses``: records are NamedTuples, cheap to create at import."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert _dataclass_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_dataclass_rule_sees_both_forms():
    tree = ast.parse("import dataclasses\nfrom dataclasses import dataclass\nimport typing\n")
    assert _dataclass_imports(tree) == [1, 2]


def test_the_cli_starts_without_dataclasses_or_inspect():
    probe = (
        "import sys\n"
        "import strata.cli\n"
        "strata.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout == "[]\n"
