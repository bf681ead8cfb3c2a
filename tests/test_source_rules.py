"""Rules about how the library source is written, checked on its syntax tree."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "strata").glob("*.py"))


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
