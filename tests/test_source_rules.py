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


# Iterators without a length: a tuple built from one grows by resizing, like a genexpr.
LENGTHLESS = ("map", "filter", "zip")


def _lengthless(arg: ast.AST) -> bool:
    return isinstance(arg, ast.GeneratorExp) or (
        isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id in LENGTHLESS
    )


def _generator_built_tuples(tree: ast.AST) -> list[int]:
    """Lines of ``tuple(<genexpr>)`` and ``tuple(map(...))``-style calls, and ``*<genexpr>`` arguments."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and any(_lengthless(arg) for arg in node.args)
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
    tree = ast.parse("a = tuple(map(f, y))\nb = tuple(list(map(f, y)))\nc = tuple(zip(x, y))\n")
    assert _generator_built_tuples(tree) == [1, 3]


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


def _literal_capped_loops(tree: ast.AST) -> list[int]:
    """Lines of loops over ``range(...)`` whose far end (the stop, or the start
    when the step is negative) is built from literals alone: a loop's cap comes
    from the input (edge counts, depth) or from ``--limit``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            call = node.iter
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "range":
                args = call.args
                descending = len(args) == 3 and isinstance(args[2], ast.UnaryOp) and isinstance(args[2].op, ast.USub)
                cap = args[0] if descending or len(args) == 1 else args[1]
                if not any(isinstance(n, (ast.Name, ast.Attribute, ast.Call, ast.Subscript)) for n in ast.walk(cap)):
                    lines.append(call.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_loop_is_capped_by_a_literal(path):
    assert _literal_capped_loops(ast.parse(path.read_text(), str(path))) == []


def test_the_loop_cap_rule_sees_literal_stops():
    tree = ast.parse(
        "for _ in range(10_000):\n    pass\n"
        "for k in range(1, 10 ** 4, 2):\n    pass\n"
        "xs = [k for k in range(8)]\n"
        "for k in range(len(xs)):\n    pass\n"
        "for k in range(1, n + 1):\n    pass\n"
        "ys = set(range(5))\n"
        "for k in range(len(xs) - 1, 0, -1):\n    pass\n"
        "for k in range(9, n, -1):\n    pass\n"
    )
    assert _literal_capped_loops(tree) == [1, 3, 5, 13]


# Every module imported here is paid by each fresh `strata` process, at import and,
# without bytecode caches, at compile time; a new one has to be added on purpose.
STDLIB_IMPORTS = {
    "argparse", "json", "sys", "fractions", "math", "typing", "functools", "itertools", "weakref",
    "types", "__future__",
}


def _absolute_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level module) of every ``import x`` and ``from x import y``;
    relative imports of the package itself are left out."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_pinned_stdlib_modules_are_imported(path):
    imports = _absolute_imports(ast.parse(path.read_text(), str(path)))
    assert [(line, name) for line, name in imports if name not in STDLIB_IMPORTS] == []


def test_the_pinned_imports_are_all_used():
    used = set()
    for path in SOURCES:
        used |= {name for _, name in _absolute_imports(ast.parse(path.read_text(), str(path)))}
    assert used == STDLIB_IMPORTS


def test_the_import_rule_sees_both_forms():
    tree = ast.parse(
        "import os\n"
        "import os.path, json\n"
        "from collections import deque\n"
        "from . import linalg\n"
        "from .gaussian import ONE\n"
        "def f():\n"
        "    import random\n"
    )
    assert _absolute_imports(tree) == [(1, "os"), (2, "os"), (2, "json"), (3, "collections"), (7, "random")]


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



def _json_dumps_uses(tree: ast.AST) -> list[int]:
    """Lines reading ``json.dumps`` or importing ``dumps`` from ``json``: ``--json``
    output goes through the CLI's own writer, the one JSON output path."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "dumps"
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        )
        or (isinstance(node, ast.ImportFrom) and node.module == "json" and any(a.name == "dumps" for a in node.names))
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_json_dumps(path):
    assert _json_dumps_uses(ast.parse(path.read_text(), str(path))) == []


def test_the_json_dumps_rule_sees_every_form():
    tree = ast.parse(
        "import json\n"
        "a = json.dumps(x, indent=2)\n"
        "from json import dumps, loads\n"
        "f = json.dumps\n"
        "b = json.loads(s)\n"
        "c = other.dumps(x)\n"
    )
    assert _json_dumps_uses(tree) == [2, 3, 4]


def _is_attribute_target(target: ast.expr) -> bool:
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_is_attribute_target(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _is_attribute_target(target.value)
    return isinstance(target, ast.Attribute)


def _attribute_writes_in_module_functions(tree: ast.Module) -> list[int]:
    """Lines where a module-level function assigns to an attribute (``x.attr = ...``).

    Derived state belongs in the owning class, as cached properties; a module
    function reads it and never writes into an object from outside.
    """
    lines = []
    for function in tree.body:
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                if any(_is_attribute_target(t) for t in targets):
                    lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_functions_write_no_attributes(path):
    assert _attribute_writes_in_module_functions(ast.parse(path.read_text(), str(path))) == []


def test_the_attribute_rule_sees_every_form():
    tree = ast.parse(
        "def f(s):\n"
        "    s.a = 1\n"
        "    s.b += 1\n"
        "    s.c: int = 1\n"
        "    x, (s.d, *s.e) = 1, (2, 3)\n"
        "    s.t[k] = 1\n"
        "    x = s.a\n"
        "    def g():\n"
        "        s.f = 1\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.a = 1\n"
        "s.g = 1\n"
    )
    assert _attribute_writes_in_module_functions(tree) == [2, 3, 4, 5, 9]


def _prints_outside_main(tree: ast.Module) -> list[int]:
    """Lines of ``print`` calls outside the module-level ``main``.

    A command's output is built in full, inside ``main``'s error guard, and
    printed once: an error raised while rendering still ends in one line.
    """
    in_main = {
        id(node)
        for function in tree.body
        if isinstance(function, ast.FunctionDef) and function.name == "main"
        for node in ast.walk(function)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and id(node) not in in_main
    )


def test_the_cli_prints_only_in_main():
    path = SRC / "strata" / "cli.py"
    assert _prints_outside_main(ast.parse(path.read_text(), str(path))) == []


def test_the_print_rule_sees_helpers():
    tree = ast.parse(
        "def main():\n"
        "    print('done')\n"
        "def _emit(lines):\n"
        "    for line in lines:\n"
        "        print(line)\n"
        "print('at import')\n"
        "class C:\n"
        "    def main(self):\n"
        "        print(self)\n"
    )
    assert _prints_outside_main(tree) == [5, 6, 9]


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads.

    A read is a ``Name`` node, the root of every ``Attribute`` chain among them,
    annotations included; ``from __future__`` imports are directives, not names.
    """
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


# The package's __init__ imports to re-export; every other module imports to use.
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_unused_import_rule_sees_every_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, json\n"
        "import numpy as np\n"
        "from . import linalg\n"
        "from .equations import hor_support, is_correlated  # noqa: F401\n"
        "from typing import Sequence\n"
        "def f(x: Sequence[int]) -> None:\n"
        "    return os.path.join(linalg.rref(x), hor_support)\n"
    )
    assert _unused_imports(tree) == [(2, "json"), (3, "np"), (5, "is_correlated")]


# -- reach ---------------------------------------------------------------------------

# Public names that no `src/strata` module reads, kept as declared library API.
LIBRARY_API = (
    # Paper results the acceptance criteria check: primitive sets (criterion 5),
    # residue relations against Picard-Lefschetz monodromy (7), decomposition (8).
    "equations.primitive_sets",
    "equations.residue_relation",
    "homology.picard_lefschetz",
    "level_graph.passage_weight",
    "equations.decompose",
    "equations.DecomposeResult.components",
    # The smoothing claim of the paper's abstract, reached only as library code.
    "plumbing.can_smooth",
    # Read by the benchmark's traced run.
    "homology.Cycle.to_vector",
    # Helpers the tests call.
    "homology.LambdaRelationSet.contains",
    "level_graph.Undegeneration.surviving_edges",
    "level_graph.Undegeneration.target_codim",
    "level_graph.Undegeneration.then",
    "level_graph.top_vertices_have_horizontal",
)


def _own_nodes(scope: ast.AST):
    """The nodes of a module or function body, not those inside a nested function,
    class or lambda (whose own node is yielded)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _relative_imports(scope: ast.AST) -> dict[str, tuple[str, str | None]]:
    """alias -> (module, name) of the package imports a module or function makes
    itself; name is None where the alias is a module."""
    imported = {}
    for node in _own_nodes(scope):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                imported[a.asname or a.name] = (node.module, a.name) if node.module else (a.name, None)
    return imported


def _bound_names(function) -> set[str]:
    """Names a function binds itself (parameters, assignment targets, imports,
    nested definitions), not those bound inside a nested function or class."""
    args = function.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}
    for node in _own_nodes(function):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _reads(module: str, tree: ast.Module) -> list[tuple[tuple[str | None, str], ast.AST]]:
    """(key, node) of every read in a module.

    A ``Name`` load is keyed (module, name) when the innermost scope that
    binds it imports it from a package module or, at module level, defines
    it.  So a function's own package imports resolve like the module's, ahead
    of a same-named module definition.  An
    ``Attribute`` load is keyed (None, attribute), a read of every method and
    property so named, and also (module, attribute) when its base names an
    imported package module.
    """
    # name -> (module, name) for a read of it, (module, None) for a package
    # module, None where a function binds it to something else
    scope = _relative_imports(tree)
    scope.update((n.name, (module, n.name)) for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)))
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = {**scope, **dict.fromkeys(_bound_names(node)), **_relative_imports(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            key = scope.get(node.id)
            if key is not None and key[1] is not None:
                out.append((key, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append(((None, node.attr), node))
            base = node.value
            key = scope.get(base.id) if isinstance(base, ast.Name) else None
            if key is not None and key[1] is None:
                out.append(((key[0], node.attr), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, scope)
    return out


def _unread(trees: dict[str, ast.Module]) -> list[str]:
    """Qualified names of the public module-level functions and classes, and the
    public methods and properties of module-level classes, that no module reads
    outside their own definition.  ``__init__`` only re-exports, so its imports
    are not reads."""
    reads = [read for module, tree in trees.items() if module != "__init__" for read in _reads(module, tree)]
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(f"{module}.{node.name}", (module, node.name), node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (f"{module}.{node.name}.{item.name}", (None, item.name), item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
            for qualified, key, definition in members:
                if key[1].startswith("_"):
                    continue
                inside = {id(n) for n in ast.walk(definition)}
                if not any(k == key and id(n) not in inside for k, n in reads):
                    out.append(qualified)
    return out


def test_every_public_name_is_read_or_declared_library_api():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert sorted(_unread(trees)) == sorted(LIBRARY_API)


def test_the_reach_rule_resolves_reads_through_imports():
    sources = {
        "__init__": "from .a import Table, helper, used, wrapper\nfrom .c import passages\n",
        "a": (
            "def used(x):\n"
            "    return helper(x)\n"
            "def helper(x):\n"
            "    return helper(x - 1) if x else 0\n"
            "def wrapper(x):\n"
            "    return wrapper(x)\n"
            "def forward(x):\n"
            "    return x\n"
            "class Table:\n"
            "    @property\n"
            "    def rows(self):\n"
            "        return self.rows\n"
            "    def lost(self):\n"
            "        return 0\n"
            "    def _mask(self):\n"
            "        return 0\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import used, wrapper\n"
            "def run(t, passages):\n"
            "    return used(passages), a.Table, t.lost()\n"
            "def shadow(wrapper):\n"
            "    return wrapper\n"
        ),
        "c": "def passages(graph):\n    return graph\n",
        "d": (
            "def passages(graph):\n"
            "    from . import c\n"
            "    return c.passages(graph)\n"
            "def forward(x):\n"
            "    from .a import forward\n"
            "    return forward(x)\n"
            "def late(x):\n"
            "    def inner():\n"
            "        from .a import wrapper\n"
            "    return wrapper(x)\n"
        ),
    }
    trees = {module: ast.parse(text) for module, text in sources.items()}
    # d's function-local imports read c.passages and a.forward; d.forward's own name
    # is the import, not d.forward; an import in a nested function stays there.
    assert _unread(trees) == [
        "a.wrapper", "a.Table.rows", "b.run", "b.shadow", "d.passages", "d.forward", "d.late"
    ]
