"""The benchmark's workloads: which verdicts a round asks for, and their answers.

A workload is built once per run from the workload seed.  It writes its
documents into a work directory, then lists its operations: one ``strata``
command line each, with the digest key, expected exit code and known-answer
check of the verdict it must produce.

- ``fixtures-cli``: the shipped fixtures under every command, text and
  ``--json``.  Tiny documents, so the cost is argument parsing, rendering,
  document loading and validation, and process start-up.
- ``dense-complex``: two-level documents with n+2 dense Gaussian-integer
  equations, n = 8..14.  Nearly all the time is exact row reduction whose
  entries grow into large rationals.
- ``parallel-cylinders``: minimal-stratum documents with one parallel class
  of g = 5..9 cylinders.  The time is spread over the undegeneration table,
  the symplectic analyses, plumbing conversion and many small sparse row
  reductions, the opposite use of ``linalg`` from ``dense-complex``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
import generators as gen

COMMANDS = ("validate", "analyze", "plumb", "deform", "aim")

# Exit codes of the shipped fixtures (fixtures/README.md); the 1s under
# deform and aim are the documented "nothing to do" exits.
FIXTURE_EXITS = {
    "double_cover_relation": (0, 0, 0, 1, 1),
    "intro_two_level": (0, 2, 3, 1, 1),
    "minimal_stratum_parallel": (0, 0, 0, 0, 0),
    "parallel_cylinders": (0, 0, 0, 0, 1),
    "stacked_cylinders": (0, 0, 0, 0, 1),
    "three_node_pinch": (0, 0, 3, 1, 1),
    "triple_node_cover": (0, 0, 0, 1, 0),
}

# Cold analyze samples taken after each round: enough that every run of
# --seconds 30 collects at least 12 (fixtures-cli, which cycles through seven
# documents, about 50), few enough to leave most of the loop in-process.
COLD_PER_ROUND = {"fixtures-cli": 2, "dense-complex": 2, "parallel-cylinders": 3}


@dataclass(frozen=True)
class Op:
    key: str  # digest key: stable across runs, seeds and document paths
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[str], list[str]] | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def path(self) -> str:
        return self.argv[1]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    cold_ops: list[Op]  # analyze verdicts sampled as fresh processes, in turn
    documents: list[str]  # generated documents; each must validate before timing

    @property
    def cold_per_round(self) -> int:
        return COLD_PER_ROUND[self.name]


def fixtures_cli(root: str) -> Workload:
    ops = []
    for name, exits in sorted(FIXTURE_EXITS.items()):
        path = os.path.join(root, "fixtures", f"{name}.json")
        for command, code in zip(COMMANDS, exits):
            for mode in ("text", "json"):
                flags = ("--json",) if mode == "json" else ()
                ops.append(Op(f"fixtures-cli|{name}|{command}|{mode}", (command, path) + flags, code))
    path = os.path.join(root, "fixtures", "minimal_stratum_parallel.json")
    ops.append(
        Op(
            "fixtures-cli|minimal_stratum_parallel|aim-pairwise-e1-e3|text",
            ("aim", path, "--pairwise-cross", "e1", "e3"),
            0,
            checks.expect_witness_line,
        )
    )
    cold = [op for op in ops if op.command == "analyze" and op.key.endswith("|text")]
    return Workload("fixtures-cli", ops, cold, [])


def dense_ops(path: str, n: int, index: int) -> list[Op]:
    stem = f"dense-complex|n{n:02d}-{index:02d}"
    return [
        Op(f"{stem}|validate", ("validate", path, "--json"), 0, checks.expect_no_violations),
        Op(f"{stem}|analyze", ("analyze", path, "--json"), 0, checks.dense_analyze),
        Op(f"{stem}|plumb", ("plumb", path, "--json"), 0, checks.dense_plumb(n + 2)),
    ]


def decompose_row_terms(g: int, index: int) -> dict:
    """Terms of rref row g-1, the first pure-period row, from the construction.

    The rows e_k = q_k e_1 reduce, in the column order e01..e0g, to
    e_j - (q_j/q_g) e_g; the first of them is e01 - (1/q_g) e0g.
    """
    _, q = gen.cylinder_ratios(g, index)
    edges = gen.cylinder_edges(g)
    return {("l", edges[0]): (Fraction(1), Fraction(0)), ("l", edges[-1]): (-1 / q[-1], Fraction(0))}


def cylinder_ops(path: str, g: int, index: int) -> list[Op]:
    stem = f"parallel-cylinders|g{g}-{index:02d}"
    return [
        Op(f"{stem}|validate", ("validate", path, "--json"), 0, checks.expect_no_violations),
        Op(f"{stem}|analyze", ("analyze", path, "--json"), 0, checks.cylinders_analyze(g)),
        Op(f"{stem}|plumb", ("plumb", path, "--json"), 0, checks.cylinders_plumb(g)),
        Op(
            f"{stem}|aim-decompose",
            ("aim", path, "--decompose", str(g - 1), "--json"),
            0,
            checks.cylinders_decompose(decompose_row_terms(g, index)),
        ),
        Op(
            f"{stem}|aim-pairwise",
            ("aim", path, "--pairwise-cross", "e01", "e02", "--json"),
            0,
            checks.cylinders_pairwise,
        ),
    ]


# Per generated workload: the sizes drawn, the document generator, the
# operations on one document, and the file name of a document of a size.
GENERATED = {
    "dense-complex": (gen.DENSE_SIZES, gen.dense_document, dense_ops, "dense-n{:02d}.json"),
    "parallel-cylinders": (gen.CYLINDER_GENERA, gen.cylinders_document, cylinder_ops, "cylinders-g{}.json"),
}


def generated(name: str, workdir: str, seed: int) -> Workload:
    """One pool document of each size, chosen by the workload seed."""
    sizes, make_document, make_ops, file_name = GENERATED[name]
    ops, documents = [], []
    for size, index in sorted(gen.pool_choice(seed, sizes).items()):
        path = os.path.join(workdir, file_name.format(size))
        gen.write_document(make_document(size, index), path)
        documents.append(path)
        ops += make_ops(path, size, index)
    # Cold samples analyze the smallest document, the cheapest full verdict.
    cold = [op for op in ops if op.command == "analyze"][:1]
    return Workload(name, ops, cold, documents)


WORKLOADS = ("fixtures-cli", "dense-complex", "parallel-cylinders")


def build(name: str, root: str, workdir: str, seed: int) -> Workload:
    if name == "fixtures-cli":
        return fixtures_cli(root)
    return generated(name, workdir, seed)
