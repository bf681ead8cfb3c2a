"""Seeded ``sbv-1`` document generators for the benchmark workloads.

Each generator takes a document size and a pool index and returns a
JSON-ready dict; the same pair always gives the same document, byte for byte
once written with ``write_document``.  A workload seed picks the pool index
of each size (``pool_choice``).  Nothing here imports ``strata`` or the test
suite, so edits to either cannot shift the benchmark's inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Document sizes per workload.  Every run draws one document of each size, so
# the cost mix of a round is the same whatever the seed.
DENSE_SIZES = tuple(range(8, 15))  # n noncrossing basis elements per level
CYLINDER_GENERA = tuple(range(5, 10))  # g cylinders in the parallel class

# Recorded digests cover this many documents of each size; a run seed picks
# one document of each size from that pool.
POOL_SIZE = 12

DENSE_KAPPA_RANGE = (1, 4)
DENSE_ENTRY_RANGE = (-3, 3)


def gaussian_literal(re: int, im: int) -> str:
    if im == 0:
        return str(re)
    return f"{re}{im:+d}i"


def rational_literal(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def write_document(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=1)
        handle.write("\n")


def _rng(kind: str, size: int, index: int) -> random.Random:
    return random.Random(f"{kind}:{size}:{index}")


def pool_choice(workload_seed: int, sizes) -> dict[int, int]:
    """Pool index of the document used for each size under a workload seed."""
    r = random.Random(f"pool:{workload_seed}")
    return {size: r.randrange(POOL_SIZE) for size in sizes}


# -- dense-complex -------------------------------------------------------------

# A prime p = 1 (mod 4), so that -1 has a square root modulo p and Z[i] maps
# onto Z/p by sending i to it.
MODULUS = 1_000_000_009


def _sqrt_minus_one(p: int) -> int:
    for a in range(2, p):
        s = pow(a, (p - 1) // 4, p)
        if s * s % p == p - 1:
            return s
    raise ValueError("p is not 1 mod 4")


I_MOD_P = _sqrt_minus_one(MODULUS)


def rank_mod_p(rows: list[list[tuple[int, int]]]) -> int:
    """Rank of a Gaussian-integer matrix after reduction modulo MODULUS."""
    p = MODULUS
    work = [[(re + im * I_MOD_P) % p for re, im in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((k for k in range(rank, len(work)) if work[k][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], -1, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for k in range(len(work)):
            if k != rank and work[k][c]:
                f = work[k][c]
                work[k] = [(a - f * b) % p for a, b in zip(work[k], work[rank])]
        rank += 1
    return rank


def dense_matrix(n: int, index: int) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Vertical enhancements and the (n+2) x (2n+3) Gaussian-integer matrix.

    Columns are the level-0 basis elements, the level-(-1) basis elements and
    then the three vertical edges, which is the column order ``strata`` row
    reduces in.
    """
    r = _rng("dense", n, index)
    kappas = [r.randint(*DENSE_KAPPA_RANGE) for _ in range(3)]
    width = 2 * n + 3
    while True:
        rows = [
            [(r.randint(*DENSE_ENTRY_RANGE), r.randint(*DENSE_ENTRY_RANGE)) for _ in range(width)]
            for _ in range(n + 2)
        ]
        # Full row rank modulo p implies full row rank over Q(i), so the rank
        # of every accepted draw is n+2 by construction.
        if rank_mod_p(rows) == n + 2:
            return kappas, rows


def dense_pairings(n: int, index: int) -> list[list[int]]:
    r = _rng("dense-pairings", n, index)
    return [[r.randint(-2, 2) for _ in range(3)] for _ in range(n)]


def dense_document(n: int, index: int) -> dict:
    """Two levels joined by three vertical edges, n+2 dense complex equations."""
    kappas, rows = dense_matrix(n, index)
    pairings = dense_pairings(n, index)
    verticals = ["v1", "v2", "v3"]
    top_genus, bottom_genus = n // 2, n - n // 2
    top_order = 2 * top_genus - 2 - sum(k - 1 for k in kappas)
    bottom_order = 2 * bottom_genus - 2 - sum(-k - 1 for k in kappas)
    top_names = [f"n0_{k:02d}" for k in range(n)]
    bottom_names = [f"n1_{k:02d}" for k in range(n)]
    basis = [
        {
            "name": name,
            "level": 0,
            "kind": "noncrossing",
            "edge": None,
            "pairings": dict(zip(verticals, pairings[k])),
        }
        for k, name in enumerate(top_names)
    ] + [
        {"name": name, "level": -1, "kind": "noncrossing", "edge": None, "pairings": {}}
        for name in bottom_names
    ]
    equations = []
    for row in rows:
        lits = [gaussian_literal(re, im) for re, im in row]
        equations.append(
            {
                "coeffs": dict(zip(top_names + bottom_names, lits[: 2 * n])),
                "lambda": dict(zip(verticals, lits[2 * n:])),
            }
        )
    return {
        "schema": "sbv-1",
        "graph": {
            "vertices": [
                {"id": "top", "genus": top_genus, "level": 0},
                {"id": "bottom", "genus": bottom_genus, "level": -1},
            ],
            "edges": [
                {"id": eid, "ends": ["top", "bottom"], "top": "top", "kappa": kappa}
                for eid, kappa in zip(verticals, kappas)
            ],
            "markings": [
                {"vertex": "top", "order": top_order},
                {"vertex": "bottom", "order": bottom_order},
            ],
        },
        "basis": basis,
        "system": {
            "equations": equations,
            "ratios": [],
            "relations": [],
            "flags": {"real": False, "minimal_stratum": False},
            "nonvanishing": [],
        },
    }


# -- parallel-cylinders ----------------------------------------------------------


def cylinder_ratios(g: int, index: int) -> tuple[list[Fraction], list[Fraction]]:
    """Cross-curve ratios c and circumference ratios q of cylinders 2..g to 1."""
    r = _rng("cylinders", g, index)

    def positive() -> Fraction:
        return Fraction(r.randint(1, 4), r.randint(1, 4))

    c = [positive() for _ in range(g - 1)]
    q = [positive() for _ in range(g - 1)]
    return c, q


def cylinder_edges(g: int) -> list[str]:
    return [f"e{k + 1:02d}" for k in range(g)]


def cylinders_document(g: int, index: int) -> dict:
    """Minimal stratum, one parallel class of g cylinders on a single vertex.

    Cross-curve rows d_k = c_k d_1 and circumference rows e_k = q_k e_1, the
    declared ratios q_k, carrier identifications a_k = lambda[e_k], and
    absolute data with the standard symplectic form, so the tangent image is
    symplectic for every draw.
    """
    c, q = cylinder_ratios(g, index)
    edges = cylinder_edges(g)
    names_d = [f"d{k + 1:02d}" for k in range(g)]
    names_a = [f"a{k + 1:02d}" for k in range(g)]
    equations = []
    for k in range(1, g):
        equations.append(
            {"coeffs": {names_d[k]: "1", names_d[0]: rational_literal(-c[k - 1])}, "lambda": {}}
        )
        equations.append(
            {"coeffs": {}, "lambda": {edges[k]: "1", edges[0]: rational_literal(-q[k - 1])}}
        )
    n = 2 * g
    j_matrix = [
        [1 if (a < g and b == a + g) else (-1 if (a >= g and b == a - g) else 0) for b in range(n)]
        for a in range(n)
    ]
    width = 3 * g  # basis elements d, a, then the edges

    def unit(position: int, length: int) -> list[str]:
        return ["1" if k == position else "0" for k in range(length)]

    iota = [unit(k, width) for k in range(g)] + [unit(g + k, width) for k in range(g)]
    return {
        "schema": "sbv-1",
        "graph": {
            "vertices": [{"id": "w", "genus": 0, "level": 0}],
            "edges": [{"id": eid, "ends": ["w", "w"]} for eid in edges],
            "markings": [{"vertex": "w", "order": 2 * g - 2}],
        },
        "basis": [
            {"name": d, "level": 0, "kind": "crossing", "edge": eid, "pairings": {eid: 1}}
            for d, eid in zip(names_d, edges)
        ]
        + [
            {"name": a, "level": 0, "kind": "noncrossing", "edge": None, "pairings": {}}
            for a in names_a
        ],
        "system": {
            "equations": equations,
            "ratios": [
                {"e": edges[k], "e'": edges[0], "q": rational_literal(q[k - 1])}
                for k in range(1, g)
            ],
            "relations": [
                {"coeffs": {a: "1"}, "lambda": {eid: "-1"}, "provenance": "declared"}
                for a, eid in zip(names_a, edges)
            ],
            "flags": {"real": True, "minimal_stratum": True},
            "nonvanishing": [],
        },
        "symplectic": {
            "J": j_matrix,
            "iota": iota,
            "u_lambda": {eid: unit(g + k, n) for k, eid in enumerate(edges)},
            "minimal": True,
        },
    }
