"""Reference implementation kept as the oracle for ``strata.level_graph``.

``enumerate_undegenerations`` is the enumerator ``strata.level_graph`` used
before it built the kept-sets in lexicographic order directly: every subset
from ``itertools.combinations``, size by size, each sorted, and then the
whole list sorted, once for the passages and once for the horizontal edges.

``is_connected`` is ``EnhancedLevelGraph.is_connected`` as it was before it
counted the classes of ``strata.level_graph.components``: a depth-first search
from the first vertex over an adjacency table, edges with an unknown endpoint
skipped, compared against the vertex count (so a repeated vertex id reads as
disconnected).
"""

from __future__ import annotations

from itertools import combinations

from strata.level_graph import EnhancedLevelGraph, Undegeneration


def enumerate_undegenerations(graph: EnhancedLevelGraph) -> list[Undegeneration]:
    """Every (kept passages, kept horizontal) choice, lexicographic on kept-sets."""
    passage_ids = sorted(graph.passage_indices())
    horizontals = list(graph.horizontal_edges)
    passage_subsets = sorted(
        (tuple(sorted(s)) for n in range(len(passage_ids) + 1) for s in combinations(passage_ids, n))
    )
    horizontal_subsets = sorted(
        (tuple(sorted(s)) for n in range(len(horizontals) + 1) for s in combinations(horizontals, n))
    )
    return [Undegeneration(p, h) for p in passage_subsets for h in horizontal_subsets]


def is_connected(graph: EnhancedLevelGraph) -> bool:
    if not graph.vertices:
        return False
    adjacency: dict[str, set[str]] = {v.id: set() for v in graph.vertices}
    for e in graph.edges:
        a, b = e.ends
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = {graph.vertices[0].id}
    stack = [graph.vertices[0].id]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(graph.vertices)
