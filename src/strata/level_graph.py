"""Enhanced level graphs and their undegenerations.

A level graph is the dual graph of a degenerate flat surface: vertices carry a
genus and a level in {0, -1, ..., -L}, edges are horizontal (equal levels) or
vertical (a designated top end and an enhancement kappa >= 1), and markings
record the orders of zeros and poles.  Undegenerations partially smooth the
graph by keeping a subset of level passages and a subset of horizontal edges.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import NamedTuple

from .errors import GraphError, Violation
from .gaussian import GaussianRational


class Vertex(NamedTuple):
    id: str
    genus: int
    level: int


class Edge(NamedTuple):
    id: str
    ends: tuple[str, str]
    top: str | None = None
    kappa: int | None = None


class Marking(NamedTuple):
    vertex: str
    order: int


class EnhancedLevelGraph:
    """Immutable level graph with per-edge enhancements.

    Construction does not validate; run :func:`validate` and treat the graph
    as usable only when the violation list is empty.  Derived data (depth,
    the horizontal and vertical edge tuples, the edges crossing each passage)
    is computed on first use and kept, since the graph never changes.
    """

    def __init__(self, vertices, edges, markings):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.markings: tuple[Marking, ...] = tuple(markings)
        self._vertex_map = {v.id: v for v in self.vertices}
        self._edge_map = {e.id: e for e in self.edges}
        self._weights: dict[int, dict[str, GaussianRational]] = {}

    def edge(self, eid: str) -> Edge:
        return self._edge_map[eid]

    def has_edge(self, eid: str) -> bool:
        return eid in self._edge_map

    def level(self, vid: str) -> int:
        return self._vertex_map[vid].level

    @cached_property
    def depth(self) -> int:
        """Number of levels below zero, L."""
        if not self.vertices:
            return 0
        return -min(v.level for v in self.vertices)

    def is_horizontal(self, eid: str) -> bool:
        e = self._edge_map[eid]
        return self.level(e.ends[0]) == self.level(e.ends[1])

    @cached_property
    def horizontal_edges(self) -> tuple[str, ...]:
        return tuple(sorted(e.id for e in self.edges if self.is_horizontal(e.id)))

    @cached_property
    def vertical_edges(self) -> tuple[str, ...]:
        return tuple(sorted(e.id for e in self.edges if not self.is_horizontal(e.id)))

    def top_level(self, eid: str) -> int:
        e = self._edge_map[eid]
        return max(self.level(e.ends[0]), self.level(e.ends[1]))

    def bottom_level(self, eid: str) -> int:
        e = self._edge_map[eid]
        return min(self.level(e.ends[0]), self.level(e.ends[1]))

    def edge_level(self, eid: str) -> int:
        """Carrier level of a vanishing cycle: the common level of a
        horizontal edge, the bottom level of a vertical one."""
        return self.bottom_level(eid)

    def passage_indices(self) -> tuple[int, ...]:
        """Passage i sits between levels i+1 and i, for i in {-1, ..., -L}."""
        return tuple(range(-1, -self.depth - 1, -1))

    @cached_property
    def _crossing(self) -> dict[int, tuple[str, ...]]:
        return {
            i: tuple([e for e in self.vertical_edges if self.top_level(e) > i >= self.bottom_level(e)])
            for i in self.passage_indices()
        }

    def crossing_edges(self, i: int) -> tuple[str, ...]:
        if i not in self._crossing:
            raise GraphError(f"no level passage {i} in a graph of depth {self.depth}")
        return self._crossing[i]

    def passage_weights(self, i: int) -> dict[str, GaussianRational]:
        """Each crossing edge's weight at a passage (its lcm weight over the
        edge's kappa), in ``crossing_edges`` order; kept from first use."""
        weights = self._weights.get(i)
        if weights is None:
            a = lcm_weight(self, i)
            weights = self._weights[i] = {
                e: GaussianRational(a // self.edge(e).kappa) for e in self.crossing_edges(i)
            }
        return weights

    def is_connected(self) -> bool:
        """Whether the edges leave one class of vertices, with no vertex id used twice."""
        ids = self._vertex_map
        links = [e.ends for e in self.edges]
        return len(ids) == len(self.vertices) and len(components(ids, links)) == 1


def components(items, links) -> tuple[frozenset, ...]:
    """The classes of ``items`` under the equivalence the ``links`` generate
    (each link joins those of its members that are items), by least member."""
    owner = {x: [x] for x in items}
    for link in links:
        joined = None
        for x in link:
            cls = owner.get(x, joined)
            if joined is None:
                joined = cls
            elif cls is not joined:
                joined += cls
                for y in cls:
                    owner[y] = joined
    classes = {id(cls): cls for cls in owner.values()}.values()
    return tuple(sorted(map(frozenset, classes), key=min))


def validate(graph: EnhancedLevelGraph) -> list[Violation]:
    """All level-graph invariants; an empty list means the graph is usable."""
    out: list[Violation] = []
    seen_v: set[str] = set()
    for v in graph.vertices:
        if v.id in seen_v:
            out.append(Violation(f"vertex {v.id}", "unique-ids", "duplicate vertex id"))
        seen_v.add(v.id)
        if v.genus < 0:
            out.append(Violation(f"vertex {v.id}", "genus", f"negative genus {v.genus}"))
        if v.level > 0:
            out.append(Violation(f"vertex {v.id}", "levels", f"level {v.level} above zero"))
    if not graph.vertices:
        out.append(Violation("graph", "nonempty", "graph has no vertices"))
        return out

    levels = {v.level for v in graph.vertices}
    lo = min(levels)
    if max(levels) != 0 or len(levels) != 1 - lo:  # levels is not {0, -1, ..., lo}
        out.append(
            Violation(
                "graph", "levels",
                f"level map is not surjective onto {{0,...,{lo}}}: levels used {sorted(levels)}",
            )
        )

    seen_e: set[str] = set()
    for e in graph.edges:
        subject = f"edge {e.id}"
        if e.id in seen_e:
            out.append(Violation(subject, "unique-ids", "duplicate edge id"))
        seen_e.add(e.id)
        missing = [v for v in e.ends if v not in graph._vertex_map]
        if missing:
            out.append(Violation(subject, "endpoints", f"unknown vertex {missing[0]}"))
            continue
        la, lb = graph.level(e.ends[0]), graph.level(e.ends[1])
        if la == lb:
            if e.top is not None or e.kappa is not None:
                out.append(Violation(subject, "kind", "equal levels but kind vertical"))
        else:
            if e.kappa is None:
                out.append(Violation(subject, "enhancement", "vertical edge without kappa"))
            elif e.kappa < 1:
                out.append(Violation(subject, "enhancement", f"kappa {e.kappa} < 1"))
            top = e.ends[0] if la > lb else e.ends[1]
            if e.top is None:
                out.append(Violation(subject, "orientation", "vertical edge without top end"))
            elif e.top != top:
                out.append(Violation(subject, "orientation", f"top end must be {top}"))

    for m in graph.markings:
        if m.vertex not in graph._vertex_map:
            out.append(Violation(f"marking on {m.vertex}", "endpoints", "unknown vertex"))

    if any(v.rule in ("endpoints", "unique-ids", "kind", "enhancement", "orientation") for v in out):
        return out

    # Per-vertex order balance: markings plus edge-end orders sum to 2g - 2.
    balance = {v.id: 0 for v in graph.vertices}
    for m in graph.markings:
        balance[m.vertex] += m.order
    for e in graph.edges:
        if graph.is_horizontal(e.id):
            for end in e.ends:
                balance[end] -= 1
        else:
            kappa = e.kappa or 1
            bottom = e.ends[0] if e.top == e.ends[1] else e.ends[1]
            balance[e.top] += kappa - 1
            balance[bottom] += -kappa - 1
    for v in graph.vertices:
        want = 2 * v.genus - 2
        if balance[v.id] != want:
            out.append(
                Violation(
                    f"vertex {v.id}", "order-balance",
                    f"orders sum to {balance[v.id]}, expected {want}",
                )
            )

    if not graph.is_connected():
        out.append(Violation("graph", "connected", "graph is disconnected"))
    return out


def lcm_weight(graph: EnhancedLevelGraph, i: int) -> int:
    """The common scaling weight of a passage: lcm of kappa over crossing edges."""
    crossing = graph.crossing_edges(i)
    if not crossing:
        raise GraphError(f"disconnected level passage {i}")
    return lcm(*[graph.edge(e).kappa for e in crossing])


def passage_weight(graph: EnhancedLevelGraph, eid: str, i: int) -> int:
    """Per-edge weight at a passage: lcm weight divided by the edge's kappa."""
    if eid not in graph.crossing_edges(i):
        raise GraphError(f"edge {eid} does not cross passage {i}")
    return graph.passage_weights(i)[eid].a


def codim(graph: EnhancedLevelGraph) -> int:
    """Codimension of the boundary stratum: horizontal edges plus depth."""
    return len(graph.horizontal_edges) + graph.depth


class Undegeneration(NamedTuple):
    """Partial smoothing: keep some passages and some horizontal edges.

    Vertical edges all of whose crossed passages are smoothed disappear; they
    are never converted to horizontal edges.  Levels relabel through the
    unique order-preserving surjection onto {0, ..., -|kept passages|}.
    """

    kept_passages: tuple[int, ...]
    kept_horizontal: tuple[str, ...]

    @staticmethod
    def make(passages_kept, horizontal_kept) -> "Undegeneration":
        return Undegeneration(tuple(sorted(passages_kept)), tuple(sorted(horizontal_kept)))

    def new_level(self, old_level: int) -> int:
        return -sum(1 for p in self.kept_passages if p >= old_level)


def _subsets(items) -> list[tuple]:
    """Every subset of the sorted ``items`` as a sorted tuple, in lexicographic order.

    For items x, *rest the order is (), then x joined to each subset of rest,
    then the nonempty subsets of rest; built from the last item forwards.
    """
    out: list[tuple] = [()]
    for x in reversed(items):
        out = [(), *[(x, *s) for s in out], *out[1:]]
    return out


def enumerate_undegenerations(graph: EnhancedLevelGraph) -> list[Undegeneration]:
    """Every (kept passages, kept horizontal) choice, lexicographic on kept-sets."""
    horizontal_subsets = _subsets(graph.horizontal_edges)
    return [
        Undegeneration(p, h)
        for p in _subsets(sorted(graph.passage_indices()))
        for h in horizontal_subsets
    ]

