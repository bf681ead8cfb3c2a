"""Enhanced level graphs and their undegenerations.

A level graph is the dual graph of a degenerate flat surface: vertices carry a
genus and a level in {0, -1, ..., -L}, edges are horizontal (equal levels) or
vertical (a designated top end and an enhancement kappa >= 1), and markings
record the orders of zeros and poles.  Undegenerations partially smooth the
graph by keeping a subset of level passages and a subset of horizontal edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm

from .errors import GraphError, Violation


@dataclass(frozen=True)
class Vertex:
    id: str
    genus: int
    level: int


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, str]
    top: str | None = None
    kappa: int | None = None


@dataclass(frozen=True)
class Marking:
    vertex: str
    order: int


class EnhancedLevelGraph:
    """Immutable level graph with per-edge enhancements.

    Construction does not validate; run :func:`validate` and treat the graph
    as usable only when the violation list is empty.
    """

    def __init__(self, vertices, edges, markings):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.markings: tuple[Marking, ...] = tuple(markings)
        self._vertex_map = {v.id: v for v in self.vertices}
        self._edge_map = {e.id: e for e in self.edges}

    def vertex(self, vid: str) -> Vertex:
        return self._vertex_map[vid]

    def edge(self, eid: str) -> Edge:
        return self._edge_map[eid]

    def has_edge(self, eid: str) -> bool:
        return eid in self._edge_map

    def level(self, vid: str) -> int:
        return self._vertex_map[vid].level

    @property
    def depth(self) -> int:
        """Number of levels below zero, L."""
        if not self.vertices:
            return 0
        return -min(v.level for v in self.vertices)

    def is_horizontal(self, eid: str) -> bool:
        e = self._edge_map[eid]
        return self.level(e.ends[0]) == self.level(e.ends[1])

    @property
    def horizontal_edges(self) -> tuple[str, ...]:
        return tuple(sorted(e.id for e in self.edges if self.is_horizontal(e.id)))

    @property
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

    def crossing_edges(self, i: int) -> tuple[str, ...]:
        if i not in self.passage_indices():
            raise GraphError(f"no level passage {i} in a graph of depth {self.depth}")
        out = []
        for e in self.edges:
            if self.is_horizontal(e.id):
                continue
            if self.top_level(e.id) > i >= self.bottom_level(e.id):
                out.append(e.id)
        return tuple(sorted(out))

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adjacency: dict[str, set[str]] = {v.id: set() for v in self.vertices}
        for e in self.edges:
            a, b = e.ends
            if a in adjacency and b in adjacency:
                adjacency[a].add(b)
                adjacency[b].add(a)
        seen = {self.vertices[0].id}
        stack = [self.vertices[0].id]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.vertices)

    def total_genus(self) -> int:
        cycles = len(self.edges) - len(self.vertices) + 1
        return sum(v.genus for v in self.vertices) + cycles


@dataclass(frozen=True)
class LevelPassage:
    index: int
    crossing: tuple[str, ...]


def passages(graph: EnhancedLevelGraph) -> tuple[LevelPassage, ...]:
    return tuple(LevelPassage(i, graph.crossing_edges(i)) for i in graph.passage_indices())


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
    expected = set(range(0, lo - 1, -1))
    if levels != expected:
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
    return lcm(*(graph.edge(e).kappa for e in crossing))


def passage_weight(graph: EnhancedLevelGraph, eid: str, i: int) -> int:
    """Per-edge weight at a passage: lcm weight divided by the edge's kappa."""
    crossing = graph.crossing_edges(i)
    if eid not in crossing:
        raise GraphError(f"edge {eid} does not cross passage {i}")
    a = lcm_weight(graph, i)
    kappa = graph.edge(eid).kappa
    assert a % kappa == 0
    return a // kappa


def codim(graph: EnhancedLevelGraph) -> int:
    """Codimension of the boundary stratum: horizontal edges plus depth."""
    return len(graph.horizontal_edges) + graph.depth


@dataclass(frozen=True)
class Undegeneration:
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

    @property
    def depth(self) -> int:
        return len(self.kept_passages)

    @property
    def horizontal_count(self) -> int:
        return len(self.kept_horizontal)

    def new_level(self, old_level: int) -> int:
        return -sum(1 for p in self.kept_passages if p >= old_level)

    def surviving_vertical(self, graph: EnhancedLevelGraph) -> tuple[str, ...]:
        out = []
        for eid in graph.vertical_edges:
            top, bottom = graph.top_level(eid), graph.bottom_level(eid)
            if any(top > p >= bottom for p in self.kept_passages):
                out.append(eid)
        return tuple(sorted(out))

    def surviving_edges(self, graph: EnhancedLevelGraph) -> tuple[str, ...]:
        return tuple(sorted(self.kept_horizontal + self.surviving_vertical(graph)))

    def target_codim(self) -> int:
        return self.depth + self.horizontal_count

    def then(self, graph: EnhancedLevelGraph, second: "Undegeneration") -> "Undegeneration":
        """Compose with an undegeneration of the target graph.

        The second undegeneration names passages in the relabeled target
        levels; kept target passage -j corresponds to the j-th kept passage of
        this one, counted from the top.
        """
        ordered = sorted(self.kept_passages, reverse=True)
        kept = []
        for p2 in second.kept_passages:
            j = -p2
            if not 1 <= j <= len(ordered):
                raise GraphError(f"passage {p2} is not a passage of the target graph")
            kept.append(ordered[j - 1])
        for h in second.kept_horizontal:
            if h not in self.kept_horizontal:
                raise GraphError(f"edge {h} is not a horizontal edge of the target graph")
        return Undegeneration.make(kept, second.kept_horizontal)


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
    return [
        Undegeneration(p, h) for p in passage_subsets for h in horizontal_subsets
    ]


def top_vertices_have_horizontal(graph: EnhancedLevelGraph) -> bool:
    """Whether every level-0 vertex meets a horizontal edge."""
    covered: set[str] = set()
    for eid in graph.horizontal_edges:
        covered.update(graph.edge(eid).ends)
    return all(v.id in covered for v in graph.vertices if v.level == 0)
