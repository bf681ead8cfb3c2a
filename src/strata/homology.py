"""Adapted homology bases, extended cycles, and monodromy.

The coefficient model is an extended relative-homology space: a cycle is a
vector over the basis column layout, one Gaussian-rational coefficient per
basis element followed by one per vanishing cycle (edges by id).  Vanishing
cycles pair to zero with each other, so intersection pairings of any cycle
against an edge only see the basis part; the basis caches those pairings per
edge, as (column, pairing) terms, on first use.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import BasisError, Violation
from .gaussian import ONE, ZERO, GaussianRational
from .level_graph import EnhancedLevelGraph
from . import linalg

CROSSING = "crossing"
NONCROSSING = "noncrossing"


class BasisElement(NamedTuple):
    name: str
    level: int
    kind: str
    edge: str | None  # the paired horizontal edge, for crossing elements


class AdaptedBasis:
    """Ordered homology basis adapted to a level graph.

    Crossing elements meet exactly one horizontal vanishing cycle, with
    intersection 1; noncrossing elements meet none.  The stated top level and
    the full pairing table against every edge are input data.  The column
    layout and its index are fixed at construction; the level of each column
    and the per-edge pairing terms are derived on first use, since graphs are
    built before they are validated.
    """

    def __init__(self, graph: EnhancedLevelGraph, elements, pairings):
        self.graph = graph
        self.elements: tuple[BasisElement, ...] = tuple(elements)
        self._pairings: dict[str, dict[str, int]] = {
            name: dict(table) for name, table in pairings.items()
        }
        self.names: tuple[str, ...] = tuple([el.name for el in self.elements])
        self._columns: tuple[tuple[str, str], ...] = tuple(
            [("b", name) for name in self.names]
            + [("l", eid) for eid in sorted(e.id for e in graph.edges)]
        )
        self.column_index: dict[tuple[str, str], int] = {
            key: k for k, key in enumerate(self._columns)
        }

    def element(self, name: str) -> BasisElement:
        return self.elements[self.column_index[("b", name)]]

    def pairing(self, name: str, eid: str) -> int:
        return self._pairings.get(name, {}).get(eid, 0)

    def columns(self) -> tuple[tuple[str, str], ...]:
        """Column order for row reduction: basis elements, then edges by id."""
        return self._columns

    @cached_property
    def column_levels(self) -> tuple[int, ...]:
        """Level of each column: an element's level, an edge's carrier level."""
        return tuple(
            [
                self.element(key).level if kind == "b" else self.graph.edge_level(key)
                for kind, key in self._columns
            ]
        )

    @cached_property
    def pairing_terms(self) -> dict[str, tuple[tuple[int, GaussianRational], ...]]:
        """Per edge of the graph, the (column, pairing) terms of the basis
        elements with a nonzero pairing against it, in column order.  A
        pairing of 1 is held as ``ONE`` itself, which ``pair`` tests for."""
        terms: dict[str, list[tuple[int, GaussianRational]]] = {
            key: [] for kind, key in self._columns if kind == "l"
        }
        for col, name in enumerate(self.names):
            for eid, p in self._pairings.get(name, {}).items():
                if p and eid in terms:
                    terms[eid].append((col, ONE if p == 1 else GaussianRational(p)))
        return {eid: tuple(row) for eid, row in terms.items()}

    def crossing_element_for(self, eid: str) -> str | None:
        """The basis element paired with a horizontal edge, if any."""
        for el in self.elements:
            if el.kind == CROSSING and el.edge == eid:
                return el.name
        return None

    def zero(self) -> "Cycle":
        return Cycle(self)


def validate_adapted(basis: AdaptedBasis, graph: EnhancedLevelGraph) -> list[Violation]:
    """Adaptedness invariants of a basis against its graph."""
    out: list[Violation] = []
    horizontal = set(graph.horizontal_edges)
    levels = set(range(0, -graph.depth - 1, -1))
    seen: set[str] = set()
    paired: dict[str, str] = {}

    for el in basis.elements:
        subject = f"basis element {el.name}"
        if el.name in seen:
            out.append(Violation(subject, "unique-names", "duplicate name"))
        seen.add(el.name)
        if graph.has_edge(el.name):
            out.append(Violation(subject, "namespace", "name collides with an edge id"))
        if el.level not in levels:
            out.append(Violation(subject, "level", f"level {el.level} not a graph level"))
        if el.kind not in (CROSSING, NONCROSSING):
            out.append(Violation(subject, "kind", f"unknown kind {el.kind!r}"))
            continue
        pairings = basis._pairings.get(el.name, {})
        for eid in pairings:
            if not graph.has_edge(eid):
                out.append(Violation(subject, "pairings", f"pairing with unknown edge {eid}"))
        if el.kind == CROSSING:
            if el.edge is None or el.edge not in horizontal:
                out.append(
                    Violation(subject, "paired-edge", "crossing element needs a horizontal edge")
                )
                continue
            if el.edge in paired:
                out.append(
                    Violation(
                        subject, "paired-edge",
                        f"edge {el.edge} already paired with {paired[el.edge]}",
                    )
                )
            paired[el.edge] = el.name
            if graph.edge_level(el.edge) != el.level:
                out.append(
                    Violation(
                        subject, "paired-edge",
                        f"paired edge {el.edge} sits at level {graph.edge_level(el.edge)},"
                        f" element declares {el.level}",
                    )
                )
        elif el.edge is not None:
            out.append(Violation(subject, "paired-edge", "noncrossing element names an edge"))
        # The nonzero horizontal pairings against the table they should be; edge by edge only on a mismatch.
        want = {el.edge: 1} if el.kind == CROSSING else {}
        if {eid: p for eid, p in pairings.items() if p and eid in horizontal} != want:
            for eid in graph.horizontal_edges:
                got, expected = basis.pairing(el.name, eid), want.get(eid, 0)
                if got != expected:
                    text = f"pairing with {eid} is {got}, expected {expected}"
                    if el.kind == NONCROSSING:
                        text = f"nonzero pairing with horizontal edge {eid}"
                    out.append(Violation(subject, f"{el.kind}-pairings", text))

    key = [(-el.level, 0 if el.kind == CROSSING else 1, el.name) for el in basis.elements]
    if key != sorted(key):
        out.append(
            Violation(
                "basis", "ordering",
                "elements must be ordered by top level descending,"
                " crossing before noncrossing, then by name",
            )
        )
    return out


class Cycle:
    """Element of the extended coefficient space over a fixed adapted basis:
    an immutable vector with one entry per column of ``basis.columns()``."""

    __slots__ = ("basis", "vector")

    def __init__(self, basis: AdaptedBasis, coeffs: Mapping | None = None, lam: Mapping | None = None):
        vector = [ZERO] * len(basis.columns())
        index = basis.column_index
        for kind, table, what in (("b", coeffs, "basis element"), ("l", lam, "edge")):
            for key, c in (table or {}).items():
                col = index.get((kind, key))
                if col is None:
                    raise BasisError(f"unknown {what} {key}")
                vector[col] = c if isinstance(c, GaussianRational) else GaussianRational(c)
        self.basis = basis
        self.vector: tuple[GaussianRational, ...] = tuple(vector)

    @classmethod
    def from_vector(cls, basis: AdaptedBasis, vector) -> "Cycle":
        """The cycle with these column entries; a tuple is kept as it is."""
        vector = tuple(vector)
        if len(vector) != len(basis.columns()):
            raise BasisError(f"vector of length {len(vector)} for {len(basis.columns())} columns")
        cycle = object.__new__(cls)
        cycle.basis, cycle.vector = basis, vector
        return cycle

    @property
    def coeffs(self) -> Mapping[str, GaussianRational]:
        """Nonzero basis-element coefficients by name (a read-only view)."""
        return MappingProxyType({n: c for n, c in zip(self.basis.names, self.vector) if c.a or c.b})

    @property
    def lam(self) -> Mapping[str, GaussianRational]:
        """Nonzero vanishing-cycle coefficients by edge id (a read-only view)."""
        n = len(self.basis.names)
        tail = zip(self.basis.columns()[n:], self.vector[n:])
        return MappingProxyType({e: c for (_, e), c in tail if c.a or c.b})

    def to_vector(self) -> linalg.Vector:
        return list(self.vector)

    def _check_compatible(self, other: "Cycle") -> None:
        if self.basis is not other.basis:
            raise BasisError("cycles over different bases")

    def __add__(self, other: "Cycle") -> "Cycle":
        self._check_compatible(other)
        # Where one entry is zero, the other is kept as it is.
        vector = [(x + y if y.a or y.b else x) if x.a or x.b else y for x, y in zip(self.vector, other.vector)]
        return Cycle.from_vector(self.basis, vector)

    def __sub__(self, other: "Cycle") -> "Cycle":
        self._check_compatible(other)
        pairs = zip(self.vector, other.vector)
        return Cycle.from_vector(self.basis, [x - y if y.a or y.b else x for x, y in pairs])

    def scale(self, c) -> "Cycle":
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        return Cycle.from_vector(self.basis, [c * x if x.a or x.b else x for x in self.vector])

    def __neg__(self) -> "Cycle":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return not any(x.a or x.b for x in self.vector)

    def is_lambda_only(self) -> bool:
        return not any(x.a or x.b for x in self.vector[: len(self.basis.names)])

    def is_real(self) -> bool:
        return not any([c.b for c in self.vector])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cycle):
            return NotImplemented
        return self.basis is other.basis and self.vector == other.vector

    def render(self) -> str:
        """Human form, e.g. ``g1 - g2 + 2*lambda[e1]``."""
        parts: list[str] = []
        for (kind, key), c in zip(self.basis.columns(), self.vector):
            if c:
                symbol = key if kind == "b" else f"lambda[{key}]"
                parts.append(_render_term(c, symbol, first=not parts))
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<Cycle {self.render()}>"


def _render_term(c: GaussianRational, symbol: str, first: bool) -> str:
    if c.is_real():
        sign = "-" if c.a < 0 else "+"
        mag = -c if c.a < 0 else c
        body = symbol if mag == ONE else f"{mag}*{symbol}"
    else:
        sign = "+"
        body = f"({c})*{symbol}"
    if first:
        return body if sign == "+" else f"-{body}"
    return f"{sign} {body}"


def pair(cycle: Cycle, eid: str) -> GaussianRational:
    """Intersection pairing of a cycle with the vanishing cycle of an edge.

    Extends the basis pairing table bilinearly over the cached pairing terms;
    vanishing cycles are disjoint seams, so the lambda entries contribute
    nothing.  An edge met by one element with pairing 1, as every horizontal
    edge of an adapted basis is, pairs to that element's coefficient.
    """
    terms = cycle.basis.pairing_terms.get(eid)
    if terms is None:
        raise BasisError(f"unknown edge {eid}")
    vector = cycle.vector
    if len(terms) == 1 and terms[0][1] is ONE:
        return vector[terms[0][0]]
    total = ZERO
    for col, p in terms:
        c = vector[col]
        if c:
            total = total + c * p
    return total


def picard_lefschetz(cycle: Cycle, n: Mapping[str, int]) -> Cycle:
    """Monodromy along a degenerating loop with winding numbers ``n``.

    Sends the cycle to itself plus ``n_e * <cycle, lambda_e> * lambda_e``
    summed over edges; basis coefficients never change, and pairings against
    every vanishing cycle are preserved.
    """
    vector = list(cycle.vector)
    for eid, winding in n.items():
        if winding < 0:
            raise BasisError(f"negative winding number for edge {eid}")
        if winding == 0:
            continue
        hit = pair(cycle, eid) * GaussianRational(winding)
        if hit:
            col = cycle.basis.column_index[("l", eid)]
            vector[col] = vector[col] + hit
    return Cycle.from_vector(cycle.basis, vector)

