"""Adapted homology bases, extended cycles, and monodromy.

The coefficient model is an extended relative-homology space: a cycle carries
one Gaussian-rational coefficient per basis element plus one per vanishing
cycle (indexed by edge).  Vanishing cycles pair to zero with each other, so
intersection pairings of any cycle against an edge only see the basis part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import BasisError, Violation
from .gaussian import ZERO, GaussianRational
from .level_graph import EnhancedLevelGraph
from . import linalg

CROSSING = "crossing"
NONCROSSING = "noncrossing"


@dataclass(frozen=True)
class BasisElement:
    name: str
    level: int
    kind: str
    edge: str | None  # the paired horizontal edge, for crossing elements


class AdaptedBasis:
    """Ordered homology basis adapted to a level graph.

    Crossing elements meet exactly one horizontal vanishing cycle, with
    intersection 1; noncrossing elements meet none.  The stated top level and
    the full pairing table against every edge are input data.  The column
    layout is fixed at construction; the level of each column is read from
    the graph on first use, since graphs are built before they are validated.
    """

    def __init__(self, graph: EnhancedLevelGraph, elements, pairings):
        self.graph = graph
        self.elements: tuple[BasisElement, ...] = tuple(elements)
        self._pairings: dict[str, dict[str, int]] = {
            name: dict(table) for name, table in pairings.items()
        }
        self._index = {el.name: k for k, el in enumerate(self.elements)}
        self.names: tuple[str, ...] = tuple([el.name for el in self.elements])
        self._columns: tuple[tuple[str, str], ...] = tuple(
            [("b", name) for name in self.names]
            + [("l", eid) for eid in sorted(e.id for e in graph.edges)]
        )

    def element(self, name: str) -> BasisElement:
        return self.elements[self._index[name]]

    def has_element(self, name: str) -> bool:
        return name in self._index

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

    def crossing_element_for(self, eid: str) -> str | None:
        """The basis element paired with a horizontal edge, if any."""
        for el in self.elements:
            if el.kind == CROSSING and el.edge == eid:
                return el.name
        return None

    def zero(self) -> "Cycle":
        return Cycle(self, {}, {})

    def cycle(self, coeffs=None, lam=None) -> "Cycle":
        return Cycle(self, coeffs or {}, lam or {})


def validate_adapted(basis: AdaptedBasis, graph: EnhancedLevelGraph) -> list[Violation]:
    """Adaptedness invariants of a basis against its graph."""
    out: list[Violation] = []
    horizontal = set(graph.horizontal_edges)
    edge_ids = {e.id for e in graph.edges}
    levels = set(range(0, -graph.depth - 1, -1))
    seen: set[str] = set()
    paired: dict[str, str] = {}

    for el in basis.elements:
        subject = f"basis element {el.name}"
        if el.name in seen:
            out.append(Violation(subject, "unique-names", "duplicate name"))
        seen.add(el.name)
        if el.name in edge_ids:
            out.append(Violation(subject, "namespace", "name collides with an edge id"))
        if el.level not in levels:
            out.append(Violation(subject, "level", f"level {el.level} not a graph level"))
        if el.kind not in (CROSSING, NONCROSSING):
            out.append(Violation(subject, "kind", f"unknown kind {el.kind!r}"))
            continue
        for eid in basis._pairings.get(el.name, {}):
            if eid not in edge_ids:
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
            for eid in horizontal:
                want = 1 if eid == el.edge else 0
                got = basis.pairing(el.name, eid)
                if got != want:
                    out.append(
                        Violation(
                            subject, "crossing-pairings",
                            f"pairing with {eid} is {got}, expected {want}",
                        )
                    )
        else:
            if el.edge is not None:
                out.append(Violation(subject, "paired-edge", "noncrossing element names an edge"))
            for eid in horizontal:
                if basis.pairing(el.name, eid) != 0:
                    out.append(
                        Violation(
                            subject, "noncrossing-pairings",
                            f"nonzero pairing with horizontal edge {eid}",
                        )
                    )

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
    """Element of the extended coefficient space over a fixed adapted basis."""

    __slots__ = ("basis", "coeffs", "lam")

    def __init__(self, basis: AdaptedBasis, coeffs: Mapping | None = None, lam: Mapping | None = None):
        self.basis = basis
        self.coeffs: dict[str, GaussianRational] = {}
        self.lam: dict[str, GaussianRational] = {}
        for name, c in (coeffs or {}).items():
            if not basis.has_element(name):
                raise BasisError(f"unknown basis element {name}")
            c = c if isinstance(c, GaussianRational) else GaussianRational(c)
            if c:
                self.coeffs[name] = c
        for eid, c in (lam or {}).items():
            if not basis.graph.has_edge(eid):
                raise BasisError(f"unknown edge {eid}")
            c = c if isinstance(c, GaussianRational) else GaussianRational(c)
            if c:
                self.lam[eid] = c

    def _check_compatible(self, other: "Cycle") -> None:
        if self.basis is not other.basis:
            raise BasisError("cycles over different bases")

    def __add__(self, other: "Cycle") -> "Cycle":
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, ZERO) + v
        lam = dict(self.lam)
        for k, v in other.lam.items():
            lam[k] = lam.get(k, ZERO) + v
        return Cycle(self.basis, coeffs, lam)

    def __sub__(self, other: "Cycle") -> "Cycle":
        return self + other.scale(GaussianRational(-1))

    def scale(self, c) -> "Cycle":
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        return Cycle(
            self.basis,
            {k: c * v for k, v in self.coeffs.items()},
            {k: c * v for k, v in self.lam.items()},
        )

    def __neg__(self) -> "Cycle":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return not self.coeffs and not self.lam

    def is_lambda_only(self) -> bool:
        return not self.coeffs

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.coeffs.values()) and all(
            c.is_real() for c in self.lam.values()
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cycle):
            return NotImplemented
        return self.basis is other.basis and self.coeffs == other.coeffs and self.lam == other.lam

    def carriers(self) -> list[tuple[str, str]]:
        """Nonzero carriers in column order, as ("b"|"l", name) keys."""
        return [("b", n) for n in self.basis.names if n in self.coeffs] + [
            ("l", e) for e in sorted(self.lam)
        ]

    def to_vector(self) -> linalg.Vector:
        out = []
        for kind, key in self.basis.columns():
            table = self.coeffs if kind == "b" else self.lam
            out.append(table.get(key, ZERO))
        return out

    @classmethod
    def from_vector(cls, basis: AdaptedBasis, vector) -> "Cycle":
        coeffs: dict[str, GaussianRational] = {}
        lam: dict[str, GaussianRational] = {}
        for (kind, key), value in zip(basis.columns(), vector):
            if not value:
                continue
            (coeffs if kind == "b" else lam)[key] = value
        return cls(basis, coeffs, lam)

    def render(self) -> str:
        """Human form, e.g. ``g1 - g2 + 2*lambda[e1]``."""
        parts: list[str] = []
        for kind, key in self.carriers():
            c = self.coeffs[key] if kind == "b" else self.lam[key]
            symbol = key if kind == "b" else f"lambda[{key}]"
            parts.append(_render_term(c, symbol, first=not parts))
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<Cycle {self.render()}>"


def _render_term(c: GaussianRational, symbol: str, first: bool) -> str:
    if c.is_real():
        sign = "-" if c.re < 0 else "+"
        mag = abs(c.re)
        body = symbol if mag == 1 else f"{mag}*{symbol}"
    else:
        sign = "+"
        body = f"({c})*{symbol}"
    if first:
        return body if sign == "+" else f"-{body}"
    return f"{sign} {body}"


def pair(cycle: Cycle, eid: str) -> GaussianRational:
    """Intersection pairing of a cycle with the vanishing cycle of an edge.

    Extends the basis pairing table bilinearly; vanishing cycles are disjoint
    seams, so the lambda components contribute nothing.
    """
    if not cycle.basis.graph.has_edge(eid):
        raise BasisError(f"unknown edge {eid}")
    total = ZERO
    for name, c in cycle.coeffs.items():
        p = cycle.basis.pairing(name, eid)
        if p:
            total = total + c * GaussianRational(p)
    return total


def picard_lefschetz(cycle: Cycle, n: Mapping[str, int]) -> Cycle:
    """Monodromy along a degenerating loop with winding numbers ``n``.

    Sends the cycle to itself plus ``n_e * <cycle, lambda_e> * lambda_e``
    summed over edges; basis coefficients never change, and pairings against
    every vanishing cycle are preserved.
    """
    lam = dict(cycle.lam)
    for eid, winding in n.items():
        if winding < 0:
            raise BasisError(f"negative winding number for edge {eid}")
        if winding == 0:
            continue
        hit = pair(cycle, eid) * GaussianRational(winding)
        if hit:
            lam[eid] = lam.get(eid, ZERO) + hit
    return Cycle(cycle.basis, cycle.coeffs, lam)


DECLARED = "declared"
DERIVED = "derived"


class LambdaRelationSet:
    """Homogeneous linear relations among period symbols.

    Each relation is a cycle asserted to have identically vanishing period;
    relations may mix vanishing-cycle symbols with basis-element symbols (for
    declared absolute-homology identities).  The set keeps its reduced echelon
    form against the ambient column order.
    """

    def __init__(self, basis: AdaptedBasis, relations: Iterable[tuple[Cycle, str]] = ()):
        self.basis = basis
        self.relations: tuple[tuple[Cycle, str], ...] = tuple(
            [(c, provenance) for c, provenance in relations]
        )
        rows = [c.to_vector() for c, _ in self.relations]
        self._rows, self._pivots = linalg.rref(rows)

    def with_added(self, extra: Iterable[tuple[Cycle, str]]) -> "LambdaRelationSet":
        return LambdaRelationSet(self.basis, list(self.relations) + list(extra))

    @property
    def echelon(self) -> list[Cycle]:
        return [Cycle.from_vector(self.basis, row) for row in self._rows]

    def reduce(self, cycle: Cycle) -> Cycle:
        """Canonical residual of a cycle modulo the relation span."""
        residual = linalg.reduce_vector(cycle.to_vector(), self._rows, self._pivots)
        return Cycle.from_vector(self.basis, residual)

    def contains(self, cycle: Cycle) -> bool:
        return self.reduce(cycle).is_zero()
