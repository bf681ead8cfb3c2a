"""Reference implementation kept as the oracle for ``strata.homology``.

``Cycle`` here is the dict-based extended cycle that ``strata.homology`` used
before a cycle became one vector over the basis column layout: two dicts of
nonzero coefficients, ``coeffs`` by basis-element name and ``lam`` by edge
id, converted to and from column vectors on demand.  ``pair`` walks the
coefficient dict against the basis pairing table on every call, and
``picard_lefschetz`` adds the monodromy terms into a copy of ``lam``.
``evaluate`` is ``strata.periods.evaluate`` as it read those dicts: basis
terms first, then edge terms, each in dict order.

``RelationFold`` is the relation span as a set of cycles, before the span
became an echelon form and then a bare ``(rows, pivots)`` pair: it keeps every
relation it was given, and ``with_added`` row-reduces all of them again.
``relation_fold`` builds a system's reduction span that way from its inputs
(declared relations, ratio forms, pure-period rref rows), and
``single_lambda_term`` reads a cycle's lone lambda term as the engine did
before it read row vectors.  ``refolding_report`` is ``consistency_report``
with R2 and R5 read off a ``RelationFold``, so the R2 fold under
``assume_theorems`` rebuilds the span from every cycle at each step.

``validate_adapted`` is ``strata.homology.validate_adapted`` as it was before
it compared each element's horizontal pairings with the expected table once:
it reads the pairing against every horizontal edge, for every element.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from strata import homology, linalg
from strata.equations import ConsistencyCertificate, EquationSystem, proportionality_obligations
from strata.errors import BasisError, Violation
from strata.gaussian import ONE, ZERO, GaussianRational
from strata.homology import CROSSING, NONCROSSING, AdaptedBasis, _render_term
from strata.level_graph import EnhancedLevelGraph


class Cycle:
    """Element of the extended coefficient space over a fixed adapted basis."""

    __slots__ = ("basis", "coeffs", "lam")

    def __init__(self, basis: AdaptedBasis, coeffs: Mapping | None = None, lam: Mapping | None = None):
        self.basis = basis
        self.coeffs: dict[str, GaussianRational] = {}
        self.lam: dict[str, GaussianRational] = {}
        for name, c in (coeffs or {}).items():
            if name not in basis.names:
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

    def to_vector(self) -> list[GaussianRational]:
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
        parts: list[str] = []
        for kind, key in self.carriers():
            c = self.coeffs[key] if kind == "b" else self.lam[key]
            symbol = key if kind == "b" else f"lambda[{key}]"
            parts.append(_render_term(c, symbol, first=not parts))
        return " ".join(parts) if parts else "0"


def pair(cycle: Cycle, eid: str) -> GaussianRational:
    """Intersection pairing of a cycle with the vanishing cycle of an edge."""
    if not cycle.basis.graph.has_edge(eid):
        raise BasisError(f"unknown edge {eid}")
    total = ZERO
    for name, c in cycle.coeffs.items():
        p = cycle.basis.pairing(name, eid)
        if p:
            total = total + c * GaussianRational(p)
    return total


def picard_lefschetz(cycle: Cycle, n: Mapping[str, int]) -> Cycle:
    """Monodromy along a degenerating loop with winding numbers ``n``."""
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


def evaluate(cycle: Cycle, assignment):
    """Period of a cycle under a ``strata.periods.PeriodAssignment``."""
    if assignment.exact:
        total = ZERO
        for name, c in cycle.coeffs.items():
            total = total + c * assignment.value("b", name)
        for eid, c in cycle.lam.items():
            total = total + c * assignment.value("l", eid)
        return total
    total = 0j
    for name, c in cycle.coeffs.items():
        total += c.to_complex() * assignment.value("b", name)
    for eid, c in cycle.lam.items():
        total += c.to_complex() * assignment.value("l", eid)
    return total


class RelationFold:
    """The span of every relation given, rebuilt from all of them on each addition."""

    def __init__(self, basis: AdaptedBasis, cycles: Iterable[homology.Cycle] = ()):
        self.basis = basis
        self.cycles = tuple(cycles)
        self._rows, self._pivots = linalg.rref([c.vector for c in self.cycles])

    def with_added(self, cycles: Iterable[homology.Cycle]) -> "RelationFold":
        return RelationFold(self.basis, self.cycles + tuple(cycles))

    @property
    def echelon(self) -> list[homology.Cycle]:
        return [homology.Cycle.from_vector(self.basis, row) for row in self._rows]

    def reduce(self, cycle: homology.Cycle) -> homology.Cycle:
        residual = linalg.reduce_vector(cycle.vector, self._rows, self._pivots)
        return homology.Cycle.from_vector(self.basis, residual)

    def contains(self, cycle: homology.Cycle) -> bool:
        return self.reduce(cycle).is_zero()


def relation_fold(system: EquationSystem) -> RelationFold:
    """The span of a system's declared relations, ratio forms and pure-period rows."""
    pure = [eq.cycle for eq in system.rref_rows if eq.cycle.is_lambda_only()]
    return RelationFold(system.basis, [*system.relations, *system.ratio_forms, *pure])


def single_lambda_term(cycle: homology.Cycle) -> str | None:
    carriers = [column for column, c in zip(cycle.basis.columns(), cycle.vector) if c]
    return carriers[0][1] if len(carriers) == 1 and carriers[0][0] == "l" else None


def refolding_report(system: EquationSystem, assume_theorems: bool = False) -> ConsistencyCertificate:
    def refuse(rule, forced=None):
        return ConsistencyCertificate("inconsistent", rule, forced, (), tuple(trace))

    def unit(eid):
        return homology.Cycle(system.basis, {}, {eid: ONE})

    trace: list[str] = []
    graph = system.graph
    for j, eq in enumerate(system.rref_rows):
        if len(eq.hor_support) == 1:
            (eid,) = eq.hor_support
            trace.append(f"R1: row {j} crosses only the horizontal node {eid}")
            return refuse("R1", unit(eid))
    trace.append("R1: every horizontal-crossing row crosses at least two nodes")
    relations = relation_fold(system)
    for j, i, form in system.residue_forms:
        residual = relations.reduce(form)
        if residual.is_zero():
            continue
        eid = single_lambda_term(residual)
        if eid in system.nonvanishing:
            trace.append(f"R2: row {j} at passage {i} forces {unit(eid).render()} = 0 with {eid} nonvanishing")
            return refuse("R2", unit(eid))
        if assume_theorems:
            relations = relations.with_added([form])
    trace.append(f"R2: {len(system.residue_forms)} residue forms reduce without forcing a nonvanishing period")
    for cls in system.cross_equivalence_classes:
        levels = {graph.edge_level(e) for e in cls}
        if len(levels) > 1:
            trace.append(f"R3: class {sorted(cls)} spans levels {sorted(levels)}")
            return refuse("R3")
    trace.append("R3: every cross-equivalence class lies at a single level")
    for j, eq in enumerate(system.rref_rows):
        below = [e for e in eq.hor_support if graph.edge_level(e) < eq.top]
        if below:
            trace.append(f"R4: row {j} (top level {eq.top}) crosses {sorted(below)} strictly below")
            return refuse("R4")
    trace.append("R4: no row crosses a horizontal node below its top level")
    for rel in relations.echelon:
        eid = single_lambda_term(rel)
        if eid in system.nonvanishing:
            trace.append(f"R5: combined relations force {unit(eid).render()} = 0")
            return refuse("R5", unit(eid))
    obligations = proportionality_obligations(system)
    if obligations:
        trace.append("R5: missing proportionalities " + ", ".join(f"{a}~{b}" for a, b in obligations))
        return ConsistencyCertificate("consistent-with-obligations", None, None, tuple(obligations), tuple(trace))
    trace.append("R5: proportionality data is total on every class")
    return ConsistencyCertificate("consistent", None, None, (), tuple(trace))


def validate_adapted(basis: AdaptedBasis, graph: EnhancedLevelGraph) -> list[Violation]:
    out: list[Violation] = []
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
            if el.edge is None or el.edge not in graph.horizontal_edges:
                out.append(Violation(subject, "paired-edge", "crossing element needs a horizontal edge"))
                continue
            if el.edge in paired:
                out.append(Violation(subject, "paired-edge", f"edge {el.edge} already paired with {paired[el.edge]}"))
            paired[el.edge] = el.name
            if graph.edge_level(el.edge) != el.level:
                out.append(
                    Violation(
                        subject, "paired-edge",
                        f"paired edge {el.edge} sits at level {graph.edge_level(el.edge)}, element declares {el.level}",
                    )
                )
            for eid in graph.horizontal_edges:
                want = 1 if eid == el.edge else 0
                got = basis.pairing(el.name, eid)
                if got != want:
                    out.append(Violation(subject, "crossing-pairings", f"pairing with {eid} is {got}, expected {want}"))
        else:
            if el.edge is not None:
                out.append(Violation(subject, "paired-edge", "noncrossing element names an edge"))
            for eid in graph.horizontal_edges:
                if basis.pairing(el.name, eid) != 0:
                    out.append(Violation(subject, "noncrossing-pairings", f"nonzero pairing with horizontal edge {eid}"))
    key = [(-el.level, 0 if el.kind == CROSSING else 1, el.name) for el in basis.elements]
    if key != sorted(key):
        out.append(
            Violation(
                "basis", "ordering",
                "elements must be ordered by top level descending, crossing before noncrossing, then by name",
            )
        )
    return out
