"""Defining-equation systems and the consistency-certificate engine.

An equation is an extended cycle F read as the constraint "the period over F
vanishes".  The system carries the ambient graph and adapted basis, declared
period relations and proportionality ratios, and a nonvanishing set; every
derived quantity (row reduction, horizontal supports, cross-equivalence,
residue relations, undegeneration bookkeeping) is a pure function of those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from . import linalg
from .errors import LimitError, SystemDataError, Violation
from .gaussian import ZERO, ONE, GaussianRational
from .homology import (
    DERIVED,
    AdaptedBasis,
    Cycle,
    LambdaRelationSet,
    pair,
)
from .level_graph import EnhancedLevelGraph, Undegeneration, passage_weight


def hor_support(cycle: Cycle) -> frozenset[str]:
    """Horizontal edges whose vanishing cycle the equation crosses."""
    graph = cycle.basis.graph
    return frozenset(e for e in graph.horizontal_edges if pair(cycle, e))


def top_level(cycle: Cycle) -> int | None:
    """Highest level carrying a nonzero coefficient; None for the zero cycle."""
    graph = cycle.basis.graph
    levels = [cycle.basis.element(name).level for name in cycle.coeffs]
    levels += [graph.edge_level(eid) for eid in cycle.lam]
    return max(levels) if levels else None


class Equation:
    """A cycle with its horizontal support and top level cached."""

    __slots__ = ("cycle", "hor_support", "top")

    def __init__(self, cycle: Cycle):
        self.cycle = cycle
        self.hor_support = hor_support(cycle)
        self.top = top_level(cycle)

    def render(self) -> str:
        return f"{self.cycle.render()} = 0"


class ProportionalityData:
    """Declared ratios between horizontal vanishing-cycle periods.

    An entry (e, e', q) asserts that the period over e equals q times the
    period over e', with q a nonzero rational.
    """

    def __init__(self, entries: Iterable[tuple[str, str, Fraction]] = ()):
        self.entries: tuple[tuple[str, str, Fraction], ...] = tuple(
            (e, ep, Fraction(q)) for e, ep, q in entries
        )

    def __bool__(self) -> bool:
        return bool(self.entries)

    def violations(self, graph: EnhancedLevelGraph) -> list[Violation]:
        out: list[Violation] = []
        horizontal = set(graph.horizontal_edges)
        for e, ep, q in self.entries:
            subject = f"ratio {e}~{ep}"
            for eid in (e, ep):
                if eid not in horizontal:
                    out.append(Violation(subject, "ratio-edges", f"{eid} is not a horizontal edge"))
            if q == 0:
                out.append(Violation(subject, "ratio-nonzero", "ratio must be nonzero"))
            if e == ep and q != 1:
                out.append(Violation(subject, "ratio-consistency", "self-ratio differs from 1"))
        if not out:
            for conflict in self.closure()[1]:
                out.append(Violation(f"ratio {conflict[0]}~{conflict[1]}", "ratio-consistency", conflict[2]))
        return out

    def closure(self):
        """Transitive closure.

        Returns (ratio_to_root, conflicts) where ratio_to_root maps each
        declared edge to (root, q) with period(edge) = q * period(root), roots
        chosen as the smallest edge of each connected component.
        """
        adjacency: dict[str, list[tuple[str, Fraction]]] = {}
        for e, ep, q in self.entries:
            if q == 0:
                continue
            adjacency.setdefault(e, []).append((ep, q))
            adjacency.setdefault(ep, []).append((e, 1 / q))
        ratio: dict[str, tuple[str, Fraction]] = {}
        conflicts: list[tuple[str, str, str]] = []
        for root in sorted(adjacency):
            if root in ratio:
                continue
            ratio[root] = (root, Fraction(1))
            queue = [root]
            while queue:
                x = queue.pop(0)
                _, rx = ratio[x]
                for y, q_xy in adjacency[x]:
                    # period(x) = q_xy * period(y), so period(y) = period(x)/q_xy
                    ry = rx / q_xy
                    if y in ratio:
                        if ratio[y][1] != ry:
                            conflicts.append(
                                (x, y, f"chain gives {ry}, declared closure gives {ratio[y][1]}")
                            )
                    else:
                        ratio[y] = (root, ry)
                        queue.append(y)
        return ratio, conflicts

    def ratio(self, e: str, ep: str) -> Fraction | None:
        """q with period(e) = q * period(e'), when the closure links them."""
        if e == ep:
            return Fraction(1)
        closure, _ = self.closure()
        if e not in closure or ep not in closure:
            return None
        root_e, q_e = closure[e]
        root_ep, q_ep = closure[ep]
        if root_e != root_ep:
            return None
        return q_e / q_ep

    def forms(self, basis: AdaptedBasis) -> list[Cycle]:
        out = []
        for e, ep, q in self.entries:
            if e == ep:
                continue
            out.append(
                Cycle(basis, {}, {e: ONE, ep: GaussianRational(-q)})
            )
        return out


class EquationSystem:
    """Ambient data plus a list of defining equations.

    The stored equation list may be redundant; the canonical row basis is the
    reduced row echelon form against the basis ordering followed by the
    lambda columns, and the rank of that basis is the codimension ``m``.
    """

    def __init__(
        self,
        basis: AdaptedBasis,
        equations: Sequence[Cycle],
        real: bool = False,
        minimal_stratum: bool = False,
        relations: LambdaRelationSet | None = None,
        ratios: ProportionalityData | None = None,
        nonvanishing: Iterable[str] = (),
    ):
        self.basis = basis
        self.graph = basis.graph
        self.equations: tuple[Equation, ...] = tuple(Equation(c) for c in equations)
        self.real = real
        self.minimal_stratum = minimal_stratum
        self.relations = relations if relations is not None else LambdaRelationSet(basis)
        self.ratios = ratios if ratios is not None else ProportionalityData()
        # Horizontal nodes carry simple poles, so their periods never vanish.
        self.nonvanishing: frozenset[str] = frozenset(nonvanishing) | frozenset(
            self.graph.horizontal_edges
        )
        self._rref: tuple[tuple[Equation, ...], tuple[tuple[str, str], ...]] | None = None
        self._row_vectors: list[linalg.Vector] = []
        self._pivot_cols: list[int] = []
        self._reduction: LambdaRelationSet | None = None

    # -- canonical row basis --------------------------------------------------

    def _compute_rref(self):
        vectors = [eq.cycle.to_vector() for eq in self.equations]
        reduced, pivot_cols = linalg.rref(vectors)
        columns = self.basis.columns()
        rows = tuple(Equation(Cycle.from_vector(self.basis, v)) for v in reduced)
        pivots = tuple(columns[c] for c in pivot_cols)
        self._row_vectors = reduced
        self._pivot_cols = pivot_cols
        self._rref = (rows, pivots)

    @property
    def rref_rows(self) -> tuple[Equation, ...]:
        if self._rref is None:
            self._compute_rref()
        return self._rref[0]

    @property
    def pivots(self) -> tuple[tuple[str, str], ...]:
        if self._rref is None:
            self._compute_rref()
        return self._rref[1]

    @property
    def rank(self) -> int:
        return len(self.rref_rows)

    def span_contains(self, cycle: Cycle) -> bool:
        self.rref_rows
        return linalg.in_span(cycle.to_vector(), self._row_vectors, self._pivot_cols)

    def pure_lambda_rows(self) -> list[Cycle]:
        return [eq.cycle for eq in self.rref_rows if eq.cycle.is_lambda_only()]

    def reduction_relations(self) -> LambdaRelationSet:
        """Declared relations, ratio relations, and pure-period rows combined.

        Everything here vanishes identically near the boundary point, so the
        span is the right thing to reduce residue forms and log-coefficient
        vectors by.
        """
        if self._reduction is None:
            extra = [(f, DERIVED) for f in self.ratios.forms(self.basis)]
            extra += [(c, DERIVED) for c in self.pure_lambda_rows()]
            self._reduction = self.relations.with_added(extra)
        return self._reduction

    def extended_span_contains(self, cycle: Cycle) -> bool:
        """Membership in the span of the rows together with all relations."""
        rows = [eq.cycle.to_vector() for eq in self.rref_rows]
        rows += [c.to_vector() for c in self.relations.echelon]
        rows += [f.to_vector() for f in self.ratios.forms(self.basis)]
        reduced, pivots = linalg.rref(rows)
        return linalg.in_span(cycle.to_vector(), reduced, pivots)


def system_violations(system: EquationSystem) -> list[Violation]:
    out: list[Violation] = []
    if system.real:
        for k, eq in enumerate(system.equations):
            if not eq.cycle.is_real():
                out.append(
                    Violation(f"equation {k}", "real-coefficients", "complex coefficient in a real system")
                )
    for k, (rel, _) in enumerate(system.relations.relations):
        if not rel.is_real():
            out.append(Violation(f"relation {k}", "rational-relations", "relation coefficients must be rational"))
    out.extend(system.ratios.violations(system.graph))
    edge_ids = {e.id for e in system.graph.edges}
    for eid in sorted(system.nonvanishing):
        if eid not in edge_ids:
            out.append(Violation(f"nonvanishing {eid}", "unknown-edge", "no such edge"))
    return out


# -- horizontal support machinery ---------------------------------------------


def _support_subspace(
    system: EquationSystem, allowed: frozenset[str], max_level: int | None = None
) -> list[Cycle]:
    """Basis of the span elements with pairings 0 outside ``allowed``.

    With ``max_level`` set, also requires every carrier above that level to
    have coefficient zero.
    """
    rows = [eq.cycle for eq in system.rref_rows]
    if not rows:
        return []
    graph = system.graph
    constraints: list[list[GaussianRational]] = []
    for eid in graph.horizontal_edges:
        if eid not in allowed:
            constraints.append([pair(r, eid) for r in rows])
    if max_level is not None:
        vectors = [r.to_vector() for r in rows]
        for col, (kind, key) in enumerate(system.basis.columns()):
            level = (
                system.basis.element(key).level if kind == "b" else graph.edge_level(key)
            )
            if level > max_level:
                constraints.append([v[col] for v in vectors])
    coeff_basis = linalg.nullspace(constraints, len(rows)) if constraints else linalg.identity(len(rows))
    out = []
    for coords in coeff_basis:
        total = system.basis.zero()
        for c, row in zip(coords, rows):
            if c:
                total = total + row.scale(c)
        out.append(total)
    return out


def is_correlated(system: EquationSystem, edges: Iterable[str]) -> bool:
    """Whether some span element crosses exactly this horizontal edge set.

    The span elements with pairings zero outside the set form a subspace; over
    an infinite field a finite union of proper subspaces cannot cover it, so
    the set is realized exactly when no single pairing functional vanishes on
    the whole subspace.
    """
    wanted = frozenset(edges)
    horizontal = set(system.graph.horizontal_edges)
    if not wanted <= horizontal:
        raise SystemDataError(f"not horizontal edges: {sorted(wanted - horizontal)}")
    subspace = _support_subspace(system, wanted)
    return all(any(pair(v, e) for v in subspace) for e in sorted(wanted))


def correlated_witness(
    system: EquationSystem, edges: Iterable[str], max_level: int | None = None
) -> Cycle | None:
    """A span element with horizontal support exactly ``edges``, or None.

    Greedy construction: take subspace generators hitting each edge in turn
    and combine with small integer weights chosen to avoid the finitely many
    cancellations.
    """
    wanted = sorted(frozenset(edges))
    subspace = _support_subspace(system, frozenset(wanted), max_level=max_level)
    witness: Cycle | None = None
    done: list[str] = []
    for e in wanted:
        if witness is not None and pair(witness, e):
            done.append(e)
            continue
        generator = next((v for v in subspace if pair(v, e)), None)
        if generator is None:
            return None
        if witness is None:
            witness = generator
            done.append(e)
            continue
        t = 1
        while True:
            candidate = witness + generator.scale(t)
            if all(pair(candidate, x) for x in done + [e]):
                witness = candidate
                done.append(e)
                break
            t += 1
    return witness if witness is not None else system.basis.zero()


def cross_equivalence_classes(system: EquationSystem) -> tuple[frozenset[str], ...]:
    """Partition of the horizontal edges generated by the rref-row supports."""
    parent: dict[str, str] = {e: e for e in system.graph.horizontal_edges}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    for eq in system.rref_rows:
        support = sorted(eq.hor_support)
        for a, b in zip(support, support[1:]):
            union(a, b)
    groups: dict[str, set[str]] = {}
    for e in parent:
        groups.setdefault(find(e), set()).add(e)
    return tuple(frozenset(groups[root]) for root in sorted(groups))


def primitive_sets(system: EquationSystem, limit: int = 12) -> tuple[frozenset[str], ...]:
    """All inclusion-minimal nonempty correlated sets of horizontal edges."""
    horizontal = sorted(system.graph.horizontal_edges)
    if len(horizontal) > limit:
        raise LimitError(
            f"{len(horizontal)} horizontal edges exceed the search limit {limit};"
            " use cross_equivalence_classes for the rref-based partition instead"
        )
    found: list[frozenset[str]] = []
    for size in range(1, len(horizontal) + 1):
        for combo in combinations(horizontal, size):
            candidate = frozenset(combo)
            if any(p <= candidate for p in found):
                continue
            if is_correlated(system, candidate):
                found.append(candidate)
    return tuple(sorted(found, key=lambda s: sorted(s)))


# -- residue relations ---------------------------------------------------------


def residue_relation(system: EquationSystem, cycle: Cycle, i: int) -> Cycle:
    """Weighted linear form among periods of the cycles crossing a passage.

    The form is the lambda-coefficient vector forced to vanish by monodromy
    around the passage: sum of (passage weight) * (pairing) over the vertical
    edges crossing it.
    """
    if not system.span_contains(cycle):
        raise SystemDataError("equation is not in the system span")
    top = top_level(cycle)
    if top is None:
        return system.basis.zero()
    if i > top:
        raise SystemDataError(f"passage {i} above top level {top}")
    if i not in system.graph.passage_indices():
        raise SystemDataError(f"no level passage {i}")
    lam: dict[str, GaussianRational] = {}
    for eid in system.graph.crossing_edges(i):
        weight = passage_weight(system.graph, eid, i)
        hit = pair(cycle, eid) * GaussianRational(weight)
        if hit:
            lam[eid] = hit
    return Cycle(system.basis, {}, lam)


# -- decomposition --------------------------------------------------------------


@dataclass(frozen=True)
class DecomposeResult:
    feasible: bool
    h_parts: tuple[Cycle, ...] = ()
    g_part: Cycle | None = None
    obstruction: str | None = None
    obstruction_cycles: tuple[Cycle, ...] = ()

    def components(self) -> tuple[Cycle, ...]:
        assert self.feasible and self.g_part is not None
        return self.h_parts + (self.g_part,)


def _minimal_correlated_within(
    system: EquationSystem, ambient: frozenset[str]
) -> list[frozenset[str]]:
    found: list[frozenset[str]] = []
    members = sorted(ambient)
    for size in range(1, len(members) + 1):
        for combo in combinations(members, size):
            candidate = frozenset(combo)
            if any(p <= candidate for p in found):
                continue
            if is_correlated(system, candidate):
                found.append(candidate)
    return sorted(found, key=lambda s: sorted(s))


def _match_top_restriction(system: EquationSystem, work: Cycle, level: int) -> Cycle | None:
    """Span element equal to ``work`` at its top level, crossing nothing.

    Solves for coefficients over the rref rows: match every carrier at the top
    level, kill every carrier above it, and keep all horizontal pairings zero.
    """
    rows = [eq.cycle for eq in system.rref_rows]
    if not rows:
        return None
    graph = system.graph
    columns = system.basis.columns()
    vectors = [r.to_vector() for r in rows]
    target_vec = work.to_vector()
    constraint_rows: list[list[GaussianRational]] = []
    rhs: list[GaussianRational] = []
    for col, (kind, key) in enumerate(columns):
        lvl = system.basis.element(key).level if kind == "b" else graph.edge_level(key)
        if lvl == level:
            constraint_rows.append([v[col] for v in vectors])
            rhs.append(target_vec[col])
        elif lvl > level:
            constraint_rows.append([v[col] for v in vectors])
            rhs.append(ZERO)
    for eid in graph.horizontal_edges:
        constraint_rows.append([pair(r, eid) for r in rows])
        rhs.append(ZERO)
    solution = linalg.solve_linear(constraint_rows, rhs)
    if solution is None:
        return None
    total = system.basis.zero()
    for c, row in zip(solution, rows):
        if c:
            total = total + row.scale(c)
    return total


def decompose(system: EquationSystem, cycle: Cycle) -> DecomposeResult:
    """Split a span element into primitive horizontal components plus a rest.

    Components are span elements: each horizontal component crosses exactly a
    primitive edge set lying at its own top level and inside the input's
    support, the remainder crosses nothing, and everything sums back to the
    input.  When the span does not contain the witnesses the construction
    needs, the result is infeasible and carries the blocking subspace.
    """
    if not system.span_contains(cycle):
        raise SystemDataError("equation is not in the system span")
    h_parts: list[Cycle] = []
    g_total = system.basis.zero()
    work = cycle
    graph = system.graph
    for _ in range(len(graph.horizontal_edges) + graph.depth + 2):
        support = hor_support(work)
        if not support:
            g_total = g_total + work
            return _checked(system, cycle, tuple(h_parts), g_total)
        top = top_level(work)
        at_top = {e for e in support if graph.edge_level(e) == top}
        if at_top:
            primitive = None
            for candidate in _minimal_correlated_within(system, support):
                if not all(graph.edge_level(e) == top for e in candidate):
                    continue
                witness = correlated_witness(system, candidate, max_level=top)
                if witness is not None:
                    primitive = (candidate, witness)
                    break
            if primitive is None:
                return DecomposeResult(
                    feasible=False,
                    obstruction=(
                        f"no top-level primitive component with support inside"
                        f" {sorted(support)} at level {top}"
                    ),
                    obstruction_cycles=tuple(_support_subspace(system, support)),
                )
            edges, witness = primitive
            anchor = min(edges)
            factor = pair(work, anchor) / pair(witness, anchor)
            component = witness.scale(factor)
            h_parts.append(component)
            work = work - component
        else:
            replacement = _match_top_restriction(system, work, top)
            if replacement is None:
                return DecomposeResult(
                    feasible=False,
                    obstruction=(
                        f"no non-crossing span element matches the level-{top} restriction"
                    ),
                    obstruction_cycles=tuple(_support_subspace(system, frozenset())),
                )
            g_total = g_total + replacement
            work = work - replacement
    raise AssertionError("decomposition failed to terminate")


def _checked(system, original, h_parts, g_part) -> DecomposeResult:
    total = g_part
    for h in h_parts:
        total = total + h
    assert (total - original).is_zero()
    assert not hor_support(g_part)
    return DecomposeResult(True, h_parts, g_part)


# -- undegeneration bookkeeping --------------------------------------------------


def _remapped_top(system: EquationSystem, cycle: Cycle, undeg: Undegeneration) -> int | None:
    graph = system.graph
    levels = [undeg.new_level(system.basis.element(n).level) for n in cycle.coeffs]
    levels += [undeg.new_level(graph.edge_level(e)) for e in cycle.lam]
    return max(levels) if levels else None


def lost_count(system: EquationSystem, undeg: Undegeneration) -> int:
    """Rows whose remapped top level crosses a surviving horizontal edge.

    Rows that cross a horizontal node at their (relabeled) top level do not
    restrict the smaller boundary stratum; they are the defining equations
    lost there.
    """
    graph = system.graph
    count = 0
    for eq in system.rref_rows:
        new_top = _remapped_top(system, eq.cycle, undeg)
        if new_top is None:
            continue
        for eid in undeg.kept_horizontal:
            if undeg.new_level(graph.edge_level(eid)) == new_top and pair(eq.cycle, eid):
                count += 1
                break
    return count


@dataclass(frozen=True)
class UndegClassification:
    undegeneration: Undegeneration
    codim_in_total: int
    lost: int
    divisorial: bool
    branch: str | None  # "vertical" | "horizontal" | "theorem-violating"
    ordering_caveat: bool


def _remap_is_adapted(system: EquationSystem, undeg: Undegeneration) -> bool:
    kept = set(undeg.kept_horizontal)
    keys = []
    for el in system.basis.elements:
        still_crossing = el.kind == "crossing" and el.edge in kept
        keys.append((-undeg.new_level(el.level), 0 if still_crossing else 1))
    return keys == sorted(keys)


def classify_undegeneration(system: EquationSystem, undeg: Undegeneration) -> UndegClassification:
    """Codimension of the boundary piece selected by an undegeneration.

    Codimension in the total space is (horizontal kept) + (passages kept) +
    rank - lost; the piece is divisorial exactly when this is rank + 1, and a
    divisorial piece is reported with the branch that realizes it.
    """
    m = system.rank
    h2 = undeg.horizontal_count
    l2 = undeg.depth
    c = lost_count(system, undeg)
    codim_total = h2 + l2 + m - c
    divisorial = codim_total == m + 1
    branch: str | None = None
    if divisorial:
        if l2 == 1 and h2 == 0:
            branch = "vertical"
        elif l2 == 0:
            ok = all(
                is_correlated(system, {a, b})
                for a, b in combinations(sorted(undeg.kept_horizontal), 2)
            )
            branch = "horizontal" if ok else "theorem-violating"
        else:
            branch = "theorem-violating"
    return UndegClassification(
        undegeneration=undeg,
        codim_in_total=codim_total,
        lost=c,
        divisorial=divisorial,
        branch=branch,
        ordering_caveat=not _remap_is_adapted(system, undeg),
    )


# -- consistency engine -----------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyCertificate:
    verdict: str  # "consistent" | "consistent-with-obligations" | "inconsistent"
    rule: str | None = None
    forced: Cycle | None = None
    obligations: tuple[tuple[str, str], ...] = ()
    trace: tuple[str, ...] = ()

    @property
    def consistent(self) -> bool:
        return self.verdict != "inconsistent"


def _monic(cycle: Cycle) -> Cycle:
    for kind, key in cycle.basis.columns():
        c = (cycle.coeffs if kind == "b" else cycle.lam).get(key)
        if c:
            return cycle.scale(ONE / c)
    return cycle


def _single_lambda_term(cycle: Cycle) -> str | None:
    if cycle.coeffs or len(cycle.lam) != 1:
        return None
    return next(iter(cycle.lam))


def residue_forms(system: EquationSystem) -> list[tuple[int, int, Cycle]]:
    """All nonzero residue forms (row index, passage, form) of the rref rows."""
    out = []
    for j, eq in enumerate(system.rref_rows):
        top = eq.top
        if top is None:
            continue
        for i in system.graph.passage_indices():
            if i > top:
                continue
            form = residue_relation(system, eq.cycle, i)
            if not form.is_zero():
                out.append((j, i, form))
    return out


def proportionality_obligations(
    system: EquationSystem,
) -> tuple[list[tuple[str, str]], list[tuple[str, Cycle]]]:
    """Missing proportionalities per cross-equivalence class.

    Reduces each member period symbol modulo the combined relation span and
    groups projectively-equal residuals; classes whose members fall into more
    than one group owe the proportionalities linking consecutive groups.
    Returns (obligations, forced_vanishing) where the second lists members
    whose period symbol reduces to zero outright.
    """
    relations = system.reduction_relations()
    obligations: list[tuple[str, str]] = []
    forced: list[tuple[str, Cycle]] = []
    for cls in cross_equivalence_classes(system):
        if len(cls) < 2:
            continue
        reps: dict[tuple, str] = {}
        order: list[str] = []
        for eid in sorted(cls):
            residual = relations.reduce(Cycle(system.basis, {}, {eid: ONE}))
            if residual.is_zero():
                forced.append((eid, Cycle(system.basis, {}, {eid: ONE})))
                continue
            normalized = _monic(residual)
            key = tuple((k, v) for k, v in sorted(normalized.coeffs.items())) + tuple(
                (k, v) for k, v in sorted(normalized.lam.items())
            )
            if key not in reps:
                reps[key] = eid
                order.append(eid)
        for a, b in zip(order, order[1:]):
            obligations.append((a, b))
    return obligations, forced


def consistency_report(system: EquationSystem, assume_theorems: bool = False) -> ConsistencyCertificate:
    """Apply the five consistency rules in order; first violation wins.

    R1  a horizontal-crossing row must cross at least two horizontal nodes;
    R2  residue forms must not force a nonvanishing period to zero;
    R3  cross-equivalence classes lie at a single level;
    R4  rows cross no horizontal node strictly below their top level;
    R5  periods within a class must be proportional (missing ratios are
        obligations), and the combined relations must not force a
        nonvanishing period to zero.
    """
    trace: list[str] = []
    graph = system.graph

    # R1
    for j, eq in enumerate(system.rref_rows):
        if len(eq.hor_support) == 1:
            (eid,) = eq.hor_support
            trace.append(f"R1: row {j} crosses only the horizontal node {eid}")
            return ConsistencyCertificate(
                "inconsistent", "R1", Cycle(system.basis, {}, {eid: ONE}), (), tuple(trace)
            )
    trace.append("R1: every horizontal-crossing row crosses at least two nodes")

    # R2
    relations = system.reduction_relations()
    checked = 0
    for j, eq in enumerate(system.rref_rows):
        top = eq.top
        if top is None:
            continue
        for i in graph.passage_indices():
            if i > top:
                continue
            form = residue_relation(system, eq.cycle, i)
            if form.is_zero():
                continue
            checked += 1
            residual = relations.reduce(form)
            if residual.is_zero():
                continue
            eid = _single_lambda_term(residual)
            if eid is not None and eid in system.nonvanishing:
                trace.append(
                    f"R2: row {j} at passage {i} forces {_monic(residual).render()} = 0"
                    f" with {eid} nonvanishing"
                )
                return ConsistencyCertificate(
                    "inconsistent", "R2", _monic(residual), (), tuple(trace)
                )
            if assume_theorems:
                relations = relations.with_added([(form, DERIVED)])
    trace.append(f"R2: {checked} residue forms reduce without forcing a nonvanishing period")

    # R3
    for cls in cross_equivalence_classes(system):
        levels = {graph.edge_level(e) for e in cls}
        if len(levels) > 1:
            trace.append(f"R3: class {sorted(cls)} spans levels {sorted(levels)}")
            return ConsistencyCertificate("inconsistent", "R3", None, (), tuple(trace))
    trace.append("R3: every cross-equivalence class lies at a single level")

    # R4
    for j, eq in enumerate(system.rref_rows):
        below = [e for e in eq.hor_support if graph.edge_level(e) < eq.top]
        if below:
            trace.append(
                f"R4: row {j} (top level {eq.top}) crosses {sorted(below)} strictly below"
            )
            return ConsistencyCertificate("inconsistent", "R4", None, (), tuple(trace))
    trace.append("R4: no row crosses a horizontal node below its top level")

    # R5
    for rel in relations.echelon:
        eid = _single_lambda_term(rel)
        if eid is not None and eid in system.nonvanishing:
            trace.append(f"R5: combined relations force {_monic(rel).render()} = 0")
            return ConsistencyCertificate("inconsistent", "R5", _monic(rel), (), tuple(trace))
    obligations, forced = proportionality_obligations(system)
    for eid, form in forced:
        if eid in system.nonvanishing:
            trace.append(f"R5: period of {eid} is forced to vanish")
            return ConsistencyCertificate("inconsistent", "R5", form, (), tuple(trace))
    if obligations:
        trace.append(
            "R5: missing proportionalities "
            + ", ".join(f"{a}~{b}" for a, b in obligations)
        )
        return ConsistencyCertificate(
            "consistent-with-obligations", None, None, tuple(obligations), tuple(trace)
        )
    trace.append("R5: proportionality data is total on every class")
    return ConsistencyCertificate("consistent", None, None, (), tuple(trace))
