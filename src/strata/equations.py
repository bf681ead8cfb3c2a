"""Defining-equation systems and the consistency-certificate engine.

An equation is an extended cycle F read as the constraint "the period over F
vanishes".  The system carries the ambient graph and adapted basis, declared
period relations and proportionality ratios, and a nonvanishing set; every
derived quantity (row reduction, horizontal supports, cross-equivalence,
residue relations, undegeneration bookkeeping) is a pure function of those.

Correlation questions are answered in the dual.  The span's horizontal
pairing vectors form a subspace V of Q(i)^H; its annihilator W (computed once
per system) cuts V out, so a pairing vector supported on S lies in V exactly
when it is in the kernel of W's S columns.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, count
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .errors import LimitError, SystemDataError, Violation
from .gaussian import ZERO, ONE, GaussianRational, _from_ints, _rational_str
from .homology import CROSSING, AdaptedBasis, Cycle, pair
from .level_graph import EnhancedLevelGraph, Undegeneration, components


def hor_support(cycle: Cycle) -> frozenset[str]:
    """Horizontal edges whose vanishing cycle the equation crosses."""
    return Equation(cycle).hor_support


def top_level(cycle: Cycle) -> int | None:
    """Highest level carrying a nonzero coefficient; None for the zero cycle."""
    levels = cycle.basis.column_levels
    return max((level for level, x in zip(levels, cycle.vector) if x.a or x.b), default=None)


class Equation:
    """A cycle with its pairings against ``graph.horizontal_edges`` (in that
    order), its horizontal support and its top level, computed once."""

    __slots__ = ("cycle", "hor_pairings", "hor_support", "top")

    def __init__(self, cycle: Cycle):
        horizontal = cycle.basis.graph.horizontal_edges
        self.cycle = cycle
        self.hor_pairings = tuple([pair(cycle, e) for e in horizontal])
        self.hor_support = frozenset(e for e, p in zip(horizontal, self.hor_pairings) if p.a or p.b)
        self.top = top_level(cycle)

    def render(self) -> str:
        return f"{self.cycle.render()} = 0"


class ProportionalityData:
    """Declared ratios between horizontal vanishing-cycle periods.

    An entry (e, e', q) asserts that the period over e equals q times the
    period over e', with q a nonzero rational (an int, a Fraction, or a
    ``(numerator, denominator > 0)`` pair), held in ``declared`` in lowest terms.
    """

    def __init__(self, entries: Iterable[tuple[str, str, Fraction]] = ()):
        self.declared: tuple[tuple[str, str, int, int], ...] = tuple(
            [(e, ep, *_int_ratio(q)) for e, ep, q in entries]
        )

    @property
    def entries(self) -> tuple[tuple[str, str, Fraction], ...]:
        """The declared (e, e', q), each q a Fraction."""
        from fractions import Fraction
        return tuple([(e, ep, Fraction(n, d)) for e, ep, n, d in self.declared])

    def __bool__(self) -> bool:
        return bool(self.declared)

    def violations(self, graph: EnhancedLevelGraph) -> list[Violation]:
        out: list[Violation] = []
        horizontal = set(graph.horizontal_edges)
        for e, ep, n, d in self.declared:
            subject = f"ratio {e}~{ep}"
            for eid in (e, ep):
                if eid not in horizontal:
                    out.append(Violation(subject, "ratio-edges", f"{eid} is not a horizontal edge"))
            if n == 0:
                out.append(Violation(subject, "ratio-nonzero", "ratio must be nonzero"))
            if e == ep and (n, d) != (1, 1):
                out.append(Violation(subject, "ratio-consistency", "self-ratio differs from 1"))
        if not out:
            for conflict in self.closure[1]:
                out.append(Violation(f"ratio {conflict[0]}~{conflict[1]}", "ratio-consistency", conflict[2]))
        return out

    @cached_property
    def closure(self):
        """Transitive closure.

        The pair (ratio_to_root, conflicts), where ratio_to_root maps each
        declared edge to (root, num, den) with period(edge) = num/den *
        period(root) in lowest terms, roots chosen as the smallest edge of each
        connected component, and conflicts lists each declared entry the
        closure contradicts, once, in declared order and direction.  Built
        once, on int pairs: the entries never change.
        """
        adjacency: dict[str, list[tuple[str, int, int]]] = {}
        for e, ep, qn, qd in self.declared:
            if qn:
                adjacency.setdefault(e, []).append((ep, qn, qd))
                adjacency.setdefault(ep, []).append((e, qd, qn))
        ratio: dict[str, tuple[str, int, int]] = {}
        for root in sorted(adjacency):
            if root in ratio:
                continue
            ratio[root] = (root, 1, 1)
            queue = [root]
            while queue:
                x = queue.pop(0)
                _, xn, xd = ratio[x]
                for y, qn, qd in adjacency[x]:
                    if y not in ratio:
                        # period(x) = q_xy * period(y), so period(y) = period(x)/q_xy
                        n, d = xn * qd, xd * qn
                        g = gcd(n, d) if d > 0 else -gcd(n, d)
                        ratio[y] = (root, n // g, d // g)
                        queue.append(y)
        conflicts = []
        for e, ep, qn, qd in self.declared:
            if qn:
                (_, n, d), (_, n_ep, d_ep) = ratio[e], ratio[ep]
                n, d = (n * qd, d * qn) if qn > 0 else (-n * qd, -d * qn)  # the chain's ratio[e] / q
                if n * d_ep != d * n_ep:
                    text = f"chain gives {_rational_str(n, d)}, declared closure gives {_rational_str(n_ep, d_ep)}"
                    conflicts.append((e, ep, text))
        return ratio, conflicts

    def ratio(self, e: str, ep: str) -> Fraction | None:
        """q with period(e) = q * period(e'), when the closure links them."""
        from fractions import Fraction
        if e == ep:
            return Fraction(1)
        closure, _ = self.closure
        if e not in closure or ep not in closure:
            return None
        root_e, n_e, d_e = closure[e]
        root_ep, n_ep, d_ep = closure[ep]
        if root_e != root_ep:
            return None
        return Fraction(n_e * d_ep, d_e * n_ep)


def _int_ratio(q) -> tuple[int, int]:
    """A declared q as ``(numerator, denominator > 0)`` in lowest terms; a pair
    whose denominator is not positive raises SystemDataError."""
    if type(q) is tuple:
        n, d = q
        if d <= 0:
            raise SystemDataError(f"a ratio needs a positive denominator, got {d}")
        g = gcd(n, d)
        return n // g, d // g
    from fractions import Fraction
    q = Fraction(q)
    return q.numerator, q.denominator


class EquationSystem:
    """Ambient data plus a list of defining equations.

    The stored equation list may be redundant; the canonical row basis is the
    reduced row echelon form against the basis ordering followed by the
    lambda columns, and the rank of that basis is the codimension ``m``.
    Every span, table and partition derived from the inputs is a cached
    property, computed on first use.
    """

    def __init__(
        self,
        basis: AdaptedBasis,
        equations: Sequence[Cycle],
        real: bool = False,
        minimal_stratum: bool = False,
        relations: Iterable[Cycle] = (),
        ratios: ProportionalityData | None = None,
        nonvanishing: Iterable[str] = (),
    ):
        self.basis = basis
        self.graph = basis.graph
        self.equations: tuple[Cycle, ...] = tuple(equations)
        self.real = real
        self.minimal_stratum = minimal_stratum
        self.relations: tuple[Cycle, ...] = tuple(relations)
        self.ratios = ratios if ratios is not None else ProportionalityData()
        # Horizontal nodes carry simple poles, so their periods never vanish.
        self.nonvanishing: frozenset[str] = frozenset(nonvanishing) | frozenset(
            self.graph.horizontal_edges
        )
        self._passage_tables: dict[tuple[int, ...], PassageTable] = {}

    # -- canonical row basis --------------------------------------------------

    @cached_property
    def _reduction(self) -> tuple[tuple[Equation, ...], list[int]]:
        """The rref rows, as equations, and their pivot columns."""
        reduced, pivot_cols = linalg.rref([c.vector for c in self.equations])
        return tuple([Equation(Cycle.from_vector(self.basis, v)) for v in reduced]), pivot_cols

    @property
    def rref_rows(self) -> tuple[Equation, ...]:
        # A plain property, and the first read of the reduction everywhere:
        # bench/tracing.py times the reduction by wrapping this getter.
        return self._reduction[0]

    @cached_property
    def _pivot_cols(self) -> list[int]:
        self.rref_rows  # computes the reduction, when due, through its traced getter
        return self._reduction[1]

    @property
    def rank(self) -> int:
        return len(self.rref_rows)

    @cached_property
    def _row_vectors(self) -> list[tuple[GaussianRational, ...]]:
        """The rref rows' own vectors."""
        return [eq.cycle.vector for eq in self.rref_rows]

    @cached_property
    def _pairing_columns(self) -> dict[str, list[GaussianRational]]:
        """Per horizontal edge, the rows' pairings against it."""
        rows = self.rref_rows
        return {e: [eq.hor_pairings[k] for eq in rows] for k, e in enumerate(self.graph.horizontal_edges)}

    @cached_property
    def _edge_bits(self) -> dict[str, int]:
        return {e: 1 << k for k, e in enumerate(self.graph.horizontal_edges)}

    def span_contains(self, cycle: Cycle) -> bool:
        return linalg.in_span(cycle.vector, self._row_vectors, self._pivot_cols)

    # -- relation spans ---------------------------------------------------------

    @cached_property
    def ratio_forms(self) -> tuple[Cycle, ...]:
        """``lambda[e] - q lambda[e']`` per declared ratio with e != e', in order."""
        return tuple(
            [
                Cycle(self.basis, {}, {e: ONE, ep: _from_ints(-n, 0, d)})
                for e, ep, n, d in self.ratios.declared
                if e != ep
            ]
        )

    @cached_property
    def reduction_relations(self) -> tuple[list[linalg.Vector], list[int]]:
        """Rref rows and pivots of the declared relations, the ratio forms and
        the pure-period rows.

        Everything here vanishes identically near the boundary point, so the
        span is the right thing to reduce residue forms and log-coefficient
        vectors by.
        """
        rows = [rel.vector for rel in self.relations] + [f.vector for f in self.ratio_forms]
        return linalg.rref(rows + [eq.cycle.vector for eq in self.rref_rows if eq.cycle.is_lambda_only()])

    @cached_property
    def extended_rows(self) -> tuple[list[linalg.Vector], list[int]]:
        """Rref rows and pivots of the rows, declared relations and ratio forms.

        This extended span is where the tangent space, the parallel-class
        bound and the proportionality decompositions are read off.
        """
        rows = self._row_vectors + [rel.vector for rel in self.relations]
        return linalg.rref(rows + [f.vector for f in self.ratio_forms])

    def extended_span_contains(self, cycle: Cycle) -> bool:
        """Membership in the span of the rows together with all relations."""
        return linalg.in_span(cycle.vector, *self.extended_rows)

    # -- correlation and residues -----------------------------------------------

    @cached_property
    def annihilator(self) -> tuple[dict[str, tuple[GaussianRational, ...]], dict[str, tuple]]:
        """Per horizontal edge, its column of the annihilator W, and its pair key.

        W is a basis of the nullspace of the rank x H matrix of the rows'
        pairings, so a vector x of horizontal pairings belongs to a span element
        exactly when W x = 0.  The key is the column divided by its first nonzero
        entry, or the zero column itself; two edges are correlated exactly when
        their keys agree (both columns zero, or both nonzero and parallel).
        """
        horizontal = self.graph.horizontal_edges
        kernel = linalg.nullspace([eq.hor_pairings for eq in self.rref_rows], len(horizontal))
        columns = {e: tuple([w[k] for w in kernel]) for k, e in enumerate(horizontal)}
        return columns, {e: _lead_key(column)[1] for e, column in columns.items()}

    @cached_property
    def cross_equivalence_classes(self) -> tuple[frozenset[str], ...]:
        """Partition of the horizontal edges generated by the rref-row supports."""
        return components(self.graph.horizontal_edges, [eq.hor_support for eq in self.rref_rows])

    @cached_property
    def residuals(self) -> dict[str, tuple[GaussianRational | None, tuple]]:
        """Per horizontal edge in a class of two or more (past R1, the only
        edges a row crosses): the ``_unit_residual`` of its period symbol
        modulo ``reduction_relations``, a lead (None for a zero residual) and a
        key.  Two periods are proportional exactly when both have leads and
        equal keys, in the ratio of their leads.  A zero residual puts its
        period in the span of the relations, so only systems that
        ``consistency_report`` refuses (at R5 at the latest) have a None lead.
        """
        span = self.reduction_relations
        out = {}
        for cls in self.cross_equivalence_classes:
            if len(cls) > 1:
                for eid in sorted(cls):
                    out[eid] = _unit_residual(self.basis, eid, span)
        return out

    @cached_property
    def residue_forms(self) -> tuple[tuple[int, int, Cycle], ...]:
        """All nonzero residue forms (row index, passage, form) of the rref rows.

        The rows lie in the span by construction, and every passage at or
        below a row's top level is visited in order.
        """
        out = []
        for j, eq in enumerate(self.rref_rows):
            for i in self.graph.passage_indices():
                if eq.top is not None and i <= eq.top:
                    form = _residue_form(self, eq.cycle, i)
                    if not form.is_zero():
                        out.append((j, i, form))
        return tuple(out)


def system_violations(system: EquationSystem) -> list[Violation]:
    out: list[Violation] = []
    if system.real:
        for k, cycle in enumerate(system.equations):
            if not cycle.is_real():
                out.append(
                    Violation(f"equation {k}", "real-coefficients", "complex coefficient in a real system")
                )
    for k, rel in enumerate(system.relations):
        if not rel.is_real():
            out.append(Violation(f"relation {k}", "rational-relations", "relation coefficients must be rational"))
    out.extend(system.ratios.violations(system.graph))
    for eid in sorted(system.nonvanishing):
        if not system.graph.has_edge(eid):
            out.append(Violation(f"nonvanishing {eid}", "unknown-edge", "no such edge"))
    return out


# -- horizontal support machinery ---------------------------------------------


def _support_constraints(
    system: EquationSystem, allowed: frozenset[str], max_level: int | None = None
) -> list[list[GaussianRational]]:
    """Rows over the rref-row coordinates that vanish on the span elements with
    pairings 0 outside ``allowed`` and, with ``max_level`` set, coefficient zero
    on every carrier above that level."""
    constraints = [col for eid, col in system._pairing_columns.items() if eid not in allowed]
    if max_level is not None:
        for col, level in enumerate(system.basis.column_levels):
            if level > max_level:
                constraints.append([v[col] for v in system._row_vectors])
    return constraints


def _support_subspace(
    system: EquationSystem, allowed: frozenset[str], max_level: int | None = None
) -> list[Cycle]:
    """A basis of the span elements ``_support_constraints`` describes, as cycles."""
    coords = linalg.nullspace(_support_constraints(system, allowed, max_level), len(system.rref_rows))
    return [Cycle.from_vector(system.basis, linalg.combine(c, system._row_vectors)) for c in coords]


def is_correlated(system: EquationSystem, edges: Iterable[str]) -> bool:
    """Whether some span element crosses exactly this horizontal edge set.

    The pairing vectors supported on the set are the kernel of the
    annihilator's columns there; over an infinite field a finite union of
    proper subspaces cannot cover that kernel, so the set is realized exactly
    when no coordinate vanishes on the whole kernel.
    """
    wanted = frozenset(edges)
    horizontal = set(system.graph.horizontal_edges)
    if not wanted <= horizontal:
        raise SystemDataError(f"not horizontal edges: {sorted(wanted - horizontal)}")
    columns = system.annihilator[0]
    members = sorted(wanted)
    kernel = linalg.nullspace(list(zip(*[columns[e] for e in members])), len(members))
    return all(any(v[k] for v in kernel) for k in range(len(members)))


def correlated_witness(
    system: EquationSystem, edges: Iterable[str], max_level: int | None = None
) -> Cycle | None:
    """A span element with horizontal support exactly ``edges``, or None.

    Starting from zero, each edge the witness does not yet cross gets the first
    subspace generator crossing it, times the least t >= 1 that keeps every
    earlier edge's pairing nonzero (each can vanish for at most one t).
    """
    wanted = sorted(frozenset(edges))
    subspace = _support_subspace(system, frozenset(wanted), max_level=max_level)
    witness = system.basis.zero()
    for k, e in enumerate(wanted):
        if pair(witness, e):
            continue
        generator = next((v for v in subspace if pair(v, e)), None)
        if generator is None:
            return None
        candidates = (witness + (generator.scale(t) if t > 1 else generator) for t in count(1))
        witness = next(c for c in candidates if all(pair(c, x) for x in wanted[:k]))
    return witness


def cross_equivalence_classes(system: EquationSystem) -> tuple[frozenset[str], ...]:
    """Partition of the horizontal edges generated by the rref-row supports."""
    return system.cross_equivalence_classes


def primitive_sets(system: EquationSystem, limit: int = 12) -> tuple[frozenset[str], ...]:
    """All inclusion-minimal nonempty correlated sets of horizontal edges."""
    return tuple(_minimal_correlated_within(system, system.graph.horizontal_edges, limit))


def _minimal_correlated_within(
    system: EquationSystem, ambient: Iterable[str], limit: int = 12
) -> list[frozenset[str]]:
    """Inclusion-minimal correlated subsets of ``ambient``, smallest first.

    The search visits every subset, so more than ``limit`` edges raise
    LimitError.
    """
    members = sorted(ambient)
    if len(members) > limit:
        raise LimitError(
            f"{len(members)} horizontal edges exceed the search limit {limit};"
            " use cross_equivalence_classes for the rref-based partition instead"
        )
    found: list[frozenset[str]] = []
    for size in range(1, len(members) + 1):
        for combo in combinations(members, size):
            candidate = frozenset(combo)
            if any(p <= candidate for p in found):
                continue
            if is_correlated(system, candidate):
                found.append(candidate)
    return sorted(found, key=lambda s: sorted(s))


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
    return _residue_form(system, cycle, i)


def _residue_form(system: EquationSystem, cycle: Cycle, i: int) -> Cycle:
    weights = system.graph.passage_weights(i)
    return Cycle(system.basis, {}, {e: pair(cycle, e) * w for e, w in weights.items()})


def residue_forms(system: EquationSystem) -> tuple[tuple[int, int, Cycle], ...]:
    """All nonzero residue forms (row index, passage, form) of the rref rows."""
    return system.residue_forms


# -- decomposition --------------------------------------------------------------


class DecomposeResult(NamedTuple):
    feasible: bool
    h_parts: tuple[Cycle, ...] = ()
    g_part: Cycle | None = None
    obstruction: str | None = None
    obstruction_cycles: tuple[Cycle, ...] = ()

    def components(self) -> tuple[Cycle, ...]:
        assert self.feasible and self.g_part is not None
        return self.h_parts + (self.g_part,)


def _match_top_restriction(system: EquationSystem, work: Cycle, level: int) -> Cycle | None:
    """Span element equal to ``work`` at its top level, crossing nothing.

    Solves for coefficients over the rref rows: keep all horizontal pairings
    zero, kill every carrier above the level, and match every carrier at it.
    """
    if not system.rref_rows:
        return None
    vectors = system._row_vectors
    at_level = [col for col, lvl in enumerate(system.basis.column_levels) if lvl == level]
    constraints = _support_constraints(system, frozenset(), level)
    rows = constraints + [[v[col] for v in vectors] for col in at_level]
    rhs = [ZERO] * len(constraints) + [work.vector[col] for col in at_level]
    solution = linalg.solve_linear(rows, rhs)
    if solution is None:
        return None
    return Cycle.from_vector(system.basis, linalg.combine(solution, vectors))


def _scaled_to(work: Cycle, witness: Cycle, edges: Iterable[str]) -> Cycle:
    """``witness`` scaled to pair with the least of ``edges`` as ``work`` does."""
    anchor = min(edges)
    return witness.scale(pair(work, anchor) / pair(witness, anchor))


def decompose(system: EquationSystem, cycle: Cycle) -> DecomposeResult:
    """Split a span element into primitive horizontal components plus a rest.

    Components are span elements: each horizontal component crosses exactly a
    primitive edge set lying at its own top level and inside the input's
    support, the remainder crosses nothing, and everything sums back to the
    input.  When the span does not contain the witnesses the construction
    needs, the result is infeasible and carries the blocking subspace.  Each
    step searches the subsets of the horizontal edges at the work's top level,
    so more than 12 of them raise LimitError.
    """
    if not system.span_contains(cycle):
        raise SystemDataError("equation is not in the system span")
    h_parts: list[Cycle] = []
    g_total = system.basis.zero()
    work = cycle
    graph = system.graph
    for _ in range(len(graph.horizontal_edges) + graph.depth + 2):
        eq = Equation(work)
        support, top = eq.hor_support, eq.top
        if not support:
            g_total = g_total + work
            return _checked(system, cycle, tuple(h_parts), g_total)
        at_top = {e for e in support if graph.edge_level(e) == top}
        if at_top:
            for edges in _minimal_correlated_within(system, at_top):
                witness = correlated_witness(system, edges, max_level=top)
                if witness is not None:
                    break
            else:
                return DecomposeResult(
                    feasible=False,
                    obstruction=(
                        f"no top-level primitive component with support inside"
                        f" {sorted(support)} at level {top}"
                    ),
                    obstruction_cycles=tuple(_support_subspace(system, support)),
                )
            component = _scaled_to(work, witness, edges)
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


class PassageTable(NamedTuple):
    """What the undegeneration table needs of one kept-passage subset.

    ``row_masks`` has, for each rref row crossing a horizontal edge at its
    remapped top level, the bitmask of those edges.  ``inverted`` says the
    remapped levels break the basis order whatever edges are kept.  Each
    ``(a, b)`` in ``conditions`` is a pair of adjacent basis elements at one
    remapped level, the second crossing edge ``b``; keeping ``b`` but not the
    first element's edge ``a`` (0 when it has none) puts a crossing element
    after one that does not cross.
    """

    row_masks: tuple[int, ...]
    inverted: bool
    conditions: tuple[tuple[int, int], ...]


def passage_table(system: EquationSystem, undeg: Undegeneration) -> PassageTable:
    """The table for ``undeg.kept_passages``, built on first use.

    Relabeling is monotone, so a row's new top is the relabeled old one, and
    its crossings are the cached horizontal support.
    """
    table = system._passage_tables.get(undeg.kept_passages)
    if table is not None:
        return table
    graph = system.graph
    bits = system._edge_bits
    remap = {level: undeg.new_level(level) for level in set(system.basis.column_levels)}
    row_masks = []
    for eq in system.rref_rows:
        if eq.top is None:
            continue
        top = remap[eq.top]
        mask = 0
        for e in eq.hor_support:
            if remap[graph.edge_level(e)] == top:
                mask |= bits[e]
        if mask:
            row_masks.append(mask)
    inverted = False
    conditions = []
    elements = system.basis.elements
    for first, second in zip(elements, elements[1:]):
        above, below = remap[first.level], remap[second.level]
        if above < below:
            inverted = True
            break
        b = bits.get(second.edge, 0) if above == below and second.kind == CROSSING else 0
        if b:
            conditions.append((bits.get(first.edge, 0) if first.kind == CROSSING else 0, b))
    table = PassageTable(tuple(row_masks), inverted, tuple(conditions))
    system._passage_tables[undeg.kept_passages] = table
    return table


def _kept_mask(system: EquationSystem, undeg: Undegeneration) -> int:
    bits = system._edge_bits
    kept = 0
    for e in undeg.kept_horizontal:
        if e not in bits:
            raise SystemDataError(f"not a horizontal edge: {e}")
        kept |= bits[e]
    return kept


class UndegClassification(NamedTuple):
    undegeneration: Undegeneration
    codim_in_total: int
    lost: int
    divisorial: bool
    branch: str | None  # "vertical" | "horizontal" | "theorem-violating"
    ordering_caveat: bool


def classify_undegeneration(system: EquationSystem, undeg: Undegeneration) -> UndegClassification:
    """Codimension of the boundary piece selected by an undegeneration.

    Codimension in the total space is (horizontal kept) + (passages kept) +
    rank - lost; the piece is divisorial exactly when this is rank + 1, and a
    divisorial piece is reported with the branch that realizes it.  The
    horizontal branch needs every kept pair correlated, which is one shared
    correlation key.  The caveat flags a remap that breaks the basis order.
    """
    row_masks, inverted, conditions = passage_table(system, undeg)
    kept = _kept_mask(system, undeg)
    m = system.rank
    h2 = len(undeg.kept_horizontal)
    l2 = len(undeg.kept_passages)
    lost = len([mask for mask in row_masks if mask & kept])
    codim_total = h2 + l2 + m - lost
    divisorial = codim_total == m + 1
    branch: str | None = None
    if divisorial:
        if l2 == 1 and h2 == 0:
            branch = "vertical"
        elif l2 == 0:
            keys = system.annihilator[1]
            ok = len({keys[e] for e in undeg.kept_horizontal}) <= 1
            branch = "horizontal" if ok else "theorem-violating"
        else:
            branch = "theorem-violating"
    caveat = inverted or any([kept & b and not kept & a for a, b in conditions])
    return UndegClassification(undeg, codim_total, lost, divisorial, branch, caveat)


# -- consistency engine -----------------------------------------------------------


class ConsistencyCertificate(NamedTuple):
    verdict: str  # "consistent" | "consistent-with-obligations" | "inconsistent"
    rule: str | None = None
    forced: Cycle | None = None
    obligations: tuple[tuple[str, str], ...] = ()
    trace: tuple[str, ...] = ()

    @property
    def consistent(self) -> bool:
        return self.verdict != "inconsistent"


def _lead_key(vector: Sequence[GaussianRational]) -> tuple[GaussianRational | None, tuple]:
    """A vector's first nonzero entry (None when it is zero) and the vector scaled
    so that entry is 1 (the zero vector as it is), one inverse multiplied into
    the nonzero entries."""
    lead = next((x for x in vector if x.a or x.b), None)
    if lead is None:
        return None, tuple(vector)
    inverse = ONE / lead
    return lead, tuple([inverse * x if x.a or x.b else x for x in vector])


def _unit_residual(basis: AdaptedBasis, eid: str, span) -> tuple[GaussianRational | None, tuple]:
    """The ``_lead_key`` of the period symbol lambda[eid] reduced modulo a span's
    rref rows and pivots."""
    return _lead_key(linalg.reduce_vector(Cycle(basis, {}, {eid: ONE}).vector, *span))


def _single_lambda_term(basis: AdaptedBasis, vector: Sequence[GaussianRational]) -> str | None:
    carriers = [column for column, c in zip(basis.columns(), vector) if c.a or c.b]
    return carriers[0][1] if len(carriers) == 1 and carriers[0][0] == "l" else None


def proportionality_obligations(system: EquationSystem) -> list[tuple[str, str]]:
    """Missing proportionalities per cross-equivalence class.

    Groups each class's members by the key of their reduced period symbol
    (``EquationSystem.residuals``); classes whose members fall into more than
    one group owe the proportionalities linking consecutive groups.  A member
    whose symbol reduces to zero joins no group; ``consistency_report``
    refuses such a system at R5 before it asks for obligations.
    """
    residuals = system.residuals
    obligations: list[tuple[str, str]] = []
    for cls in system.cross_equivalence_classes:
        if len(cls) < 2:
            continue
        firsts: dict[tuple, str] = {}
        for eid in sorted(cls):
            lead, key = residuals[eid]
            if lead is not None:
                firsts.setdefault(key, eid)
        order = list(firsts.values())
        obligations += zip(order, order[1:])
    return obligations


def consistency_report(system: EquationSystem, assume_theorems: bool = False) -> ConsistencyCertificate:
    """Apply the five consistency rules in order; first violation wins.

    R1  a horizontal-crossing row must cross at least two horizontal nodes;
    R2  residue forms must not force a nonvanishing period to zero;
    R3  cross-equivalence classes lie at a single level;
    R4  rows cross no horizontal node strictly below their top level;
    R5  the combined relations must not force a nonvanishing period to zero
        (a unit vector in their span is one of their echelon rows, so past
        this every residual is nonzero), and periods within a class must be
        proportional (missing ratios are obligations).
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
    rows, pivots = system.reduction_relations
    forms = system.residue_forms
    for j, i, form in forms:
        residual = linalg.reduce_vector(form.vector, rows, pivots)
        if linalg.is_zero_vector(residual):
            continue
        eid = _single_lambda_term(system.basis, residual)
        if eid is not None and eid in system.nonvanishing:
            forced = Cycle(system.basis, {}, {eid: ONE})  # the residual, scaled to lead with 1
            trace.append(f"R2: row {j} at passage {i} forces {forced.render()} = 0 with {eid} nonvanishing")
            return ConsistencyCertificate("inconsistent", "R2", forced, (), tuple(trace))
        if assume_theorems:
            rows, pivots = linalg.rref(rows + [form.vector])
    trace.append(f"R2: {len(forms)} residue forms reduce without forcing a nonvanishing period")

    # R3
    for cls in system.cross_equivalence_classes:
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
    for row in rows:
        eid = _single_lambda_term(system.basis, row)
        if eid is not None and eid in system.nonvanishing:
            forced = Cycle(system.basis, {}, {eid: ONE})
            trace.append(f"R5: combined relations force {forced.render()} = 0")
            return ConsistencyCertificate("inconsistent", "R5", forced, (), tuple(trace))
    obligations = proportionality_obligations(system)
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
