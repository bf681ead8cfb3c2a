"""Reference implementations kept as oracles for correlation and the
undegeneration table.

``top_level``, ``remapped_top`` and ``lost_count`` are the pair-based routines
``strata.equations`` used before rows cached their horizontal pairings and top
levels: the top level is read from each carrier's element or edge level, the
remapped top relabels every carrier, and ``lost_count`` pairs each row with
each kept horizontal edge again.

``is_correlated``, ``remap_is_adapted`` and ``classify_undegeneration`` are the
primal routines used before the annihilator and the per-passage-subset
tables: one support-subspace nullspace per correlation query, the basis key
list rebuilt per undegeneration, and one ``is_correlated`` per kept pair.

``residue_forms`` is the residue-form table built before the graph kept each
passage's weights: every crossing edge of every row and passage recomputes the
passage's lcm of kappas and divides it by its own kappa.

``ratio_closure`` and ``ratio`` are the proportionality closure and lookup
built on ``Fraction`` before the closure moved to (numerator, denominator)
int pairs; ``ratio_closure`` maps each edge to (root, Fraction).

``monic`` and ``annihilator_keys`` are the two ways ``strata.equations`` scaled
a vector to lead with 1 before one routine did it: ``monic`` scales a cycle by
``ONE / lead`` (the residual keys and the R2/R5 forced cycles), and the
annihilator's keys divide every entry of a column by its lead.  ``forced`` is
the cycle R2, else R5, of ``consistency_report`` forces to zero, made monic by
``monic``, on the span ``oracle_homology.relation_fold`` builds.

``cross_equivalence_classes``, ``correlated_witness`` and ``decompose`` are the
routines used before the node constructions were computed from their
definitions: a union-find over consecutive members of each row's support; a
witness loop that threads a ``None`` witness and a ``done`` list; and a
decomposition that enumerates every minimal correlated subset of its whole
support (so its limit counts every crossed edge), keeps those lying at the
top level, and builds its top-level match from rows of its own, at-level
columns first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable

from oracle_homology import relation_fold, single_lambda_term
from strata import linalg
from strata.equations import (
    DecomposeResult,
    Equation,
    EquationSystem,
    ProportionalityData,
    UndegClassification,
    _checked,
    _minimal_correlated_within,
    _support_constraints,
    _support_subspace,
)
from strata.errors import SystemDataError
from strata.gaussian import ONE, ZERO, GaussianRational
from strata.homology import Cycle, pair
from strata.level_graph import Undegeneration


def top_level(cycle: Cycle) -> int | None:
    """Highest level carrying a nonzero coefficient; None for the zero cycle."""
    graph = cycle.basis.graph
    levels = [cycle.basis.element(name).level for name in cycle.coeffs]
    levels += [graph.edge_level(eid) for eid in cycle.lam]
    return max(levels) if levels else None


def remapped_top(system: EquationSystem, cycle: Cycle, undeg: Undegeneration) -> int | None:
    graph = system.graph
    levels = [undeg.new_level(system.basis.element(n).level) for n in cycle.coeffs]
    levels += [undeg.new_level(graph.edge_level(e)) for e in cycle.lam]
    return max(levels) if levels else None


def lost_count(system: EquationSystem, undeg: Undegeneration) -> int:
    """Rows whose remapped top level crosses a surviving horizontal edge."""
    graph = system.graph
    count = 0
    for eq in system.rref_rows:
        new_top = remapped_top(system, eq.cycle, undeg)
        if new_top is None:
            continue
        for eid in undeg.kept_horizontal:
            if undeg.new_level(graph.edge_level(eid)) == new_top and pair(eq.cycle, eid):
                count += 1
                break
    return count


def is_correlated(system: EquationSystem, edges: Iterable[str]) -> bool:
    """Whether some span element crosses exactly this horizontal edge set.

    The span elements with pairings zero outside the set form a subspace; the
    set is realized exactly when no single pairing functional vanishes on the
    whole subspace.
    """
    wanted = frozenset(edges)
    horizontal = set(system.graph.horizontal_edges)
    if not wanted <= horizontal:
        raise SystemDataError(f"not horizontal edges: {sorted(wanted - horizontal)}")
    subspace = linalg.nullspace(_support_constraints(system, wanted), system.rank)
    functionals = [col for eid, col in system._pairing_columns.items() if eid in wanted]
    images = [linalg.matvec(functionals, coords) for coords in subspace]
    return all(any(image[k] for image in images) for k in range(len(functionals)))


def remap_is_adapted(system: EquationSystem, undeg: Undegeneration) -> bool:
    kept = set(undeg.kept_horizontal)
    keys = []
    for el in system.basis.elements:
        still_crossing = el.kind == "crossing" and el.edge in kept
        keys.append((-undeg.new_level(el.level), 0 if still_crossing else 1))
    return keys == sorted(keys)


def classify_undegeneration(system: EquationSystem, undeg: Undegeneration) -> UndegClassification:
    """Codimension, divisoriality, branch and caveat, recomputed per undegeneration."""
    m = system.rank
    h2 = len(undeg.kept_horizontal)
    l2 = len(undeg.kept_passages)
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
        ordering_caveat=not remap_is_adapted(system, undeg),
    )


def residue_forms(system: EquationSystem) -> tuple[tuple[int, int, Cycle], ...]:
    """All nonzero residue forms (row index, passage, form) of the rref rows."""
    graph = system.graph
    out = []
    for j, eq in enumerate(system.rref_rows):
        for i in graph.passage_indices():
            if eq.top is not None and i <= eq.top:
                lam = {}
                for e in graph.crossing_edges(i):
                    weight = lcm(*[graph.edge(x).kappa for x in graph.crossing_edges(i)]) // graph.edge(e).kappa
                    lam[e] = pair(eq.cycle, e) * GaussianRational(weight)
                form = Cycle(system.basis, {}, lam)
                if not form.is_zero():
                    out.append((j, i, form))
    return tuple(out)


def ratio_closure(ratios: ProportionalityData):
    """(ratio_to_root, conflicts) of the declared ratios, on Fractions."""
    adjacency: dict[str, list[tuple[str, Fraction]]] = {}
    for e, ep, q in ratios.entries:
        if q == 0:
            continue
        adjacency.setdefault(e, []).append((ep, q))
        adjacency.setdefault(ep, []).append((e, 1 / q))
    ratio: dict[str, tuple[str, Fraction]] = {}
    for root in sorted(adjacency):
        if root in ratio:
            continue
        ratio[root] = (root, Fraction(1))
        queue = [root]
        while queue:
            x = queue.pop(0)
            _, rx = ratio[x]
            for y, q_xy in adjacency[x]:
                if y not in ratio:
                    ratio[y] = (root, rx / q_xy)
                    queue.append(y)
    conflicts = [
        (e, ep, f"chain gives {ratio[e][1] / q}, declared closure gives {ratio[ep][1]}")
        for e, ep, q in ratios.entries
        if q and ratio[e][1] / q != ratio[ep][1]
    ]
    return ratio, conflicts


def ratio(ratios: ProportionalityData, e: str, ep: str) -> Fraction | None:
    if e == ep:
        return Fraction(1)
    closure, _ = ratio_closure(ratios)
    if e not in closure or ep not in closure:
        return None
    root_e, q_e = closure[e]
    root_ep, q_ep = closure[ep]
    if root_e != root_ep:
        return None
    return q_e / q_ep


def monic(cycle: Cycle) -> Cycle:
    lead = next((c for c in cycle.vector if c), None)
    return cycle.scale(ONE / lead) if lead else cycle


def annihilator_keys(columns: dict[str, tuple]) -> dict[str, tuple]:
    """Each column divided by its first nonzero entry, or the zero column itself."""
    keys = {}
    for e, column in columns.items():
        lead = next((x for x in column if x), None)
        keys[e] = tuple([x / lead for x in column]) if lead else column
    return keys


def forced(system: EquationSystem, assume_theorems: bool = False) -> tuple[str, Cycle] | None:
    """The first rule of R2 and R5 that forces a nonvanishing period to zero, and
    the monic forced cycle, as if R1, R3 and R4 passed; None when neither does."""
    relations = relation_fold(system)
    for _, _, form in system.residue_forms:
        residual = relations.reduce(form)
        if residual.is_zero():
            continue
        if single_lambda_term(residual) in system.nonvanishing:
            return "R2", monic(residual)
        if assume_theorems:
            relations = relations.with_added([form])
    for rel in relations.echelon:
        if single_lambda_term(rel) in system.nonvanishing:
            return "R5", monic(rel)
    return None


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
    return tuple([frozenset(groups[root]) for root in sorted(groups)])


def correlated_witness(
    system: EquationSystem, edges: Iterable[str], max_level: int | None = None
) -> Cycle | None:
    """A span element with horizontal support exactly ``edges``, or None."""
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


def match_top_restriction(system: EquationSystem, work: Cycle, level: int) -> Cycle | None:
    """Span element equal to ``work`` at its top level, crossing nothing."""
    rows = system.rref_rows
    if not rows:
        return None
    vectors = system._row_vectors
    target_vec = work.vector
    constraint_rows: list[list[GaussianRational]] = []
    rhs: list[GaussianRational] = []
    for col, lvl in enumerate(system.basis.column_levels):
        if lvl >= level:
            constraint_rows.append([v[col] for v in vectors])
            rhs.append(target_vec[col] if lvl == level else ZERO)
    constraint_rows += system._pairing_columns.values()
    rhs += [ZERO] * len(system._pairing_columns)
    solution = linalg.solve_linear(constraint_rows, rhs)
    if solution is None:
        return None
    return Cycle.from_vector(system.basis, linalg.combine(solution, vectors))


def decompose(system: EquationSystem, cycle: Cycle) -> DecomposeResult:
    """Split a span element into primitive horizontal components plus a rest."""
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
            replacement = match_top_restriction(system, work, top)
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
