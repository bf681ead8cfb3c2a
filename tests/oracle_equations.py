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
``monic``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable

from strata import linalg
from strata.equations import (
    EquationSystem,
    ProportionalityData,
    UndegClassification,
    _single_lambda_term,
    _support_coords,
)
from strata.errors import SystemDataError
from strata.gaussian import ONE, GaussianRational
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
    subspace = _support_coords(system, wanted)
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
    relations = system.reduction_relations
    for _, _, form in system.residue_forms:
        residual = relations.reduce(form)
        if residual.is_zero():
            continue
        if _single_lambda_term(residual) in system.nonvanishing:
            return "R2", monic(residual)
        if assume_theorems:
            relations = relations.with_added([form])
    for rel in relations.echelon:
        if _single_lambda_term(rel) in system.nonvanishing:
            return "R5", monic(rel)
    return None
