"""Reference implementations kept as oracles for the undegeneration table.

These are the pair-based routines ``strata.equations`` used before rows
cached their horizontal pairings and top levels: the top level is read from
each carrier's element or edge level, the remapped top relabels every carrier,
and ``lost_count`` pairs each row with each kept horizontal edge again.
"""

from __future__ import annotations

from strata.equations import EquationSystem
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
