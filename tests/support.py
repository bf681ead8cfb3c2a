"""Shared builders and independent oracles for the test suite.

STRATA_SEED pins every randomized fixture; the default makes runs
reproducible without configuration.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path

from oracle_equations import is_correlated
from oracle_linalg import invert
from strata.document import parse_document
from strata.equations import EquationSystem
from strata.gaussian import GaussianRational, parse_gaussian
from strata.homology import AdaptedBasis, BasisElement, Cycle
from strata.errors import GraphError
from strata.level_graph import Edge, EnhancedLevelGraph, Marking, Undegeneration, Vertex, validate

SEED = int(os.environ.get("STRATA_SEED", "0"))


def rng(offset: int = 0) -> random.Random:
    return random.Random(SEED + offset)


# -- graph builders ---------------------------------------------------------


def loop_graph(n_horizontal: int) -> EnhancedLevelGraph:
    """One genus-0 vertex with n horizontal self-loops; marking balances."""
    edges = [Edge(f"e{k + 1}", ("w", "w")) for k in range(n_horizontal)]
    graph = EnhancedLevelGraph(
        [Vertex("w", 0, 0)], edges, [Marking("w", 2 * n_horizontal - 2)]
    )
    assert validate(graph) == []
    return graph


def two_level_graph(kappas=(1,)) -> EnhancedLevelGraph:
    """Two vertices joined by vertical edges with the given enhancements."""
    edges = [
        Edge(f"v{k + 1}", ("top", "bottom"), top="top", kappa=kappa)
        for k, kappa in enumerate(kappas)
    ]
    top_order = 2 * 1 - 2 - sum(k - 1 for k in kappas)
    bottom_order = 2 * 1 - 2 - sum(-k - 1 for k in kappas)
    graph = EnhancedLevelGraph(
        [Vertex("top", 1, 0), Vertex("bottom", 1, -1)],
        edges,
        [Marking("top", top_order), Marking("bottom", bottom_order)],
    )
    assert validate(graph) == []
    return graph


def random_graph(r: random.Random, max_depth: int = 2, max_horizontal: int = 4) -> EnhancedLevelGraph:
    """Connected leveled graph with balancing markings chosen afterwards.

    One vertex per level joined by a vertical chain with random enhancements,
    plus extra vertical edges skipping levels and horizontal self-loops at
    random levels.  A single marking per vertex absorbs the order balance, so
    every draw is valid.
    """
    depth = r.randint(0, max_depth)
    vertices = [Vertex(f"v{i}", r.randint(0, 2), -i) for i in range(depth + 1)]
    edges = []
    serial = 0
    for i in range(depth):
        serial += 1
        edges.append(Edge(f"c{serial}", (f"v{i}", f"v{i + 1}"), top=f"v{i}", kappa=r.randint(1, 4)))
    for _ in range(r.randint(0, 2) if depth else 0):
        lo = r.randint(1, depth)
        hi = r.randint(0, lo - 1)
        serial += 1
        edges.append(Edge(f"x{serial}", (f"v{hi}", f"v{lo}"), top=f"v{hi}", kappa=r.randint(1, 4)))
    n_h = r.randint(0, max_horizontal)
    for k in range(n_h):
        host = f"v{r.randint(0, depth)}"
        edges.append(Edge(f"h{k + 1}", (host, host)))
    graph_wo = EnhancedLevelGraph(vertices, edges, [])
    markings = []
    for v in vertices:
        delta = 0
        for e in edges:
            if graph_wo.is_horizontal(e.id):
                delta += sum(-1 for end in e.ends if end == v.id)
            else:
                if e.top == v.id:
                    delta += e.kappa - 1
                bottom = e.ends[0] if e.top == e.ends[1] else e.ends[1]
                if bottom == v.id:
                    delta += -e.kappa - 1
        markings.append(Marking(v.id, 2 * v.genus - 2 - delta))
    graph = EnhancedLevelGraph(vertices, edges, markings)
    assert validate(graph) == []
    return graph


# -- undegeneration helpers ----------------------------------------------------


def surviving_vertical(undeg: Undegeneration, graph: EnhancedLevelGraph) -> tuple[str, ...]:
    """The vertical edges crossing a kept passage, in the graph's order."""
    crossed = {e for p in undeg.kept_passages for e in graph._crossing.get(p, ())}
    return tuple([e for e in graph.vertical_edges if e in crossed])


def surviving_edges(undeg: Undegeneration, graph: EnhancedLevelGraph) -> tuple[str, ...]:
    return tuple(sorted(undeg.kept_horizontal + surviving_vertical(undeg, graph)))


def target_codim(undeg: Undegeneration) -> int:
    return len(undeg.kept_passages) + len(undeg.kept_horizontal)


def then(first: Undegeneration, graph: EnhancedLevelGraph, second: Undegeneration) -> Undegeneration:
    """Compose with an undegeneration of the target graph.

    The second undegeneration names passages in the relabeled target
    levels; kept target passage -j corresponds to the j-th kept passage of
    the first one, counted from the top.
    """
    ordered = sorted(first.kept_passages, reverse=True)
    kept = []
    for p2 in second.kept_passages:
        j = -p2
        if not 1 <= j <= len(ordered):
            raise GraphError(f"passage {p2} is not a passage of the target graph")
        kept.append(ordered[j - 1])
    for h in second.kept_horizontal:
        if h not in first.kept_horizontal:
            raise GraphError(f"edge {h} is not a horizontal edge of the target graph")
    return Undegeneration.make(kept, second.kept_horizontal)


def top_vertices_have_horizontal(graph: EnhancedLevelGraph) -> bool:
    """Whether every level-0 vertex meets a horizontal edge."""
    covered: set[str] = set()
    for eid in graph.horizontal_edges:
        covered.update(graph.edge(eid).ends)
    return all(v.id in covered for v in graph.vertices if v.level == 0)


# -- basis builders -----------------------------------------------------------


def adapted_basis_for(
    graph: EnhancedLevelGraph,
    r: random.Random | None = None,
    noncrossing_per_level: int = 2,
    vertical_pairing_range: int = 2,
) -> AdaptedBasis:
    """Crossing element per horizontal edge plus noncrossing spares.

    Noncrossing elements may pair arbitrarily with vertical edges; all
    horizontal pairings follow the adaptedness rules exactly.
    """
    elements = []
    pairings = {}
    verticals = list(graph.vertical_edges)
    levels = sorted({v.level for v in graph.vertices}, reverse=True)
    for level in levels:
        crossing = [e for e in graph.horizontal_edges if graph.edge_level(e) == level]
        for eid in crossing:
            name = f"d_{eid}"
            elements.append(BasisElement(name, level, "crossing", eid))
            table = {eid: 1}
            if r is not None:
                for vid in verticals:
                    if graph.top_level(vid) <= level:
                        table[vid] = r.randint(-vertical_pairing_range, vertical_pairing_range)
            pairings[name] = table
        for k in range(noncrossing_per_level):
            name = f"n{-level}_{k}"
            elements.append(BasisElement(name, level, "noncrossing", None))
            table = {}
            if r is not None:
                for vid in verticals:
                    if graph.top_level(vid) <= level:
                        table[vid] = r.randint(-vertical_pairing_range, vertical_pairing_range)
            pairings[name] = table
    return AdaptedBasis(graph, elements, pairings)


def random_int_cycle(basis: AdaptedBasis, r: random.Random, lo=-2, hi=2, lam=True) -> Cycle:
    coeffs = {name: GaussianRational(r.randint(lo, hi)) for name in basis.names}
    lam_coeffs = {}
    if lam:
        for e in basis.graph.edges:
            lam_coeffs[e.id] = GaussianRational(r.randint(lo, hi))
    return Cycle(basis, coeffs, lam_coeffs)


def random_system(
    graph: EnhancedLevelGraph,
    r: random.Random,
    rank: int,
    lo: int = -2,
    hi: int = 2,
    real: bool = True,
    lam: bool = True,
) -> EquationSystem:
    basis = adapted_basis_for(graph, r)
    cycles = [random_int_cycle(basis, r, lo, hi, lam=lam) for _ in range(rank)]
    return EquationSystem(basis, cycles, real=real)


def refusable_system(r: random.Random) -> EquationSystem:
    """A random graph's system of 1-3 rows with entries in {-1, 0, 1}, two-term
    and single-term lambda relations, and random vertical edges declared
    nonvanishing: every rule R1-R5 refuses some of these."""
    graph = random_graph(r)
    basis = adapted_basis_for(graph, r)
    rows = [random_int_cycle(basis, r, -1, 1, lam=r.random() < 0.5) for _ in range(r.randint(1, 3))]
    edges = [e.id for e in graph.edges]
    relations = [
        Cycle(basis, {}, {a: GaussianRational(1), b: GaussianRational(r.choice([-1, 1, 2]))})
        for a, b in combinations(edges, 2)
        if r.random() < 0.1
    ]
    relations += [Cycle(basis, {}, {e: GaussianRational(2)}) for e in edges if r.random() < 0.05]
    nonvanishing = [e for e in edges if not graph.is_horizontal(e) and r.random() < 0.5]
    return EquationSystem(basis, rows, relations=relations, nonvanishing=nonvanishing)


def real_parallel_fixture(r: random.Random):
    """Random real system with one cylinder class plus satisfying periods.

    Every horizontal-crossing row is supported on the whole class, and the
    period assignment is drawn from the exact solution space of the system
    intersected with the conditions forcing each cross-class remainder to be
    real, so the deformation hypotheses hold by construction.
    """
    from strata import linalg
    from strata.periods import PeriodAssignment

    n = r.randint(2, 4)
    graph = loop_graph(n)
    basis = adapted_basis_for(graph)
    columns = basis.columns()
    curve_names = [f"d_e{k + 1}" for k in range(n)]

    def nz():
        return GaussianRational(r.choice([-2, -1, 1, 2]))

    rows = []
    crossing_rows = []
    first = Cycle(basis, {name: nz() for name in curve_names}, {})
    crossing_rows.append(first)
    for _ in range(r.randint(0, 1)):
        support = {name: nz() for name in curve_names if r.random() < 0.7}
        if len(support) >= 2:
            crossing_rows.append(Cycle(basis, support, {}))
    for row in crossing_rows:
        extra = {f"n0_{k}": GaussianRational(r.randint(-2, 2)) for k in range(2)}
        rows.append(row + Cycle(basis, extra, {}))
    for _ in range(r.randint(0, 2)):
        rows.append(
            Cycle(
                basis,
                {f"n0_{k}": GaussianRational(r.randint(-2, 2)) for k in range(2)},
                {e.id: GaussianRational(r.randint(-2, 2)) for e in graph.edges},
            )
        )
    system = EquationSystem(basis, rows, real=True)

    matrix = [row.to_vector() for row in rows]
    x_basis = linalg.nullspace(matrix, len(columns))
    imag_constraints = list(matrix)
    for row in system.rref_rows:
        if row.hor_support:
            constraint = [GaussianRational(0)] * len(columns)
            for k, (kind, key) in enumerate(columns):
                if kind == "b" and key in curve_names:
                    constraint[k] = row.cycle.coeffs.get(key, GaussianRational(0))
            imag_constraints.append(constraint)
    y_basis = linalg.nullspace(imag_constraints, len(columns))

    def combine(vectors):
        out = [GaussianRational(0)] * len(columns)
        for v in vectors:
            weight = GaussianRational(Fraction(r.randint(-3, 3), r.randint(1, 3)))
            out = [a + weight * b for a, b in zip(out, v)]
        return out

    x = combine(x_basis)
    y = combine(y_basis)
    basis_values = {}
    lam_values = {}
    for k, (kind, key) in enumerate(columns):
        value = GaussianRational(x[k].re, y[k].re)
        if kind == "b":
            basis_values[key] = value
        else:
            lam_values[key] = value
    assignment = PeriodAssignment(basis_values, lam_values, exact=True)
    return system, assignment


def decomposable_fixture(r: random.Random) -> EquationSystem:
    """Two-level graph with horizontal loops on both levels and rows shaped
    like primitive-at-top components plus non-crossing remainders."""
    graph = EnhancedLevelGraph(
        [Vertex("v0", 1, 0), Vertex("v1", 1, -1)],
        [
            Edge("h1", ("v0", "v0")),
            Edge("h2", ("v0", "v0")),
            Edge("h3", ("v1", "v1")),
            Edge("h4", ("v1", "v1")),
            Edge("c1", ("v0", "v1"), top="v0", kappa=r.randint(1, 2)),
        ],
        [],
    )
    kappa = graph.edge("c1").kappa
    markings = [Marking("v0", 2 - (kappa - 1) + 2), Marking("v1", 2 - (-kappa - 1) + 2)]
    graph = EnhancedLevelGraph(graph.vertices, graph.edges, markings)
    assert validate(graph) == []
    basis = adapted_basis_for(graph, r)

    def nz():
        return GaussianRational(r.choice([-2, -1, 1, 2]))

    rows = [
        Cycle(basis, {"d_h1": nz(), "d_h2": nz(), "n0_0": nz(), "n1_0": nz()}, {}),
        Cycle(basis, {"d_h3": nz(), "d_h4": nz(), "n1_1": nz()}, {}),
        Cycle(basis, {"n0_1": nz(), "n1_0": nz()}, {"c1": nz()}),
    ]
    return EquationSystem(basis, rows)


def assert_decomposition_contract(system, cycle, result):
    """The three output clauses plus exact resummation, checked directly."""
    from strata.equations import hor_support, top_level

    assert result.feasible
    total = result.g_part
    for h in result.h_parts:
        total = total + h
    assert (total - cycle).is_zero()
    assert hor_support(result.g_part) == frozenset()
    assert system.span_contains(result.g_part)
    support = hor_support(cycle)
    for h in result.h_parts:
        h_support = hor_support(h)
        assert h_support <= support
        assert system.span_contains(h)
        level = top_level(h)
        assert all(system.graph.edge_level(e) == level for e in h_support)
        for smaller in exhaustive_minimal_correlated(system):
            if smaller < h_support:
                raise AssertionError(f"{sorted(h_support)} is not primitive")


def aim_parallel_fixture(r: random.Random, genus: int):
    """Minimal-stratum style data: one parallel class of ``genus`` cylinders.

    Cross-curve and circumference rows with random positive rational ratios,
    declared proportionality data, carrier identifications linking the
    noncrossing basis elements to the vanishing cycles, and absolute data with
    the standard symplectic form.  The tangent image is symplectic for every
    draw (the pairing matrix is I plus a positive rank-one update).
    """
    from strata.symplectic import SymplecticData
    from strata.equations import ProportionalityData

    graph = loop_graph(genus)
    basis = adapted_basis_for(graph, noncrossing_per_level=genus)
    names_d = [f"d_e{k + 1}" for k in range(genus)]
    names_a = [f"n0_{k}" for k in range(genus)]
    edges = [f"e{k + 1}" for k in range(genus)]

    def positive():
        return Fraction(r.randint(1, 4), r.randint(1, 4))

    c = [positive() for _ in range(genus - 1)]
    q = [positive() for _ in range(genus - 1)]
    rows = []
    for k in range(1, genus):
        rows.append(
            Cycle(basis, {names_d[k]: GaussianRational(1), names_d[0]: GaussianRational(-c[k - 1])}, {})
        )
        rows.append(
            Cycle(basis, {}, {edges[k]: GaussianRational(1), edges[0]: GaussianRational(-q[k - 1])})
        )
    relations = [
        Cycle(basis, {names_a[k]: GaussianRational(1)}, {edges[k]: GaussianRational(-1)})
        for k in range(genus)
    ]
    ratios = ProportionalityData(
        [(edges[k], edges[0], q[k - 1]) for k in range(1, genus)]
    )
    system = EquationSystem(
        basis, rows, real=True, minimal_stratum=True, relations=relations, ratios=ratios
    )

    n = 2 * genus
    j_matrix = tuple(
        tuple(
            (1 if (a < genus and b == a + genus) else (-1 if (a >= genus and b == a - genus) else 0))
            for b in range(n)
        )
        for a in range(n)
    )
    width = len(basis.columns())
    column_index = {key: k for k, key in enumerate(basis.columns())}

    def unit_cycle(name):
        vec = [GaussianRational(0)] * width
        vec[column_index[("b", name)]] = GaussianRational(1)
        return Cycle.from_vector(basis, vec)

    iota = tuple(unit_cycle(names_d[k]) for k in range(genus)) + tuple(
        unit_cycle(names_a[k]) for k in range(genus)
    )
    u_lambda = {}
    for k in range(genus):
        vec = [GaussianRational(0)] * n
        vec[genus + k] = GaussianRational(1)
        u_lambda[edges[k]] = tuple(vec)
    data = SymplecticData(j_matrix, iota, u_lambda, minimal=True)
    return system, data


# -- independent oracles --------------------------------------------------------


def _generators():
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import generators

    return generators


def cylinders_document(g: int, index: int = 0):
    """The benchmark's parallel-cylinders document ``index`` of genus ``g``, parsed."""
    return parse_document(_generators().cylinders_document(g, index))


def write_cylinders_document(path, g: int, index: int = 0) -> str:
    """Write that document to ``path`` as the benchmark does; returns the path as text."""
    generators = _generators()
    generators.write_document(generators.cylinders_document(g, index), str(path))
    return str(path)


def conjugated_document(raw: dict, u) -> dict:
    """A copy of the raw document ``raw`` over the absolute basis ``b'_a = sum_b u[a][b] b_b``,
    for an integer matrix ``u`` invertible over Q: J becomes ``u J u^T``, iota ``u iota`` and each
    lambda image ``u^-T u_lambda``, so the gate's adjunction holds exactly when it held before."""
    sym = raw["symplectic"]
    u_rows = [[GaussianRational(x) for x in row] for row in u]
    u_inv_t = list(zip(*invert(u_rows)))
    iota_columns = list(zip(*[[parse_gaussian(x) for x in row] for row in sym["iota"]]))

    def dot(xs, ys) -> str:
        return sum((x * y for x, y in zip(xs, ys)), GaussianRational(0)).canonical()

    out = json.loads(json.dumps(raw))
    out["symplectic"]["J"] = [
        [sum(x * j_row[k] * w for x, j_row in zip(a, sym["J"]) for k, w in enumerate(b)) for b in u] for a in u
    ]
    out["symplectic"]["iota"] = [[dot(a, column) for column in iota_columns] for a in u_rows]
    out["symplectic"]["u_lambda"] = {
        e: [dot(a, [parse_gaussian(x) for x in v]) for a in u_inv_t] for e, v in sym["u_lambda"].items()
    }
    return out


def bench_pool_documents() -> list[dict]:
    """Every raw document of the benchmark's dense-complex and parallel-cylinders pools."""
    generators = _generators()
    return [
        make(size, index)
        for make, sizes in (
            (generators.dense_document, generators.DENSE_SIZES),
            (generators.cylinders_document, generators.CYLINDER_GENERA),
        )
        for size in sizes
        for index in range(generators.POOL_SIZE)
    ]


@cache
def bench_pool_systems() -> tuple[EquationSystem, ...]:
    """The system of every benchmark pool document, parsed once per session."""
    return tuple([parse_document(doc).system() for doc in bench_pool_documents()])


def dense_pool(n: int) -> list:
    """Every document of the benchmark's dense-complex pool of size ``n``, parsed."""
    generators = _generators()
    return [parse_document(generators.dense_document(n, index)) for index in range(generators.POOL_SIZE)]


def cylinders_system(g: int, index: int = 0) -> EquationSystem:
    """The system of the benchmark's parallel-cylinders document ``index`` of genus ``g``."""
    return cylinders_document(g, index).system()


def closure_of_sets(universe, sets) -> list[frozenset]:
    """Partition of the universe generated by the given sets (plain merging)."""
    blocks = [{x} for x in universe]
    for s in sets:
        touched = [b for b in blocks if b & set(s)]
        if touched:
            merged = set().union(*touched) | set(s)
            blocks = [b for b in blocks if not (b & set(s))]
            blocks.append(merged)
    return sorted((frozenset(b) for b in blocks), key=lambda b: sorted(b))


def exhaustive_minimal_correlated(system: EquationSystem) -> list[frozenset]:
    """Minimal correlated sets by unpruned enumeration and direct filtering."""
    horizontal = sorted(system.graph.horizontal_edges)
    correlated = []
    for size in range(1, len(horizontal) + 1):
        for combo in combinations(horizontal, size):
            if is_correlated(system, frozenset(combo)):
                correlated.append(frozenset(combo))
    minimal = [
        s for s in correlated if not any(t < s for t in correlated)
    ]
    return sorted(minimal, key=lambda s: sorted(s))


def ratio_forms(system: EquationSystem) -> list[Cycle]:
    """``lambda[e] - q lambda[e']`` per declared ratio with e != e', built by hand."""
    return [
        Cycle(system.basis, {}, {e: GaussianRational(1), ep: GaussianRational(-q)})
        for e, ep, q in system.ratios.entries
        if e != ep
    ]


def fraction_vector(values) -> list[Fraction]:
    return [Fraction(v) for v in values]
