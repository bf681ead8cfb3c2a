from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_equations
import oracle_homology
from strata import equations, homology, linalg
from strata.equations import (
    Equation,
    EquationSystem,
    ProportionalityData,
    classify_undegeneration,
    consistency_report,
    correlated_witness,
    cross_equivalence_classes,
    decompose,
    hor_support,
    is_correlated,
    primitive_sets,
    residue_forms,
    residue_relation,
    system_violations,
    top_level,
)
from strata.errors import LimitError, SystemDataError
from strata.gaussian import ZERO, ONE, GaussianRational
from strata.homology import AdaptedBasis, BasisElement, Cycle, pair, picard_lefschetz
from strata.level_graph import (
    Edge,
    EnhancedLevelGraph,
    Marking,
    Undegeneration,
    Vertex,
    enumerate_undegenerations,
    passage_weight,
    validate,
)
from support import (
    adapted_basis_for,
    aim_parallel_fixture,
    assert_decomposition_contract,
    bench_pool_systems,
    cylinders_system,
    decomposable_fixture,
    dense_pool,
    exhaustive_minimal_correlated,
    loop_graph,
    random_graph,
    random_int_cycle,
    random_system,
    ratio_forms,
    real_parallel_fixture,
    refusable_system,
    rng,
    two_level_graph,
    write_cylinders_document,
)


def flip_orientation(system: EquationSystem, eid: str) -> EquationSystem:
    """Reverse the stored orientation of one vanishing cycle everywhere."""
    basis = system.basis
    new_pairings = {}
    for name in basis.names:
        table = dict(basis._pairings.get(name, {}))
        if eid in table:
            table[eid] = -table[eid]
        new_pairings[name] = table
    new_basis = AdaptedBasis(basis.graph, basis.elements, new_pairings)

    def flip_cycle(c: Cycle) -> Cycle:
        lam = {e: (-v if e == eid else v) for e, v in c.lam.items()}
        return Cycle(new_basis, dict(c.coeffs), lam)

    relations = [flip_cycle(c) for c in system.relations]
    ratios = ProportionalityData(
        [
            (e, ep, -q if (e == eid) != (ep == eid) else q)
            for e, ep, q in system.ratios.entries
        ]
    )
    return EquationSystem(
        new_basis,
        [flip_cycle(c) for c in system.equations],
        real=system.real,
        minimal_stratum=system.minimal_stratum,
        relations=relations,
        ratios=ratios,
        nonvanishing=system.nonvanishing,
    )


# -- rref -----------------------------------------------------------------------


def _pivots(system):
    """The basis column each rref row leads with."""
    columns = system.basis.columns()
    return tuple([columns[next(k for k, x in enumerate(eq.cycle.vector) if x)] for eq in system.rref_rows])


def test_rref_single_row():
    basis = adapted_basis_for(loop_graph(2))
    system = EquationSystem(basis, [Cycle(basis, {"d_e1": ONE, "d_e2": -ONE}, {})])
    assert system.rank == 1
    assert _pivots(system) == (("b", "d_e1"),)
    assert system.rref_rows[0].cycle == Cycle(basis, {"d_e1": ONE, "d_e2": -ONE}, {})


def test_rref_elimination():
    basis = adapted_basis_for(loop_graph(2))
    rows = [
        Cycle(basis, {"d_e1": ONE, "d_e2": ONE}, {}),
        Cycle(basis, {"d_e2": ONE}, {}),
    ]
    system = EquationSystem(basis, rows)
    assert [r.cycle for r in system.rref_rows] == [
        Cycle(basis, {"d_e1": ONE}, {}),
        Cycle(basis, {"d_e2": ONE}, {}),
    ]


def test_rref_worked_example_pivots(documents):
    system = documents["parallel_cylinders"].system()
    assert _pivots(system) == (("b", "d1"), ("l", "e1"))


# -- supports and top levels ------------------------------------------------------


def test_support_examples(documents):
    basis = adapted_basis_for(loop_graph(2))
    pure = Cycle(basis, {}, {"e1": ONE, "e2": -ONE})
    assert hor_support(pure) == frozenset()
    both = Cycle(basis, {"d_e1": ONE, "d_e2": -ONE}, {})
    assert hor_support(both) == {"e1", "e2"}
    assert top_level(both) == 0
    intro = documents["intro_two_level"]
    row = intro.system().rref_rows[0]
    assert row.hor_support == frozenset()
    assert row.top == 0
    assert top_level(intro.basis.zero()) is None


# -- correlation ---------------------------------------------------------------


def test_is_correlated_basics():
    basis = adapted_basis_for(loop_graph(3))
    row = Cycle(basis, {"d_e1": ONE, "d_e2": GaussianRational(2)}, {})
    system = EquationSystem(basis, [row])
    assert is_correlated(system, {"e1", "e2"})
    assert not is_correlated(system, {"e1"})
    assert not is_correlated(system, {"e3"})


def test_is_correlated_three_node(documents):
    system = documents["three_node_pinch"].system()
    assert is_correlated(system, {"e1", "e2", "e3"})
    assert not is_correlated(system, {"e1", "e2"})


def test_correlated_witness_support_is_exact():
    r = rng(21)
    for trial in range(40):
        graph = loop_graph(r.randint(1, 4))
        system = random_system(graph, r, rank=r.randint(1, 4))
        horizontal = list(graph.horizontal_edges)
        for size in range(1, len(horizontal) + 1):
            from itertools import combinations

            for combo in combinations(horizontal, size):
                wanted = frozenset(combo)
                witness = correlated_witness(system, wanted)
                if is_correlated(system, wanted):
                    assert witness is not None
                    assert hor_support(witness) == wanted
                    assert system.span_contains(witness)
                else:
                    assert witness is None


def test_cross_classes():
    basis = adapted_basis_for(loop_graph(4))
    rows = [
        Cycle(basis, {"d_e1": ONE, "d_e2": ONE}, {}),
        Cycle(basis, {"d_e2": ONE, "d_e3": ONE}, {}),
    ]
    system = EquationSystem(basis, rows)
    assert cross_equivalence_classes(system) == (
        frozenset({"e1", "e2", "e3"}),
        frozenset({"e4"}),
    )
    disjoint = EquationSystem(
        basis,
        [
            Cycle(basis, {"d_e1": ONE, "d_e2": ONE}, {}),
            Cycle(basis, {"d_e3": ONE, "d_e4": ONE}, {}),
        ],
    )
    assert cross_equivalence_classes(disjoint) == (
        frozenset({"e1", "e2"}),
        frozenset({"e3", "e4"}),
    )


def test_primitive_sets_examples(documents):
    basis = adapted_basis_for(loop_graph(2))
    system = EquationSystem(basis, [Cycle(basis, {"d_e1": ONE, "d_e2": ONE}, {})])
    assert primitive_sets(system) == (frozenset({"e1", "e2"}),)
    three = documents["three_node_pinch"].system()
    assert primitive_sets(three) == (frozenset({"e1", "e2", "e3"}),)


def test_primitive_sets_limit():
    graph = loop_graph(5)
    system = EquationSystem(adapted_basis_for(graph), [])
    with pytest.raises(LimitError):
        primitive_sets(system, limit=4)


def test_primitive_sets_against_exhaustive_oracle():
    r = rng(22)
    for trial in range(30):
        graph = loop_graph(r.randint(2, 4))
        system = random_system(graph, r, rank=3)
        assert list(primitive_sets(system)) == exhaustive_minimal_correlated(system)


# -- residue relations ------------------------------------------------------------


def _system_with_vertical_pairings(kappas, pairings):
    graph = two_level_graph(kappas)
    elements = [BasisElement("n0_0", 0, "noncrossing", None)]
    table = {"n0_0": {f"v{k + 1}": p for k, p in enumerate(pairings)}}
    basis = AdaptedBasis(graph, elements, table)
    row = Cycle(basis, {"n0_0": ONE}, {})
    return graph, EquationSystem(basis, [row], nonvanishing=()), row


def test_residue_relation_weights():
    graph, system, row = _system_with_vertical_pairings((2, 3), (1, -1))
    form = residue_relation(system, row, -1)
    assert form == Cycle(system.basis, {}, {"v1": GaussianRational(3), "v2": GaussianRational(-2)})


def test_residue_relation_zero_and_errors():
    graph, system, row = _system_with_vertical_pairings((2, 3), (0, 0))
    assert residue_relation(system, row, -1).is_zero()
    with pytest.raises(SystemDataError):
        residue_relation(system, row, -2)
    outside = random_int_cycle(system.basis, rng(1))
    if not system.span_contains(outside):
        with pytest.raises(SystemDataError):
            residue_relation(system, outside, -1)


def test_residue_above_top_level_error():
    graph = EnhancedLevelGraph(
        [Vertex("a", 1, 0), Vertex("b", 1, -1), Vertex("c", 1, -2)],
        [
            Edge("v1", ("a", "b"), top="a", kappa=1),
            Edge("v2", ("b", "c"), top="b", kappa=1),
        ],
        [Marking("a", 0), Marking("b", 2), Marking("c", 2)],
    )
    assert validate(graph) == []
    elements = [BasisElement("n2_0", -2, "noncrossing", None)]
    basis = AdaptedBasis(graph, elements, {"n2_0": {"v2": 1}})
    system = EquationSystem(basis, [Cycle(basis, {"n2_0": ONE}, {})])
    row = system.rref_rows[0].cycle
    with pytest.raises(SystemDataError, match="above top level"):
        residue_relation(system, row, -1)
    assert residue_relation(system, row, -2) == Cycle(basis, {}, {"v2": ONE})


def test_monodromy_residue_reconciliation():
    r = rng(23)
    for trial in range(100):
        graph = random_graph(r, max_depth=3, max_horizontal=2)
        if not graph.passage_indices():
            continue
        system = random_system(graph, r, rank=r.randint(1, 3))
        for eq in system.rref_rows:
            top = eq.top
            if top is None:
                continue
            for i in graph.passage_indices():
                if i > top:
                    continue
                winding = {
                    e: passage_weight(graph, e, i) for e in graph.crossing_edges(i)
                }
                moved = picard_lefschetz(eq.cycle, winding)
                difference = moved - eq.cycle
                assert difference.coeffs == {}
                assert difference == residue_relation(system, eq.cycle, i)


# -- decomposition ------------------------------------------------------------------


def test_decompose_trivial_cases():
    basis = adapted_basis_for(loop_graph(2))
    row = Cycle(basis, {"d_e1": ONE, "d_e2": -ONE}, {})
    pure = Cycle(basis, {}, {"e1": ONE})
    system = EquationSystem(basis, [row, pure])
    no_support = decompose(system, pure)
    assert no_support.feasible and no_support.h_parts == () and no_support.g_part == pure
    primitive_row = decompose(system, row)
    assert primitive_row.feasible
    assert len(primitive_row.h_parts) == 1
    assert primitive_row.h_parts[0] == row
    assert primitive_row.g_part.is_zero()


def test_decompose_round_trips():
    r = rng(24)
    for trial in range(40):
        system = decomposable_fixture(r)
        coefficients = [GaussianRational(r.randint(-2, 2)) for _ in system.rref_rows]
        if not any(coefficients):
            coefficients[0] = ONE
        target = system.basis.zero()
        for c, eq in zip(coefficients, system.rref_rows):
            target = target + eq.cycle.scale(c)
        result = decompose(system, target)
        assert_decomposition_contract(system, target, result)


def test_decompose_infeasible_cross_level():
    graph = EnhancedLevelGraph(
        [Vertex("v0", 1, 0), Vertex("v1", 1, -1)],
        [
            Edge("h1", ("v0", "v0")),
            Edge("h3", ("v1", "v1")),
            Edge("c1", ("v0", "v1"), top="v0", kappa=1),
        ],
        [Marking("v0", 2), Marking("v1", 4)],
    )
    assert validate(graph) == []
    basis = adapted_basis_for(graph)
    row = Cycle(basis, {"d_h1": ONE, "d_h3": ONE}, {})
    system = EquationSystem(basis, [row])
    result = decompose(system, row)
    assert not result.feasible
    assert result.obstruction is not None


def test_decompose_random_inputs_never_violate_contract():
    r = rng(27)
    feasible_seen = 0
    for trial in range(50):
        graph = random_graph(r, max_depth=2, max_horizontal=4)
        system = random_system(graph, r, rank=r.randint(1, 3))
        if system.rank == 0:
            continue
        coefficients = [GaussianRational(r.randint(-2, 2)) for _ in system.rref_rows]
        target = system.basis.zero()
        for c, eq in zip(coefficients, system.rref_rows):
            target = target + eq.cycle.scale(c)
        result = decompose(system, target)
        if result.feasible:
            feasible_seen += 1
            assert_decomposition_contract(system, target, result)
        else:
            assert result.obstruction is not None
    assert feasible_seen > 0


def test_decompose_requires_span_membership():
    basis = adapted_basis_for(loop_graph(2))
    system = EquationSystem(basis, [Cycle(basis, {"d_e1": ONE, "d_e2": ONE}, {})])
    with pytest.raises(SystemDataError):
        decompose(system, Cycle(basis, {"d_e1": ONE}, {}))


# -- undegeneration bookkeeping -------------------------------------------------------


def test_lost_count_examples(documents):
    system = documents["parallel_cylinders"].system()
    nothing = Undegeneration.make([], [])
    assert classify_undegeneration(system, nothing).lost == 0
    full = Undegeneration.make([], ["e1", "e2"])
    # The cross-curve row is lost, the period row survives.
    assert classify_undegeneration(system, full).lost == 1
    single = Undegeneration.make([], ["e1"])
    assert classify_undegeneration(system, single).lost == 1


def test_classify_divisorial_branches(documents):
    system = documents["parallel_cylinders"].system()
    both = classify_undegeneration(system, Undegeneration.make([], ["e1", "e2"]))
    assert both.codim_in_total == system.rank + 1
    assert both.divisorial and both.branch == "horizontal"

    intro = documents["intro_two_level"].system()
    vertical = classify_undegeneration(intro, Undegeneration.make([-1], []))
    assert vertical.codim_in_total == intro.rank + 1
    assert vertical.divisorial and vertical.branch == "vertical"

    three = documents["three_node_pinch"].system()
    pairwise = classify_undegeneration(three, Undegeneration.make([], ["e1", "e2"]))
    assert pairwise.divisorial and pairwise.branch == "theorem-violating"
    all_three = classify_undegeneration(three, Undegeneration.make([], ["e1", "e2", "e3"]))
    assert all_three.codim_in_total == three.rank + 2
    assert not all_three.divisorial


def test_codim_formula_randomized():
    r = rng(25)
    for trial in range(100):
        graph = random_graph(r, max_depth=2, max_horizontal=3)
        system = random_system(graph, r, rank=r.randint(0, 3))
        undegs = list(__import__("strata.level_graph", fromlist=["enumerate_undegenerations"]).enumerate_undegenerations(graph))
        und = undegs[r.randrange(len(undegs))]
        got = classify_undegeneration(system, und)
        # Independent recomputation from raw pairings and carrier levels.
        lost = 0
        for eq in system.rref_rows:
            carrier_levels = [
                und.new_level(system.basis.element(n).level) for n in eq.cycle.coeffs
            ] + [und.new_level(graph.edge_level(e)) for e in eq.cycle.lam]
            if not carrier_levels:
                continue
            new_top = max(carrier_levels)
            crossing = False
            for eid in und.kept_horizontal:
                value = ZERO
                for name, c in eq.cycle.coeffs.items():
                    value = value + c * GaussianRational(system.basis.pairing(name, eid))
                if value and und.new_level(graph.edge_level(eid)) == new_top:
                    crossing = True
            lost += 1 if crossing else 0
        expected = len(und.kept_horizontal) + len(und.kept_passages) + system.rank - lost
        assert got.codim_in_total == expected
        assert got.divisorial == (expected == system.rank + 1)


# -- consistency engine -----------------------------------------------------------------


def test_consistency_empty_system():
    basis = adapted_basis_for(loop_graph(0))
    system = EquationSystem(basis, [])
    assert consistency_report(system).verdict == "consistent"


def test_consistency_intro_rule_out(documents):
    system = documents["intro_two_level"].system()
    certificate = consistency_report(system)
    assert certificate.verdict == "inconsistent"
    assert certificate.rule == "R2"
    assert certificate.forced == Cycle(system.basis, {}, {"e": ONE})


def test_consistency_single_crossing_is_r1():
    basis = adapted_basis_for(loop_graph(2))
    system = EquationSystem(basis, [Cycle(basis, {"d_e1": ONE, "n0_0": ONE}, {})])
    certificate = consistency_report(system)
    assert certificate.verdict == "inconsistent" and certificate.rule == "R1"
    assert certificate.forced == Cycle(basis, {}, {"e1": ONE})


def test_consistency_r3_cross_level_class():
    graph = EnhancedLevelGraph(
        [Vertex("v0", 1, 0), Vertex("v1", 1, -1)],
        [
            Edge("h1", ("v0", "v0")),
            Edge("h3", ("v1", "v1")),
            Edge("c1", ("v0", "v1"), top="v0", kappa=1),
        ],
        [Marking("v0", 2), Marking("v1", 4)],
    )
    basis = adapted_basis_for(graph)
    system = EquationSystem(basis, [Cycle(basis, {"d_h1": ONE, "d_h3": ONE}, {})])
    certificate = consistency_report(system)
    assert certificate.verdict == "inconsistent" and certificate.rule == "R3"


def test_consistency_r4_below_top():
    graph = EnhancedLevelGraph(
        [Vertex("v0", 1, 0), Vertex("v1", 1, -1)],
        [
            Edge("h3", ("v1", "v1")),
            Edge("h4", ("v1", "v1")),
            Edge("c1", ("v0", "v1"), top="v0", kappa=1),
        ],
        [Marking("v0", 0), Marking("v1", 6)],
    )
    assert validate(graph) == []
    basis = adapted_basis_for(graph)
    row = Cycle(basis, {"n0_0": ONE, "d_h3": ONE, "d_h4": -ONE}, {})
    system = EquationSystem(basis, [row])
    certificate = consistency_report(system)
    assert certificate.verdict == "inconsistent" and certificate.rule == "R4"


def test_consistency_r5_forced_vanishing():
    basis = adapted_basis_for(loop_graph(2))
    system = EquationSystem(
        basis,
        [
            Cycle(basis, {"d_e1": ONE, "d_e2": ONE}, {}),
            Cycle(basis, {}, {"e1": ONE, "e2": ONE}),
            Cycle(basis, {}, {"e1": ONE, "e2": -ONE}),
        ],
    )
    certificate = consistency_report(system)
    assert certificate.verdict == "inconsistent" and certificate.rule == "R5"


def test_consistency_obligations(documents):
    certificate = consistency_report(documents["three_node_pinch"].system())
    assert certificate.verdict == "consistent-with-obligations"
    assert certificate.obligations == (("e1", "e2"), ("e2", "e3"))
    filled = documents["minimal_stratum_parallel"].system()
    assert consistency_report(filled).verdict == "consistent"


def test_ratio_consistency_violations():
    ratios = ProportionalityData([("e1", "e2", Fraction(2)), ("e2", "e1", Fraction(3))])
    graph = loop_graph(2)
    problems = ratios.violations(graph)
    assert any(v.rule == "ratio-consistency" for v in problems)
    good = ProportionalityData([("e1", "e2", Fraction(2)), ("e2", "e1", Fraction(1, 2))])
    assert good.violations(graph) == []
    assert good.ratio("e1", "e2") == Fraction(2)
    assert good.ratio("e2", "e1") == Fraction(1, 2)


@pytest.mark.parametrize("pair", [(1, -2), (2, 0), (0, 0), (-1, -3)])
def test_a_ratio_pair_needs_a_positive_denominator(pair):
    with pytest.raises(SystemDataError) as raised:
        ProportionalityData([("e1", "e2", pair)])
    assert str(raised.value) == f"a ratio needs a positive denominator, got {pair[1]}"
    assert ProportionalityData([("e1", "e2", (-2, 4))]).declared == (("e1", "e2", -1, 2),)


ratio_values = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=7), st.sampled_from([Fraction(10**30, 7), Fraction(-3, 10**30)])
)


@st.composite
def ratio_entries(draw):
    """Declared ratios along a chain, closed into a cycle or not, plus random extra entries
    that may agree with the chain or contradict it; zero and self-ratios included."""
    edges = [f"e{k}" for k in draw(st.permutations(range(1, 7)))]
    n = draw(st.integers(1, 6))
    entries = [(edges[k], edges[k + 1], draw(ratio_values)) for k in range(n - 1)]
    if n > 2 and draw(st.booleans()):
        entries.append((edges[n - 1], edges[0], draw(ratio_values)))
    for _ in range(draw(st.integers(0, 3))):
        entries.append((draw(st.sampled_from(edges)), draw(st.sampled_from(edges)), draw(ratio_values)))
    return draw(st.permutations(entries))


@given(ratio_entries())
@settings(max_examples=300, deadline=None)
def test_ratio_closure_matches_the_fraction_oracle(entries):
    ratios = ProportionalityData(entries)
    to_root, conflicts = ratios.closure
    expected_to_root, expected_conflicts = oracle_equations.ratio_closure(ratios)
    assert conflicts == expected_conflicts
    assert {e: (root, Fraction(n, d)) for e, (root, n, d) in to_root.items()} == expected_to_root
    assert all(d > 0 and Fraction(n, d).numerator == n for _, n, d in to_root.values())
    for e in [f"e{k}" for k in range(8)]:
        for ep in [f"e{k}" for k in range(8)]:
            assert ratios.ratio(e, ep) == oracle_equations.ratio(ratios, e, ep)


def test_ratio_closure_reports_a_cycle_conflict():
    entries = [("e1", "e2", Fraction(2)), ("e2", "e3", Fraction(3)), ("e3", "e1", Fraction(1, 5))]
    ratios = ProportionalityData(entries)
    # From the root e1, e3 is reached through the closing entry first, so e2~e3 conflicts.
    assert ratios.closure[1] == [("e2", "e3", "chain gives 1/6, declared closure gives 1/5")]
    assert ratios.closure[1] == oracle_equations.ratio_closure(ratios)[1]


def test_span_invariance():
    r = rng(26)
    for trial in range(25):
        graph = loop_graph(r.randint(2, 4))
        system = random_system(graph, r, rank=3)
        rows = [eq.cycle for eq in system.rref_rows]
        if len(rows) < 2:
            continue
        mixed = [
            rows[0] + rows[1].scale(GaussianRational(r.randint(1, 3))),
            rows[1].scale(GaussianRational(r.choice([-2, -1, 1, 2]))),
        ] + rows[2:]
        other = EquationSystem(system.basis, mixed, real=system.real)
        assert cross_equivalence_classes(system) == cross_equivalence_classes(other)
        assert primitive_sets(system) == primitive_sets(other)
        assert (
            consistency_report(system).verdict == consistency_report(other).verdict
        )


def test_complex_coefficient_system():
    basis = adapted_basis_for(loop_graph(2))
    row = Cycle(basis, {"d_e1": GaussianRational(0, 1), "d_e2": ONE}, {})
    system = EquationSystem(basis, [row], real=False)
    assert system_violations(system) == []
    # Pivot normalization divides by i.
    reduced = system.rref_rows[0].cycle
    assert reduced.coeffs["d_e1"] == ONE
    assert reduced.coeffs["d_e2"] == GaussianRational(0, -1)
    assert hor_support(row) == {"e1", "e2"}
    assert consistency_report(system).verdict == "consistent-with-obligations"


def test_real_flag_rejects_complex_coefficients():
    basis = adapted_basis_for(loop_graph(1))
    row = Cycle(basis, {"n0_0": GaussianRational(0, 1)}, {})
    system = EquationSystem(basis, [row], real=True)
    assert any(v.rule == "real-coefficients" for v in system_violations(system))


def test_orientation_flip_invariance(documents):
    for name in ("intro_two_level", "three_node_pinch", "parallel_cylinders", "triple_node_cover"):
        system = documents[name].system()
        base = consistency_report(system)
        for eid in [e.id for e in system.graph.edges]:
            flipped = flip_orientation(system, eid)
            assert system_violations(flipped) == []
            other = consistency_report(flipped)
            assert other.verdict == base.verdict
            assert other.rule == base.rule
            assert other.obligations == base.obligations


# -- derived spans computed once ---------------------------------------------------


def _system_with_relations(r) -> EquationSystem:
    """Seeded random system that also carries declared relations and ratios."""
    graph = random_graph(r, max_depth=3, max_horizontal=3)
    plain = random_system(graph, r, rank=r.randint(1, 3))
    relations = [
        Cycle(plain.basis, {}, {e.id: r.randint(-2, 2) for e in graph.edges})
        for _ in range(r.randint(0, 2))
    ]
    horizontal = sorted(graph.horizontal_edges)
    entries = [
        (a, b, Fraction(r.choice([-3, -1, 1, 2]), r.randint(1, 3)))
        for a, b in zip(horizontal, horizontal[1:])
        if r.random() < 0.7
    ]
    return EquationSystem(
        plain.basis,
        plain.equations,
        real=True,
        relations=relations,
        ratios=ProportionalityData(entries),
    )


def test_residue_forms_match_residue_relation_on_random_systems():
    r = rng(4401)
    for _ in range(60):
        graph = random_graph(r, max_depth=3, max_horizontal=2)
        system = random_system(graph, r, rank=r.randint(1, 3))
        expected = []
        for j, eq in enumerate(system.rref_rows):
            for i in graph.passage_indices():
                if i <= eq.top:
                    form = residue_relation(system, eq.cycle, i)
                    if not form.is_zero():
                        expected.append((j, i, form))
        assert list(residue_forms(system)) == expected


def test_residue_forms_match_the_per_edge_weight_oracle(documents):
    systems = [doc.system() for _, doc in sorted(documents.items())]
    systems += [doc.system() for n in range(8, 15) for doc in dense_pool(n)]
    r = rng(4404)
    for depth in (1, 2, 3):
        for _ in range(25):
            graph = random_graph(r, max_depth=depth, max_horizontal=2)
            systems.append(random_system(graph, r, rank=r.randint(1, 4)))
    deep = 0
    for system in systems:
        assert residue_forms(system) == oracle_equations.residue_forms(system)
        deep += system.graph.depth == 3 and bool(residue_forms(system))
    assert deep >= 3


def test_extended_rows_is_the_rref_of_rows_relations_and_ratios():
    r = rng(4402)
    systems = [_system_with_relations(r) for _ in range(40)]
    systems += [aim_parallel_fixture(r, g)[0] for g in (2, 3, 4)]
    for system in systems:
        rows = [eq.cycle.to_vector() for eq in system.rref_rows]
        relations = [rel.to_vector() for rel in system.relations]
        relations += [form.to_vector() for form in ratio_forms(system)]
        assert system.extended_rows == linalg.rref(rows + relations)
        pure = [eq.cycle.to_vector() for eq in system.rref_rows if eq.cycle.is_lambda_only()]
        assert system.reduction_relations == linalg.rref(relations + pure)


def test_extended_rows_and_residue_forms_are_computed_once(monkeypatch):
    r = rng(4403)
    system = _system_with_relations(r)
    while not system.graph.passage_indices() or not system.ratios:
        system = _system_with_relations(r)
    system.rref_rows
    calls = [0]
    original_rref = linalg.rref

    def counting(rows):
        calls[0] += 1
        return original_rref(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    first = system.extended_rows
    assert calls[0] == 1
    for eq in system.rref_rows:
        assert system.extended_span_contains(eq.cycle)
    assert system.extended_rows is first
    assert calls[0] == 1

    built: list[tuple[int, int]] = []
    original = equations._residue_form

    def recording(system_, cycle, i):
        built.append((id(cycle), i))
        return original(system_, cycle, i)

    monkeypatch.setattr(equations, "_residue_form", recording)
    consistency_report(system)
    after_report = calls[0]
    forms = residue_forms(system)
    assert residue_forms(system) is forms
    assert calls[0] == after_report
    assert built and len(built) == len(set(built))


def test_r2_trace_counts_the_residue_forms():
    r = rng(4404)
    seen = 0
    for _ in range(60):
        graph = random_graph(r, max_depth=3, max_horizontal=2)
        system = random_system(graph, r, rank=r.randint(1, 3))
        for assume in (False, True):
            trace = consistency_report(system, assume_theorems=assume).trace
            line = next((t for t in trace if t.startswith("R2: ") and "residue forms" in t), None)
            if line is None:
                continue
            seen += 1
            assert line.startswith(f"R2: {len(residue_forms(system))} residue forms ")
    assert seen


def test_building_a_system_with_relations_runs_no_rref(monkeypatch, fixture_dir):
    from strata.document import load_document

    doc = load_document(str(fixture_dir / "minimal_stratum_parallel.json"))
    calls = [0]
    original_rref = linalg.rref

    def counting(rows):
        calls[0] += 1
        return original_rref(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    system = doc.system()
    assert system.relations and calls[0] == 0


def test_system_relations_are_the_parsed_cycles(documents):
    doc = documents["minimal_stratum_parallel"]
    relations = doc.system().relations
    assert type(relations) is tuple
    assert relations == tuple(
        [Cycle(doc.basis, {f"a{k}": ONE}, {f"e{k}": -ONE}) for k in (1, 2, 3)]
    )


def test_cross_equivalence_classes_are_computed_once():
    r = rng(4406)
    for _ in range(10):
        system = _system_with_relations(r)
        classes = cross_equivalence_classes(system)
        consistency_report(system)
        assert cross_equivalence_classes(system) is classes
        assert system.cross_equivalence_classes is classes


def test_assume_theorems_fold_matches_the_from_scratch_oracle(monkeypatch):
    # No fixture's output changes under --assume-theorems, so the digests
    # cannot guard this fold; seeded random systems with passages do.
    folds = [0]
    original = oracle_homology.RelationFold.with_added

    def counting(self, cycles):
        folds[0] += 1
        return original(self, cycles)

    monkeypatch.setattr(oracle_homology.RelationFold, "with_added", counting)
    r = rng(4405)
    verdicts = set()
    cases = 0
    while cases < 80:
        system = _system_with_relations(r)
        if not system.graph.passage_indices():
            continue
        cases += 1
        for assume in (False, True):
            got = consistency_report(system, assume_theorems=assume)
            assert got == oracle_homology.refolding_report(system, assume_theorems=assume)
            verdicts.add((got.verdict, got.rule))
    assert folds[0] >= 20 and len(verdicts) >= 3


# -- cached row carriers and the undegeneration table -------------------------------------


def _assert_matches_pair_oracle(system, undeg):
    got = classify_undegeneration(system, undeg)
    lost = oracle_equations.lost_count(system, undeg)
    codim = len(undeg.kept_horizontal) + len(undeg.kept_passages) + system.rank - lost
    assert (got.lost, got.codim_in_total, got.divisorial) == (lost, codim, codim == system.rank + 1)
    assert got == oracle_equations.classify_undegeneration(system, undeg)
    return got


def _random_systems(r, count):
    for _ in range(count):
        graph = random_graph(r, max_depth=3, max_horizontal=3)
        yield random_system(
            graph, r, rank=r.randint(0, 4), real=r.random() < 0.5, lam=r.random() < 0.5
        )


def test_classify_undegeneration_matches_pair_oracle_on_fixtures(documents):
    checked = 0
    for doc in documents.values():
        system = doc.system()
        for undeg in enumerate_undegenerations(system.graph):
            _assert_matches_pair_oracle(system, undeg)
            checked += 1
    assert checked == sum(
        2 ** (doc.graph.depth + len(doc.graph.horizontal_edges)) for doc in documents.values()
    )


def test_classify_undegeneration_matches_pair_oracle_on_random_systems():
    deep_caveats = 0
    for system in _random_systems(rng(4501), 300):
        for undeg in enumerate_undegenerations(system.graph):
            got = _assert_matches_pair_oracle(system, undeg)
            deep_caveats += system.graph.depth >= 2 and got.ordering_caveat
    assert deep_caveats


def test_classify_undegeneration_matches_pair_oracle_on_unordered_bases():
    # The API accepts bases that validation would refuse; a basis listed
    # bottom level first breaks the order under every remap that keeps a passage.
    r = rng(4506)
    inverted = 0
    for _ in range(60):
        graph = random_graph(r, max_depth=2, max_horizontal=2)
        ordered = adapted_basis_for(graph, r)
        basis = AdaptedBasis(graph, ordered.elements[::-1], ordered._pairings)
        rows = [random_int_cycle(basis, r) for _ in range(r.randint(0, 3))]
        system = EquationSystem(basis, rows)
        for undeg in enumerate_undegenerations(graph):
            got = _assert_matches_pair_oracle(system, undeg)
            inverted += bool(undeg.kept_passages) and got.ordering_caveat
    assert inverted


def test_rows_cache_pairings_top_and_support(documents):
    systems = [doc.system() for doc in documents.values()] + list(_random_systems(rng(4502), 60))
    for system in systems:
        horizontal = system.graph.horizontal_edges
        for eq in system.rref_rows + tuple([Equation(c) for c in system.equations]):
            assert eq.hor_pairings == tuple(pair(eq.cycle, e) for e in horizontal)
            assert eq.hor_support == frozenset(e for e in horizontal if pair(eq.cycle, e))
            assert eq.top == oracle_equations.top_level(eq.cycle) == top_level(eq.cycle)


def test_validate_and_analyze_build_no_equation_for_an_input_equation(
    monkeypatch, fixture_dir, tmp_path, capsys
):
    from strata import cli

    built, systems = [], []
    build_equation, build_system = equations.Equation.__init__, equations.EquationSystem.__init__

    def equation(self, cycle):
        built.append(cycle)
        build_equation(self, cycle)

    def system(self, *args, **kwargs):
        systems.append(self)
        build_system(self, *args, **kwargs)

    monkeypatch.setattr(equations.Equation, "__init__", equation)
    monkeypatch.setattr(equations.EquationSystem, "__init__", system)
    paths = [str(p) for p in sorted(fixture_dir.glob("*.json"))]
    for path in paths + [write_cylinders_document(tmp_path / "g9.json", 9)]:
        for command in ("validate", "analyze"):
            built.clear()
            systems.clear()
            cli.main([command, path])
            inputs = [c for s in systems for c in s.equations]
            assert systems and all(type(c) is Cycle for c in inputs)
            # Identity, not equality: an rref row may equal an input equation.
            assert not {id(c) for c in built} & {id(c) for c in inputs}
            if command == "analyze":
                assert len(built) == sum(s.rank for s in systems)
    capsys.readouterr()


def _count_pair_calls(monkeypatch):
    """Route ``pair`` through a counter; ``counts['on']`` switches counting."""
    counts = {"on": False, "calls": 0, "total": 0}
    original = homology.pair

    def counting(cycle, eid):
        counts["total"] += 1
        counts["calls"] += counts["on"]
        return original(cycle, eid)

    monkeypatch.setattr(homology, "pair", counting)
    monkeypatch.setattr(equations, "pair", counting)
    return counts


def test_lost_count_pairs_nothing_during_analyze(monkeypatch, fixture_dir, capsys):
    from strata import cli
    from strata.document import load_document

    counts = _count_pair_calls(monkeypatch)
    original_table, original_classify = equations.passage_table, cli.classify_undegeneration
    tables, rows = [], []

    def table(system, undeg):
        tables.append(original_table(system, undeg))
        return tables[-1]

    def classify(system, undeg):
        counts["on"] = True
        try:
            rows.append(original_classify(system, undeg))
        finally:
            counts["on"] = False
        return rows[-1]

    monkeypatch.setattr(equations, "passage_table", table)
    monkeypatch.setattr(cli, "classify_undegeneration", classify)
    names = ("parallel_cylinders", "three_node_pinch", "stacked_cylinders", "triple_node_cover")
    for name in names:
        assert cli.main(["analyze", str(fixture_dir / f"{name}.json")]) == 0
    capsys.readouterr()
    assert len(rows) >= 4 * 4 and any(row.lost for row in rows)
    assert counts["total"] > 0 and counts["calls"] == 0
    # One table per kept-passage subset, read by every row that keeps it.
    subsets = sum(2 ** load_document(str(fixture_dir / f"{n}.json")).graph.depth for n in names)
    assert len(tables) == len(rows) and len({id(t) for t in tables}) == subsets


def test_support_queries_read_cached_pairings(monkeypatch, documents):
    systems = [documents["three_node_pinch"].system(), documents["parallel_cylinders"].system()]
    systems += [system for system in _random_systems(rng(4503), 20) if system.rank]
    for system in systems:
        system.rref_rows
    counts = _count_pair_calls(monkeypatch)
    counts["on"] = True
    for system in systems:
        for eid in system.graph.horizontal_edges:
            equations._support_subspace(system, frozenset({eid}))
            equations._support_subspace(system, frozenset({eid}), max_level=-1)
            is_correlated(system, {eid})
        is_correlated(system, system.graph.horizontal_edges)
        for eq in system.rref_rows:
            if eq.top is not None:
                equations._match_top_restriction(system, eq.cycle, eq.top)
    assert counts["calls"] == 0


def test_correlated_witness_is_none_exactly_when_not_correlated(documents):
    from itertools import combinations

    systems = [documents["three_node_pinch"].system(), documents["triple_node_cover"].system()]
    systems += list(_random_systems(rng(4504), 40))
    for system in systems:
        horizontal = system.graph.horizontal_edges
        for size in range(1, len(horizontal) + 1):
            for combo in combinations(horizontal, size):
                witness = correlated_witness(system, combo)
                assert (witness is not None) == is_correlated(system, combo)
                if witness is not None:
                    assert hor_support(witness) == frozenset(combo)


def test_subset_searches_refuse_past_the_limit():
    graph = loop_graph(13)
    basis = adapted_basis_for(graph)
    row = Cycle(basis, {f"d_e{k}": ONE for k in range(1, 14)}, {})
    system = EquationSystem(basis, [row])
    message = "13 horizontal edges exceed the search limit 12; use cross_equivalence_classes"
    with pytest.raises(LimitError, match=message):
        decompose(system, row)
    with pytest.raises(LimitError, match=message):
        primitive_sets(system)

    small = EquationSystem(adapted_basis_for(loop_graph(5)), [])
    with pytest.raises(LimitError, match="5 horizontal edges exceed the search limit 4;"):
        primitive_sets(small, limit=4)
    assert primitive_sets(small, limit=5) == ()


def test_top_match_agrees_at_its_level_and_vanishes_above():
    checked = 0
    for system in _random_systems(rng(4505), 80):
        levels = system.basis.column_levels
        for eq in system.rref_rows:
            for level in range(eq.top, -system.graph.depth - 1, -1):
                match = equations._match_top_restriction(system, eq.cycle, level)
                if match is None:
                    continue
                checked += 1
                assert system.span_contains(match) and not hor_support(match)
                for x, y, lvl in zip(match.to_vector(), eq.cycle.to_vector(), levels):
                    assert x == (y if lvl == level else x if lvl < level else ZERO)
    assert checked


def test_row_vectors_are_the_rref_rows_tuples(documents):
    for doc in documents.values():
        system = doc.system()
        rows = system.rref_rows
        assert len(system._row_vectors) == len(rows)
        assert all(v is eq.cycle.vector for v, eq in zip(system._row_vectors, rows))
        assert all(type(v) is tuple for v in system._row_vectors)


# -- correlation in the dual ---------------------------------------------------------------


def _correlation_systems(documents):
    systems = [doc.system() for doc in documents.values()]
    systems += list(_random_systems(rng(4601), 80))
    r = rng(4602)
    systems += [real_parallel_fixture(r)[0] for _ in range(20)]
    systems += [aim_parallel_fixture(r, genus)[0] for genus in (2, 3, 4, 5)]
    systems += [cylinders_system(g, index) for g in range(2, 9) for index in (0, 1)]
    return systems


def test_is_correlated_matches_the_primal_oracle_on_every_subset(documents):
    from itertools import combinations

    checked = 0
    for system in _correlation_systems(documents):
        horizontal = system.graph.horizontal_edges
        for size in range(len(horizontal) + 1):
            for combo in combinations(horizontal, size):
                assert is_correlated(system, combo) == oracle_equations.is_correlated(system, combo)
                checked += 1
    assert checked > 1600


def test_correlation_keys_decide_every_pair(documents):
    from itertools import combinations

    for system in _correlation_systems(documents):
        keys = system.annihilator[1]
        assert sorted(keys) == sorted(system.graph.horizontal_edges)
        for a, b in combinations(system.graph.horizontal_edges, 2):
            assert (keys[a] == keys[b]) == oracle_equations.is_correlated(system, {a, b})


def test_annihilator_cuts_out_the_pairing_image(documents):
    for system in _correlation_systems(documents)[:40]:
        columns, _ = system.annihilator
        horizontal = system.graph.horizontal_edges
        width = len(next(iter(columns.values()), ()))
        assert width == len(horizontal) - linalg.rank([eq.hor_pairings for eq in system.rref_rows])
        for eq in system.rref_rows:
            for k in range(width):
                total = sum((columns[e][k] * x for e, x in zip(horizontal, eq.hor_pairings)), ZERO)
                assert not total


def test_is_correlated_refuses_non_horizontal_edges(documents):
    system = documents["intro_two_level"].system()
    with pytest.raises(SystemDataError, match="not horizontal edges"):
        is_correlated(system, {"e"})
    with pytest.raises(SystemDataError, match="not a horizontal edge"):
        classify_undegeneration(system, Undegeneration.make([], ["e"]))


def test_classify_undegeneration_matches_the_primal_oracle_on_bench_cylinders():
    for g in range(2, 7):
        system = cylinders_system(g)
        rows = [_assert_matches_pair_oracle(system, u) for u in enumerate_undegenerations(system.graph)]
        assert sum(row.branch == "horizontal" for row in rows) == 1
        assert any(row.ordering_caveat for row in rows)


def test_undegeneration_table_runs_one_rref_however_many_rows(monkeypatch):
    system = cylinders_system(9)
    system.rref_rows
    undegs = enumerate_undegenerations(system.graph)
    assert len(undegs) == 2**9
    calls = []
    original = linalg.rref

    def counting(rows):
        calls.append(1)
        return original(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    rows = [classify_undegeneration(system, u) for u in undegs]
    assert len(calls) <= 1
    assert [row.branch for row in rows if row.divisorial] == ["horizontal"]


# -- lead keys, against the per-site scalings they replaced ----------------------


def test_lead_keys_match_the_monic_oracles(documents):
    assert equations._lead_key(()) == (None, ())
    assert equations._lead_key([ZERO, ZERO]) == (None, (ZERO, ZERO))
    r = rng(7101)
    systems = _correlation_systems(documents) + [refusable_system(r) for _ in range(300)]
    rules, zero_columns, zero_residuals = set(), 0, 0
    for system in systems:
        columns, keys = system.annihilator
        assert keys == oracle_equations.annihilator_keys(columns)
        zero_columns += sum([not any(column) for column in columns.values()])
        relations = oracle_homology.relation_fold(system)
        for eid, (lead, key) in system.residuals.items():
            residual = relations.reduce(Cycle(system.basis, {}, {eid: ONE}))
            assert key == oracle_equations.monic(residual).vector
            assert lead == next((x for x in residual.vector if x), None)
            zero_residuals += lead is None
        for assume in (False, True):
            certificate = consistency_report(system, assume_theorems=assume)
            rules.add(certificate.rule)
            if certificate.rule in ("R2", "R5"):
                assert (certificate.rule, certificate.forced) == oracle_equations.forced(system, assume)
    assert rules == {None, "R1", "R2", "R3", "R4", "R5"}
    assert zero_columns and zero_residuals, (zero_columns, zero_residuals)


# -- node constructions against the routines they replaced ------------------------------


def _construction_systems(documents):
    """Every fixture, every benchmark pool system and 240 seeded random systems."""
    systems = [doc.system() for doc in documents.values()] + list(bench_pool_systems())
    systems += list(_random_systems(rng(4901), 200))
    r = rng(4902)
    systems += [decomposable_fixture(r) for _ in range(20)] + [refusable_system(r) for _ in range(20)]
    return systems


def test_cross_equivalence_classes_match_the_union_find_oracle(documents):
    systems = _construction_systems(documents)
    assert len(systems) >= 7 + 144 + 200
    for system in systems:
        assert cross_equivalence_classes(system) == oracle_equations.cross_equivalence_classes(system)


def test_correlated_witness_matches_the_bookkeeping_oracle(documents):
    from itertools import combinations

    checked = 0
    for system in _construction_systems(documents):
        graph = system.graph
        for size in range(1, 5):
            for combo in combinations(graph.horizontal_edges, size):
                top = max(graph.edge_level(e) for e in combo)
                for max_level in (None, top):
                    witness = correlated_witness(system, combo, max_level)
                    assert witness == oracle_equations.correlated_witness(system, combo, max_level)
                    checked += 1
    assert checked > 5000


def _decompose_inputs(system, r):
    """The rref rows and three random span elements."""
    rows = [eq.cycle for eq in system.rref_rows]
    for _ in range(3 if rows else 0):
        coefficients = [GaussianRational(r.randint(-2, 2)) for _ in rows]
        rows.append(Cycle.from_vector(system.basis, linalg.combine(coefficients, system._row_vectors)))
    return rows


def test_decompose_matches_the_old_decompose(documents):
    r = rng(4903)
    compared = 0
    for system in _construction_systems(documents):
        for cycle in _decompose_inputs(system, r):
            try:
                expected = oracle_equations.decompose(system, cycle)
            except LimitError:
                continue
            assert decompose(system, cycle) == expected
            compared += 1
    assert compared > 1000


def test_decompose_counts_its_limit_on_the_top_level_edges():
    """Lower-level edges no longer count: a row crossing 11 top-level and 2
    lower edges is decomposed, where the old search refused its 13."""
    graph = EnhancedLevelGraph(
        [Vertex("a", 0, 0), Vertex("b", 0, -1)],
        [Edge(f"e{k:02d}", ("a", "a")) for k in range(1, 12)]
        + [Edge("f1", ("b", "b")), Edge("f2", ("b", "b")), Edge("v", ("a", "b"), top="a", kappa=1)],
        [Marking("a", 20), Marking("b", 4)],
    )
    assert validate(graph) == []
    basis = adapted_basis_for(graph)
    top = Cycle(basis, {f"d_e{k:02d}": ONE for k in range(1, 12)}, {})
    lower = Cycle(basis, {"d_f1": ONE, "d_f2": ONE}, {})
    system = EquationSystem(basis, [top, lower])
    cycle = top + lower
    assert len(hor_support(cycle)) == 13
    with pytest.raises(LimitError, match="13 horizontal edges exceed the search limit 12"):
        oracle_equations.decompose(system, cycle)
    result = decompose(system, cycle)
    assert_decomposition_contract(system, cycle, result)
    assert [hor_support(h) for h in result.h_parts] == [hor_support(top), hor_support(lower)]
    assert result.g_part.is_zero()
