import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_homology as oracle
from strata import linalg
from strata.document import cycle_to_json
from strata.errors import BasisError
from strata.gaussian import ZERO, ONE, GaussianRational
from strata.homology import (
    AdaptedBasis,
    BasisElement,
    Cycle,
    NONCROSSING,
    pair,
    picard_lefschetz,
    validate_adapted,
)
from strata.level_graph import Edge, EnhancedLevelGraph, Vertex
from support import adapted_basis_for, loop_graph, random_graph, random_int_cycle, rng, two_level_graph


def test_noncrossing_basis_valid():
    graph = two_level_graph((1,))
    basis = AdaptedBasis(
        graph,
        [
            BasisElement("g1", 0, "noncrossing", None),
            BasisElement("g2", -1, "noncrossing", None),
        ],
        {"g1": {"v1": 1}, "g2": {}},
    )
    assert validate_adapted(basis, graph) == []


def _mutated_basis(basis: AdaptedBasis, r: random.Random) -> AdaptedBasis:
    """The basis with a few elements changed: pairings added, changed or dropped on any
    edge (unknown ones too), kinds and paired edges swapped, names duplicated."""
    graph = basis.graph
    edges = [e.id for e in graph.edges] + ["nowhere"]
    elements = list(basis.elements)
    pairings = {el.name: dict(basis._pairings.get(el.name, {})) for el in elements}
    for _ in range(r.randint(0, 4)):
        k = r.randrange(len(elements))
        el, table = elements[k], pairings[elements[k].name]
        change = r.choice(["pairing", "pairing", "drop", "kind", "edge", "name"])
        if change == "pairing":
            table[r.choice(edges)] = r.choice([-1, 0, 1, 2])
        elif change == "drop" and table:
            del table[r.choice(sorted(table))]
        elif change == "kind":
            elements[k] = el._replace(kind=r.choice(["crossing", "noncrossing", "other"]))
        elif change == "edge":
            elements[k] = el._replace(edge=r.choice([None, *edges]))
        elif change == "name":
            elements[k] = el._replace(name=r.choice([e.name for e in elements]))
    return AdaptedBasis(graph, elements, pairings)


def test_validate_adapted_matches_the_per_edge_oracle():
    r = rng(91)
    found = set()
    for _ in range(300):
        graph = random_graph(r)
        basis = _mutated_basis(adapted_basis_for(graph, r), r)
        problems = validate_adapted(basis, graph)
        assert problems == oracle.validate_adapted(basis, graph)
        found.update(v.rule for v in problems)
    assert {"crossing-pairings", "noncrossing-pairings", "paired-edge", "pairings", "kind"} <= found


def test_is_real_reads_every_entry():
    r = rng(92)
    basis = adapted_basis_for(loop_graph(3))
    for _ in range(100):
        vector = [r.choice([ZERO, ONE, GaussianRational(Fraction(-3, 2)), GaussianRational(0, 1)]) for _ in basis.columns()]
        cycle = Cycle.from_vector(basis, vector)
        assert cycle.is_real() == all(c.is_real() for c in vector)


def test_crossing_two_edges_violation():
    graph = loop_graph(2)
    basis = AdaptedBasis(
        graph,
        [BasisElement("d1", 0, "crossing", "e1")],
        {"d1": {"e1": 1, "e2": 1}},
    )
    problems = validate_adapted(basis, graph)
    assert any(v.rule == "crossing-pairings" for v in problems)


def test_three_node_fixture_basis(documents):
    doc = documents["three_node_pinch"]
    assert validate_adapted(doc.basis, doc.graph) == []
    assert len(doc.basis.elements) == 4


def test_ordering_violation():
    graph = loop_graph(1)
    basis = AdaptedBasis(
        graph,
        [
            BasisElement("a1", 0, "noncrossing", None),
            BasisElement("d1", 0, "crossing", "e1"),
        ],
        {"a1": {}, "d1": {"e1": 1}},
    )
    assert any(v.rule == "ordering" for v in validate_adapted(basis, graph))


def test_duplicate_paired_edge():
    graph = loop_graph(1)
    basis = AdaptedBasis(
        graph,
        [
            BasisElement("d1", 0, "crossing", "e1"),
            BasisElement("d2", 0, "crossing", "e1"),
        ],
        {"d1": {"e1": 1}, "d2": {"e1": 1}},
    )
    assert any("already paired" in v.detail for v in validate_adapted(basis, graph))


def test_name_edge_collision():
    graph = loop_graph(1)
    basis = AdaptedBasis(graph, [BasisElement("e1", 0, "noncrossing", None)], {"e1": {}})
    assert any(v.rule == "namespace" for v in validate_adapted(basis, graph))


def test_reordering_respecting_rule_stays_valid():
    graph = loop_graph(2)
    names = ["d1", "d2"]
    elements = [BasisElement(n, 0, "crossing", e) for n, e in zip(names, ("e1", "e2"))]
    elements += [BasisElement("x1", 0, "noncrossing", None)]
    pairings = {"d1": {"e1": 1}, "d2": {"e2": 1}, "x1": {}}
    basis = AdaptedBasis(graph, elements, pairings)
    assert validate_adapted(basis, graph) == []
    renamed = AdaptedBasis(
        graph,
        [
            BasisElement("c_a", 0, "crossing", "e1"),
            BasisElement("c_b", 0, "crossing", "e2"),
            BasisElement("z9", 0, "noncrossing", None),
        ],
        {"c_a": {"e1": 1}, "c_b": {"e2": 1}, "z9": {}},
    )
    assert validate_adapted(renamed, graph) == []


def test_pair_bilinearity():
    graph = loop_graph(2)
    basis = adapted_basis_for(graph)
    c = Cycle(basis, {"d_e1": GaussianRational(2), "d_e2": GaussianRational(-3)}, {})
    assert pair(c, "e1") == GaussianRational(2)
    assert pair(c, "e2") == GaussianRational(-3)
    pure = Cycle(basis, {}, {"e1": ONE, "e2": GaussianRational(5)})
    assert pair(pure, "e1") == ZERO and pair(pure, "e2") == ZERO


def test_pair_unknown_edge():
    graph = loop_graph(1)
    basis = adapted_basis_for(graph)
    with pytest.raises(BasisError):
        pair(basis.zero(), "nope")


def test_picard_lefschetz_formula():
    graph = loop_graph(2)
    basis = adapted_basis_for(graph)
    d1 = Cycle(basis, {"d_e1": ONE}, {})
    moved = picard_lefschetz(d1, {"e1": 1})
    assert moved == d1 + Cycle(basis, {}, {"e1": ONE})
    untouched = picard_lefschetz(Cycle(basis, {"n0_0": ONE}, {}), {"e1": 3, "e2": 5})
    assert untouched == Cycle(basis, {"n0_0": ONE}, {})
    both = Cycle(basis, {"d_e1": ONE, "d_e2": ONE}, {})
    moved = picard_lefschetz(both, {"e1": 2, "e2": 5})
    assert moved == both + Cycle(basis, {}, {"e1": GaussianRational(2), "e2": GaussianRational(5)})


def test_picard_lefschetz_properties():
    r = rng(11)
    graph = two_level_graph((2, 3))
    basis = adapted_basis_for(graph, r)
    for _ in range(40):
        c = random_int_cycle(basis, r)
        d = random_int_cycle(basis, r)
        n1 = {e.id: r.randint(0, 3) for e in graph.edges}
        n2 = {e.id: r.randint(0, 3) for e in graph.edges}
        total = {k: n1[k] + n2[k] for k in n1}
        # Additivity in the winding numbers: iterates do not compound.
        assert picard_lefschetz(picard_lefschetz(c, n1), n2) == picard_lefschetz(c, total)
        # Linearity in the cycle.
        assert picard_lefschetz(c + d, n1) == picard_lefschetz(c, n1) + picard_lefschetz(d, n1)
        # Pairings against vanishing cycles are preserved.
        for e in graph.edges:
            assert pair(picard_lefschetz(c, n1), e.id) == pair(c, e.id)


def test_picard_lefschetz_rejects_negative():
    graph = loop_graph(1)
    basis = adapted_basis_for(graph)
    with pytest.raises(BasisError):
        picard_lefschetz(basis.zero(), {"e1": -1})


def test_relation_set_reduction():
    graph = loop_graph(3)
    basis = adapted_basis_for(graph)
    span = linalg.rref(
        [Cycle(basis, {}, {"e1": ONE, "e2": -ONE}).vector, Cycle(basis, {}, {"e2": ONE, "e3": -ONE}).vector]
    )
    target = Cycle(basis, {}, {"e1": ONE, "e3": -ONE})
    assert linalg.in_span(target.vector, *span)
    residual = linalg.reduce_vector(Cycle(basis, {}, {"e1": ONE}).vector, *span)
    assert residual == Cycle(basis, {}, {"e3": ONE}).to_vector()


def test_cycle_render_forms():
    graph = loop_graph(2)
    basis = adapted_basis_for(graph)
    assert basis.zero().render() == "0"
    plain = Cycle(basis, {"d_e1": ONE, "d_e2": GaussianRational(-2)}, {"e1": GaussianRational(3)})
    assert plain.render() == "d_e1 - 2*d_e2 + 3*lambda[e1]"
    complex_lead = Cycle(basis, {"d_e1": GaussianRational(1, 1)}, {})
    assert complex_lead.render() == "(1+i)*d_e1"
    negative_lead = Cycle(basis, {"d_e1": -ONE}, {})
    assert negative_lead.render() == "-d_e1"


def test_cycle_arithmetic_and_vector_roundtrip():
    r = rng(12)
    graph = loop_graph(2)
    basis = adapted_basis_for(graph, r)
    for _ in range(20):
        c = random_int_cycle(basis, r)
        assert Cycle.from_vector(basis, c.to_vector()) == c
        assert (c - c).is_zero()
        assert c.scale(2) == c + c


def test_basis_layout_computed_once():
    graph = loop_graph(2)
    basis = adapted_basis_for(graph, noncrossing_per_level=1)
    assert basis.columns() is basis.columns()
    assert basis.names is basis.names
    assert basis.names == tuple(el.name for el in basis.elements)
    assert basis.columns() == tuple(
        [("b", el.name) for el in basis.elements]
        + [("l", eid) for eid in sorted(e.id for e in graph.edges)]
    )


def test_column_levels_match_element_and_edge_levels(documents):
    r = rng(4601)
    bases = [doc.basis for doc in documents.values()]
    bases += [adapted_basis_for(random_graph(r, max_depth=3, max_horizontal=3), r) for _ in range(30)]
    for basis in bases:
        graph = basis.graph
        expected = tuple(
            basis.element(key).level if kind == "b" else graph.edge_level(key)
            for kind, key in basis.columns()
        )
        assert basis.column_levels == expected
        assert basis.column_levels is basis.column_levels


def test_column_levels_wait_for_first_use():
    """Graphs are built before validation; an unknown endpoint only raises on use."""
    graph = EnhancedLevelGraph([Vertex("w", 0, 0)], [Edge("e1", ("w", "nowhere"))], [])
    basis = AdaptedBasis(graph, [BasisElement("a", 0, "noncrossing", None)], {})
    assert basis.columns() == (("b", "a"), ("l", "e1"))
    with pytest.raises(KeyError):
        basis.column_levels


# -- the vector cycle against the dict-based oracle ------------------------------------

values = st.one_of(
    st.just(ZERO),
    st.builds(
        lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
        st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
    ),
)


def _random_basis(seed: int) -> AdaptedBasis:
    r = random.Random(seed)
    graph = random_graph(r, max_depth=2, max_horizontal=3)
    return adapted_basis_for(graph, r, noncrossing_per_level=r.randint(0, 2))


def _draw_cycle(data, basis: AdaptedBasis) -> tuple[Cycle, oracle.Cycle]:
    """The same random cycle in both representations, from dicts in a random order."""
    coeffs, lam = {}, {}
    for kind, key in data.draw(st.permutations(basis.columns())):
        if data.draw(st.booleans()):
            (coeffs if kind == "b" else lam)[key] = data.draw(values)
    return Cycle(basis, coeffs, lam), oracle.Cycle(basis, coeffs, lam)


def _assert_agrees(new: Cycle, old: oracle.Cycle) -> None:
    basis = new.basis
    assert new.vector == tuple(old.to_vector())
    assert new.to_vector() == old.to_vector()
    assert new.coeffs == old.coeffs and new.lam == old.lam
    assert (new.is_zero(), new.is_lambda_only(), new.is_real()) == (
        old.is_zero(), old.is_lambda_only(), old.is_real()
    )
    for e in basis.graph.edges:
        assert pair(new, e.id) == oracle.pair(old, e.id)
    assert new.render() == old.render()
    assert cycle_to_json(new) == cycle_to_json(old)
    assert Cycle.from_vector(basis, old.to_vector()) == new


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_cycles_match_the_dict_oracle(seed, data):
    basis = _random_basis(seed)
    (a, oa), (b, ob) = _draw_cycle(data, basis), _draw_cycle(data, basis)
    c = data.draw(values)
    pairs = [(a, oa), (b, ob), (a + b, oa + ob), (a - b, oa - ob), (a - a, oa - oa)]
    pairs += [(a.scale(c), oa.scale(c)), (a.scale(2), oa.scale(2)), (-a, -oa)]
    for new, old in pairs:
        _assert_agrees(new, old)
    assert (a == b) == (oa == ob)
    same, old_same = Cycle(basis, dict(a.coeffs), dict(a.lam)), oracle.Cycle(basis, oa.coeffs, oa.lam)
    assert (a == same) and (oa == old_same)
    twin = _random_basis(seed)  # same layout, another object
    assert (a == Cycle.from_vector(twin, a.vector)) == (oa == oracle.Cycle.from_vector(twin, oa.to_vector()))
    winding = {e.id: data.draw(st.integers(0, 3)) for e in basis.graph.edges if data.draw(st.booleans())}
    _assert_agrees(picard_lefschetz(a, winding), oracle.picard_lefschetz(oa, winding))


def _outcome(fn, *args):
    try:
        fn(*args)
    except BasisError as exc:
        return str(exc)
    return None


def test_cycle_errors_match_the_dict_oracle():
    basis = adapted_basis_for(loop_graph(2), rng(7))
    twin = adapted_basis_for(loop_graph(2), rng(7))
    for coeffs, lam in (({"nope": ONE}, {}), ({"nope": 0}, {}), ({}, {"nope": ONE}), ({"x": 1}, {"y": 1})):
        message = _outcome(Cycle, basis, coeffs, lam)
        assert message is not None and message == _outcome(oracle.Cycle, basis, coeffs, lam)
    a, oa = Cycle(basis, {"d_e1": ONE}), oracle.Cycle(basis, {"d_e1": ONE})
    b, ob = Cycle(twin, {"d_e1": ONE}), oracle.Cycle(twin, {"d_e1": ONE})
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        assert _outcome(op, a, b) == _outcome(op, oa, ob) == "cycles over different bases"
    assert _outcome(pair, a, "nope") == _outcome(oracle.pair, oa, "nope") == "unknown edge nope"
    for winding in ({"e1": -1}, {"nope": 1}, {"nope": 0}):
        assert _outcome(picard_lefschetz, a, winding) == _outcome(oracle.picard_lefschetz, oa, winding)


# -- the relation span fold against the from-scratch oracle ---------------------------


def _draw_relation(data, basis: AdaptedBasis, earlier: list[Cycle]) -> Cycle:
    """A random cycle, or one in the span of the earlier ones."""
    if earlier and data.draw(st.booleans()):
        total = basis.zero()
        for c in earlier:
            total = total + c.scale(data.draw(values))
        return total
    return _draw_cycle(data, basis)[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_adding_to_the_echelon_form_matches_a_rebuild(seed, data):
    basis = _random_basis(seed)
    original: list[Cycle] = []
    for _ in range(data.draw(st.integers(0, 4))):
        original.append(_draw_relation(data, basis, original))
    extra: list[Cycle] = []
    for _ in range(data.draw(st.integers(0, 3))):
        extra.append(_draw_relation(data, basis, original + extra))
    probes = [_draw_relation(data, basis, original + extra) for _ in range(3)]
    probes += [_draw_cycle(data, basis)[0] for _ in range(2)]

    start = linalg.rref([c.vector for c in original])
    added = linalg.rref(start[0] + [c.vector for c in extra])
    folded = start
    oracle_fold = oracle.RelationFold(basis, original)
    for c in extra:
        folded, oracle_fold = linalg.rref(folded[0] + [c.vector]), oracle_fold.with_added([c])
    rebuilt = linalg.rref([c.vector for c in original + extra])
    for rows, pivots in (added, folded):
        assert (rows, pivots) == rebuilt
        assert [Cycle.from_vector(basis, row) for row in rows] == oracle_fold.echelon
        assert pivots == oracle_fold._pivots
        for probe in probes:
            residual = linalg.reduce_vector(probe.vector, rows, pivots)
            assert Cycle.from_vector(basis, residual) == oracle_fold.reduce(probe)
            assert linalg.in_span(probe.vector, rows, pivots) == oracle_fold.contains(probe)
    for c in original + extra:
        assert linalg.in_span(c.vector, *added)


def test_from_vector_checks_length_and_keeps_the_tuple():
    basis = adapted_basis_for(loop_graph(2), rng(8))
    width = len(basis.columns())
    for n in (0, width - 1, width + 1):
        with pytest.raises(BasisError, match=f"vector of length {n} for {width} columns"):
            Cycle.from_vector(basis, [ONE] * n)
    vector = tuple([GaussianRational(k) for k in range(width)])
    cycle = Cycle.from_vector(basis, vector)
    assert cycle.vector is vector
    assert all(x is y for x, y in zip(Cycle.from_vector(basis, list(vector)).vector, vector))


def test_cycle_views_are_read_only():
    basis = adapted_basis_for(loop_graph(1), rng(9))
    cycle = Cycle(basis, {"d_e1": ONE}, {"e1": ONE})
    with pytest.raises(TypeError):
        cycle.coeffs["d_e1"] = ZERO
    with pytest.raises(TypeError):
        cycle.lam["e1"] = ZERO
    assert cycle.__slots__ == ("basis", "vector")


def test_pair_reads_the_cached_pairing_terms(documents):
    for doc in documents.values():
        basis = doc.basis
        terms = basis.pairing_terms
        assert basis.pairing_terms is terms
        assert set(terms) == {e.id for e in basis.graph.edges}
        for eid, row in terms.items():
            expected = [(k, GaussianRational(basis.pairing(n, eid))) for k, n in enumerate(basis.names)]
            assert list(row) == [(k, p) for k, p in expected if p]
    basis = adapted_basis_for(loop_graph(2), rng(10))
    cycle = Cycle(basis, {"d_e1": ONE, "d_e2": GaussianRational(3)})
    basis.pairing_terms["e1"] = ((1, GaussianRational(5)),)  # pair must read the cache, not the table
    assert pair(cycle, "e1") == GaussianRational(15)


def _mixed_pairing_basis(r: random.Random) -> tuple[AdaptedBasis, dict[str, str]]:
    """A basis with an arbitrary pairing table, not an adapted one, and the shape of
    each edge's terms: none, one unit term, one non-unit term, or several."""
    graph = random_graph(r, max_depth=2, max_horizontal=3)
    names = [f"b{k}" for k in range(r.randint(2, 4))]
    pairings: dict[str, dict[str, int]] = {name: {} for name in names}
    shapes = {}
    for e in graph.edges:
        shapes[e.id] = shape = r.choice(["none", "unit", "non-unit", "several"])
        if shape == "unit":
            pairings[r.choice(names)][e.id] = 1
        elif shape == "non-unit":
            pairings[r.choice(names)][e.id] = r.choice([-1, 2, -3])
        elif shape == "several":
            for name in r.sample(names, r.randint(2, len(names))):
                pairings[name][e.id] = r.choice([-2, -1, 1, 2])
    return AdaptedBasis(graph, [BasisElement(name, 0, NONCROSSING, None) for name in names], pairings), shapes


def test_pair_matches_the_oracle_on_unit_and_other_terms():
    r = rng(81)
    entries = [ZERO, ONE, -ONE, GaussianRational(2, -1), GaussianRational(Fraction(1, 3), Fraction(-5, 2))]
    seen = set()
    for _ in range(150):
        basis, shapes = _mixed_pairing_basis(r)
        for eid, row in basis.pairing_terms.items():
            assert all(p is ONE for _, p in row if p == ONE)
        for _ in range(4):
            coeffs = {name: r.choice(entries) for name in basis.names}
            lam = {e.id: r.choice(entries) for e in basis.graph.edges}
            new, old = Cycle(basis, coeffs, lam), oracle.Cycle(basis, coeffs, lam)
            for eid, shape in shapes.items():
                assert pair(new, eid) == oracle.pair(old, eid)
                seen.add((shape, any(not new.vector[col] for col, _ in basis.pairing_terms[eid])))
    assert {(shape, zero) for shape in ("unit", "non-unit", "several") for zero in (False, True)} <= seen
