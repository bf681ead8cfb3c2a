import pytest

from strata.document import parse_document
from strata.errors import GraphError
from strata.gaussian import GaussianRational
from strata.level_graph import (
    Edge,
    EnhancedLevelGraph,
    Marking,
    Undegeneration,
    Vertex,
    codim,
    components,
    enumerate_undegenerations,
    lcm_weight,
    passage_weight,
    validate,
)
import oracle_level_graph
from support import (
    bench_pool_documents,
    cylinders_document,
    loop_graph,
    random_graph,
    rng,
    surviving_edges,
    surviving_vertical,
    target_codim,
    then,
    top_vertices_have_horizontal,
    two_level_graph,
)


def test_single_vertex_valid():
    graph = EnhancedLevelGraph([Vertex("w", 2, 0)], [], [Marking("w", 2)])
    assert validate(graph) == []
    assert codim(graph) == 0


def test_equal_levels_vertical_violation():
    graph = EnhancedLevelGraph(
        [Vertex("a", 1, 0), Vertex("b", 1, 0)],
        [Edge("e", ("a", "b"), top="a", kappa=1)],
        [Marking("a", 0), Marking("b", 0)],
    )
    problems = validate(graph)
    assert any("equal levels but kind vertical" in v.detail for v in problems)


def test_two_level_fixture_valid(documents):
    doc = documents["intro_two_level"]
    assert validate(doc.graph) == []
    assert codim(doc.graph) == 1
    assert doc.graph.depth == 1


def test_order_balance_violation():
    graph = EnhancedLevelGraph([Vertex("w", 2, 0)], [], [Marking("w", 1)])
    problems = validate(graph)
    assert any(v.rule == "order-balance" for v in problems)


def test_level_surjectivity():
    graph = EnhancedLevelGraph(
        [Vertex("a", 1, 0), Vertex("b", 1, -2)],
        [Edge("e", ("a", "b"), top="a", kappa=1)],
        [Marking("a", 0), Marking("b", 0)],
    )
    assert any(v.rule == "levels" for v in validate(graph))


def test_disconnected_rejected():
    graph = EnhancedLevelGraph(
        [Vertex("a", 1, 0), Vertex("b", 2, 0)],
        [],
        [Marking("a", 0), Marking("b", 2)],
    )
    assert any(v.rule == "connected" for v in validate(graph))


def test_missing_vertex_reference():
    graph = EnhancedLevelGraph([Vertex("a", 1, 0)], [Edge("e", ("a", "zz"))], [Marking("a", 0)])
    assert any(v.rule == "endpoints" for v in validate(graph))


def test_lcm_weights():
    graph = two_level_graph((2, 3))
    assert lcm_weight(graph, -1) == 6
    assert passage_weight(graph, "v1", -1) == 3
    assert passage_weight(graph, "v2", -1) == 2
    single = two_level_graph((1,))
    assert lcm_weight(single, -1) == 1
    wide = two_level_graph((4, 6))
    assert lcm_weight(wide, -1) == 12
    assert passage_weight(wide, "v2", -1) == 2


def test_lcm_weight_brute_force():
    r = rng(17)
    for _ in range(50):
        kappas = tuple(r.randint(1, 8) for _ in range(r.randint(1, 4)))
        graph = two_level_graph(kappas)
        value = lcm_weight(graph, -1)
        candidate = 1
        while any(candidate % k for k in kappas):
            candidate += 1
        assert value == candidate
        for edge in graph.edges:
            assert edge.kappa * passage_weight(graph, edge.id, -1) == value


def test_passage_errors():
    graph = two_level_graph((2,))
    with pytest.raises(GraphError):
        lcm_weight(graph, -2)
    with pytest.raises(GraphError):
        passage_weight(loop_graph(1), "e1", -1)


def test_codim_examples():
    assert codim(two_level_graph((1,))) == 1
    assert codim(loop_graph(3)) == 3


def test_enumerate_counts():
    assert len(enumerate_undegenerations(two_level_graph((1,)))) == 2
    assert len(enumerate_undegenerations(loop_graph(2))) == 4
    mixed_graph = EnhancedLevelGraph(
        [Vertex("a", 1, 0), Vertex("b", 1, -1)],
        [Edge("v1", ("a", "b"), top="a", kappa=1), Edge("h1", ("a", "a"))],
        [Marking("a", 2), Marking("b", 2)],
    )
    assert validate(mixed_graph) == []
    undegs = enumerate_undegenerations(mixed_graph)
    assert len(undegs) == 4
    assert sum(1 for u in undegs if target_codim(u) == 1) == 2


def test_undegeneration_levels_and_survival():
    graph = two_level_graph((2, 3))
    keep_all = Undegeneration.make([-1], [])
    assert surviving_vertical(keep_all, graph) == ("v1", "v2")
    assert keep_all.new_level(0) == 0 and keep_all.new_level(-1) == -1
    smooth_all = Undegeneration.make([], [])
    assert surviving_vertical(smooth_all, graph) == ()
    assert smooth_all.new_level(-1) == 0


def test_undegeneration_codim_matches_kept_counts():
    r = rng(3)
    for _ in range(30):
        graph = random_graph(r)
        for und in enumerate_undegenerations(graph):
            assert target_codim(und) == len(und.kept_passages) + len(und.kept_horizontal)


def test_enumeration_matches_the_sorted_combinations_oracle(documents):
    graphs = [doc.graph for doc in documents.values()]
    graphs += [cylinders_document(g).graph for g in range(2, 13)]
    r = rng(19)
    graphs += [random_graph(r, max_depth=3) for _ in range(120)]
    assert {graph.depth for graph in graphs} == {0, 1, 2, 3}
    for graph in graphs:
        undegenerations = enumerate_undegenerations(graph)
        assert undegenerations == oracle_level_graph.enumerate_undegenerations(graph)
        if graph.depth == 2:
            passages = list(dict.fromkeys([u.kept_passages for u in undegenerations]))
            assert passages == [(), (-2,), (-2, -1), (-1,)]


def test_composition_and_factorization():
    r = rng(4)
    for _ in range(30):
        graph = random_graph(r, max_depth=3, max_horizontal=3)
        full = enumerate_undegenerations(graph)
        if not full:
            continue
        first = full[r.randrange(len(full))]
        # Second step: keep a subset of the relabeled passages and edges.
        target_passages = sorted(range(-1, -len(first.kept_passages) - 1, -1))
        keep_p = [p for p in target_passages if r.random() < 0.5]
        keep_h = [h for h in first.kept_horizontal if r.random() < 0.5]
        second = Undegeneration.make(keep_p, keep_h)
        composed = then(first, graph, second)
        ordered = sorted(first.kept_passages, reverse=True)
        expected = sorted(ordered[-p - 1] for p in keep_p)
        assert list(composed.kept_passages) == expected
        assert set(composed.kept_horizontal) == set(keep_h)
        # Horizontal-then-vertical factorization reaches the same survivors.
        vertical_only = Undegeneration.make(first.kept_passages, graph.horizontal_edges)
        all_target_passages = tuple(range(-1, -len(vertical_only.kept_passages) - 1, -1))
        horizontal_step = Undegeneration.make(all_target_passages, first.kept_horizontal)
        refactored = then(vertical_only, graph, horizontal_step)
        assert surviving_edges(refactored, graph) == surviving_edges(first, graph)
        assert [refactored.new_level(v.level) for v in graph.vertices] == [
            first.new_level(v.level) for v in graph.vertices
        ]


def test_top_vertices_have_horizontal():
    assert top_vertices_have_horizontal(loop_graph(1))
    assert not top_vertices_have_horizontal(two_level_graph((1,)))
    graph = EnhancedLevelGraph(
        [Vertex("a", 0, 0), Vertex("b", 0, 0), Vertex("c", 1, -1)],
        [
            Edge("h1", ("a", "b")),
            Edge("h2", ("a", "b")),
            Edge("v1", ("a", "c"), top="a", kappa=1),
            Edge("v2", ("b", "c"), top="b", kappa=1),
        ],
        [Marking("a", 0), Marking("b", 0), Marking("c", 4)],
    )
    assert validate(graph) == []
    assert top_vertices_have_horizontal(graph)


def test_vertical_edge_requires_enhancement_and_top():
    graph = EnhancedLevelGraph(
        [Vertex("a", 1, 0), Vertex("b", 1, -1)],
        [Edge("e", ("a", "b"))],
        [Marking("a", 0), Marking("b", 2)],
    )
    problems = validate(graph)
    assert any(v.rule == "enhancement" for v in problems)
    assert any(v.rule == "orientation" for v in problems)
    wrong_top = EnhancedLevelGraph(
        [Vertex("a", 1, 0), Vertex("b", 1, -1)],
        [Edge("e", ("a", "b"), top="b", kappa=1)],
        [Marking("a", 0), Marking("b", 2)],
    )
    assert any(v.rule == "orientation" for v in validate(wrong_top))
    for top in ("nosuch", None):
        unknown_top = EnhancedLevelGraph(
            [Vertex("a", 1, 0), Vertex("b", 1, -1)],
            [Edge("e", ("a", "b"), top=top, kappa=1)],
            [Marking("a", 0), Marking("b", 2)],
        )
        assert [v.rule for v in validate(unknown_top)] == ["orientation"]
    bad_kappa = EnhancedLevelGraph(
        [Vertex("a", 1, 0), Vertex("b", 1, -1)],
        [Edge("e", ("a", "b"), top="a", kappa=0)],
        [Marking("a", 0), Marking("b", 2)],
    )
    assert any(v.rule == "enhancement" for v in validate(bad_kappa))


def test_composition_error_paths():
    graph = two_level_graph((1,))
    first = Undegeneration.make([-1], [])
    with pytest.raises(GraphError):
        then(first, graph, Undegeneration.make([-2], []))
    with pytest.raises(GraphError):
        then(first, graph, Undegeneration.make([], ["nope"]))


def test_passages_listing():
    graph = two_level_graph((2, 3))
    assert graph.passage_indices() == (-1,)
    assert graph.crossing_edges(-1) == ("v1", "v2")


def test_derived_edge_data_is_computed_once_and_matches_a_scan():
    r = rng(4701)
    for _ in range(60):
        graph = random_graph(r, max_depth=3, max_horizontal=3)
        horizontal = sorted(e.id for e in graph.edges if graph.is_horizontal(e.id))
        vertical = sorted(e.id for e in graph.edges if not graph.is_horizontal(e.id))
        assert graph.horizontal_edges == tuple(horizontal)
        assert graph.vertical_edges == tuple(vertical)
        assert graph.horizontal_edges is graph.horizontal_edges
        assert graph.vertical_edges is graph.vertical_edges
        for i in graph.passage_indices():
            scan = tuple(
                e for e in vertical if graph.top_level(e) > i >= graph.bottom_level(e)
            )
            assert graph.crossing_edges(i) == scan
            assert graph.crossing_edges(i) is graph.crossing_edges(i)
            weights = graph.passage_weights(i)
            assert graph.passage_weights(i) is weights and list(weights) == list(scan)
            for e in scan:
                kappa = graph.edge(e).kappa
                assert passage_weight(graph, e, i) * kappa == lcm_weight(graph, i)
                assert weights[e] == GaussianRational(lcm_weight(graph, i) // kappa)
        for und in enumerate_undegenerations(graph):
            survivors = tuple(
                e for e in vertical
                if any(graph.top_level(e) > p >= graph.bottom_level(e) for p in und.kept_passages)
            )
            assert surviving_vertical(und, graph) == survivors
        assert surviving_vertical(Undegeneration.make([0, -graph.depth - 1], []), graph) == ()
        with pytest.raises(GraphError):
            graph.crossing_edges(-graph.depth - 1)


def test_components_are_ordered_by_least_member():
    assert components("fedcba", [("f", "a"), ("e", "c", "b")]) == (
        frozenset("af"),
        frozenset("bce"),
        frozenset("d"),
    )
    assert components([], [("a", "b")]) == ()
    assert components(["a", "b"], [("a", "zz"), ("zz", "b"), ("b",), ()]) == (frozenset("a"), frozenset("b"))
    assert components(["a", "a", "b"], [("b", "a")]) == (frozenset("ab"),)


def test_components_match_plain_merging():
    from support import closure_of_sets

    r = rng(4911)
    for _ in range(300):
        items = r.sample(range(20), r.randint(0, 12))
        links = [r.sample(range(24), r.randint(0, 4)) for _ in range(r.randint(0, 8))]
        expected = closure_of_sets(items, [set(link) & set(items) for link in links])
        assert list(components(items, links)) == expected


def _random_loose_graph(r) -> EnhancedLevelGraph:
    """Vertices drawn with repeats allowed, edges between drawn ids and an unknown one."""
    ids = [r.choice("abcdef") for _ in range(r.randint(0, 6))]
    ends = ids + ["zz"]
    edges = [Edge(f"e{k}", (r.choice(ends), r.choice(ends))) for k in range(r.randint(0, 6))]
    return EnhancedLevelGraph([Vertex(v, 0, 0) for v in ids], edges, [])


def test_is_connected_matches_the_search_oracle(documents):
    graphs = [doc.graph for doc in documents.values()]
    graphs += [parse_document(doc).graph for doc in bench_pool_documents()]
    r = rng(4912)
    graphs += [random_graph(r, max_depth=4) for _ in range(200)]
    graphs += [_random_loose_graph(r) for _ in range(2000)]
    answers = [graph.is_connected() for graph in graphs]
    assert answers == [oracle_level_graph.is_connected(graph) for graph in graphs]
    assert 0 < answers.count(False) < len(answers)


def test_is_connected_edge_cases():
    a, b = Vertex("a", 0, 0), Vertex("b", 0, 0)
    assert not EnhancedLevelGraph([], [], []).is_connected()
    assert EnhancedLevelGraph([a], [], []).is_connected()
    assert not EnhancedLevelGraph([a, b], [], []).is_connected()
    assert not EnhancedLevelGraph([a, a], [], []).is_connected()
    assert not EnhancedLevelGraph([a, a, b], [Edge("e", ("a", "b"))], []).is_connected()
    assert EnhancedLevelGraph([a, b], [Edge("e", ("a", "b"))], []).is_connected()
    assert not EnhancedLevelGraph([a, b], [Edge("e", ("a", "zz")), Edge("f", ("zz", "b"))], []).is_connected()
    assert EnhancedLevelGraph([a], [Edge("e", ("a", "zz"))], []).is_connected()
