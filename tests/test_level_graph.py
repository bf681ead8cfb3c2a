import pytest

from strata.errors import GraphError
from strata.level_graph import (
    Edge,
    EnhancedLevelGraph,
    Marking,
    Undegeneration,
    Vertex,
    codim,
    enumerate_undegenerations,
    lcm_weight,
    passage_weight,
    passages,
    top_vertices_have_horizontal,
    validate,
)
from support import loop_graph, random_graph, rng, two_level_graph


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
    assert sum(1 for u in undegs if u.target_codim() == 1) == 2


def test_undegeneration_levels_and_survival():
    graph = two_level_graph((2, 3))
    keep_all = Undegeneration.make([-1], [])
    assert keep_all.surviving_vertical(graph) == ("v1", "v2")
    assert keep_all.new_level(0) == 0 and keep_all.new_level(-1) == -1
    smooth_all = Undegeneration.make([], [])
    assert smooth_all.surviving_vertical(graph) == ()
    assert smooth_all.new_level(-1) == 0


def test_undegeneration_codim_matches_kept_counts():
    r = rng(3)
    for _ in range(30):
        graph = random_graph(r)
        for und in enumerate_undegenerations(graph):
            assert und.target_codim() == und.depth + und.horizontal_count


def test_composition_and_factorization():
    r = rng(4)
    for _ in range(30):
        graph = random_graph(r, max_depth=3, max_horizontal=3)
        full = enumerate_undegenerations(graph)
        if not full:
            continue
        first = full[r.randrange(len(full))]
        # Second step: keep a subset of the relabeled passages and edges.
        target_passages = sorted(range(-1, -first.depth - 1, -1))
        keep_p = [p for p in target_passages if r.random() < 0.5]
        keep_h = [h for h in first.kept_horizontal if r.random() < 0.5]
        second = Undegeneration.make(keep_p, keep_h)
        composed = first.then(graph, second)
        ordered = sorted(first.kept_passages, reverse=True)
        expected = sorted(ordered[-p - 1] for p in keep_p)
        assert list(composed.kept_passages) == expected
        assert set(composed.kept_horizontal) == set(keep_h)
        # Horizontal-then-vertical factorization reaches the same survivors.
        vertical_only = Undegeneration.make(first.kept_passages, graph.horizontal_edges)
        all_target_passages = tuple(range(-1, -vertical_only.depth - 1, -1))
        horizontal_step = Undegeneration.make(all_target_passages, first.kept_horizontal)
        refactored = vertical_only.then(graph, horizontal_step)
        assert refactored.surviving_edges(graph) == first.surviving_edges(graph)
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
        first.then(graph, Undegeneration.make([-2], []))
    with pytest.raises(GraphError):
        first.then(graph, Undegeneration.make([], ["nope"]))


def test_passages_listing():
    graph = two_level_graph((2, 3))
    listing = passages(graph)
    assert [p.index for p in listing] == [-1]
    assert listing[0].crossing == ("v1", "v2")
