from fractions import Fraction
from itertools import combinations

import pytest

import oracle_equations
import oracle_homology
import oracle_plumbing
from strata import cli, equations, linalg, plumbing
from strata.equations import (
    EquationSystem,
    ProportionalityData,
    proportionality_obligations,
)
from strata.errors import ConversionError, PlumbingError
from strata.gaussian import ONE, GaussianRational
from strata.homology import Cycle
from strata.plumbing import (
    Analytic,
    Binomial,
    can_smooth,
    convert,
    hurwitz_rule,
    lattice_analysis,
    local_model,
)
from support import (
    adapted_basis_for,
    bench_pool_systems,
    cylinders_system,
    loop_graph,
    rng,
    two_level_graph,
    write_cylinders_document,
)


def test_convert_worked_example(documents):
    system = documents["parallel_cylinders"].system()
    converted = convert(system)
    assert len(converted) == 2
    binomial, analytic = converted
    assert isinstance(binomial, Binomial)
    assert binomial.i_exp == (("e1", 1),)
    assert binomial.j_exp == (("e2", 1),)
    assert isinstance(analytic, Analytic)
    assert analytic.top_restriction == Cycle(system.basis, {}, {"e1": ONE, "e2": -ONE})


def test_convert_stacked_moduli(documents):
    system = documents["stacked_cylinders"].system()
    converted = convert(system)
    binomial = converted[0]
    assert isinstance(binomial, Binomial)
    exponents = sorted(n for _, n in binomial.i_exp + binomial.j_exp)
    assert exponents == [2, 3]
    assert dict(binomial.i_exp) == {"e1": 3}
    assert dict(binomial.j_exp) == {"e2": 2}


def test_convert_absolute_identity(documents):
    system = documents["triple_node_cover"].system()
    converted = convert(system)
    binomial = converted[0]
    assert isinstance(binomial, Binomial)
    assert dict(binomial.i_exp) == {"e1": 1, "e2": 1}
    assert dict(binomial.j_exp) == {"e3": 2}


def test_convert_missing_relation():
    basis = adapted_basis_for(loop_graph(2))
    system = EquationSystem(basis, [Cycle(basis, {"d_e1": ONE, "d_e2": -ONE}, {})])
    with pytest.raises(ConversionError) as err:
        convert(system)
    assert err.value.missing is not None
    assert "e2" in err.value.missing and "e1" in err.value.missing


def test_convert_same_sign_rejected():
    basis = adapted_basis_for(loop_graph(2))
    system = EquationSystem(
        basis,
        [
            Cycle(basis, {"d_e1": ONE, "d_e2": ONE}, {}),
            Cycle(basis, {}, {"e1": ONE, "e2": -ONE}),
        ],
    )
    with pytest.raises(ConversionError, match="not in closure"):
        convert(system)


def test_convert_rejects_inconsistent(documents):
    with pytest.raises(ConversionError, match="inconsistent"):
        convert(documents["intro_two_level"].system())


def test_convert_ratio_exponent_consistency():
    r = rng(31)
    for trial in range(25):
        basis = adapted_basis_for(loop_graph(3))
        q2 = Fraction(r.randint(1, 4), r.randint(1, 4))
        q3 = -Fraction(r.randint(1, 4), r.randint(1, 4))
        ratios = ProportionalityData([("e2", "e1", q2), ("e3", "e1", q3)])
        row = Cycle(
            basis,
            {"d_e1": ONE, "d_e2": GaussianRational(r.randint(1, 3)), "d_e3": ONE},
            {},
        )
        system = EquationSystem(basis, [row], ratios=ratios)
        converted = convert(system)
        binomial = converted[0]
        signs = dict(binomial.i_exp)
        signs.update({k: -v for k, v in binomial.j_exp})
        from strata.homology import pair

        expected = {
            eid: pair(row, eid) * GaussianRational(system.ratios.ratio(eid, "e1"))
            for eid in ("e1", "e2", "e3")
        }
        # The integer exponents reproduce the rational ray exactly.
        base = expected["e1"].as_fraction() / signs["e1"]
        for eid in ("e2", "e3"):
            assert expected[eid].as_fraction() == signs[eid] * base


def test_convert_rejects_non_rational_ray():
    basis = adapted_basis_for(loop_graph(2))
    system = EquationSystem(
        basis,
        [
            Cycle(basis, {"d_e1": GaussianRational(0, 1), "d_e2": ONE}, {}),
            Cycle(basis, {}, {"e1": ONE, "e2": -ONE}),
        ],
        ratios=ProportionalityData([("e1", "e2", Fraction(1))]),
    )
    with pytest.raises(ConversionError, match="not rational"):
        convert(system)


def test_binomial_normalization_unique():
    basis = adapted_basis_for(loop_graph(2))
    rows_a = [
        Cycle(basis, {"d_e1": ONE, "d_e2": -ONE}, {}),
        Cycle(basis, {}, {"e1": GaussianRational(2), "e2": -GaussianRational(3)}),
    ]
    rows_b = [
        rows_a[0].scale(GaussianRational(5)) + rows_a[1],
        rows_a[1].scale(GaussianRational(-2)),
    ]
    got_a = convert(EquationSystem(basis, rows_a))
    got_b = convert(EquationSystem(basis, rows_b))
    bin_a = [p for p in got_a if isinstance(p, Binomial)]
    bin_b = [p for p in got_b if isinstance(p, Binomial)]
    assert [(b.i_exp, b.j_exp) for b in bin_a] == [(b.i_exp, b.j_exp) for b in bin_b]


def test_convert_orientation_invariance(documents):
    from test_equations import flip_orientation

    for name in ("parallel_cylinders", "stacked_cylinders", "triple_node_cover"):
        system = documents[name].system()
        base = convert(system)
        for eid in [e.id for e in system.graph.edges]:
            flipped_result = convert(flip_orientation(system, eid))
            for a, b in zip(base, flipped_result):
                if isinstance(a, Binomial):
                    assert isinstance(b, Binomial)
                    assert (a.i_exp, a.j_exp) == (b.i_exp, b.j_exp)
                else:
                    assert not isinstance(b, Binomial)


def test_grouping_soundness_random():
    from strata.equations import cross_equivalence_classes

    r = rng(33)
    for trial in range(25):
        # Two independent classes with random positive ratios and mixed-sign
        # crossings, so every draw converts.
        basis = adapted_basis_for(loop_graph(4))
        rows = []
        for d_a, d_b, e_a, e_b in (("d_e1", "d_e2", "e1", "e2"), ("d_e3", "d_e4", "e3", "e4")):
            c = GaussianRational(-r.randint(1, 3))
            q = Fraction(r.randint(1, 4), r.randint(1, 4))
            rows.append(Cycle(basis, {d_a: ONE, d_b: c}, {}))
            rows.append(Cycle(basis, {}, {e_a: ONE, e_b: GaussianRational(-q)}))
        system = EquationSystem(basis, rows)
        converted = convert(system)
        model = local_model(converted, system)
        classes = cross_equivalence_classes(system)
        assert len(model.blocks) == 2
        for variables, binomials in model.blocks:
            owners = [cls for cls in classes if set(variables) <= cls]
            assert len(owners) == 1
            report = lattice_analysis(list(binomials))
            assert report.generators


def test_top_restriction_round_trip():
    # Vertical graph, no nonvanishing declaration: the residue relation is a
    # genuine constraint rather than a contradiction, and conversion goes
    # through with analytic rows only.
    basis = adapted_basis_for(two_level_graph((2,)))
    row = Cycle(basis, {"n0_0": ONE, "n1_0": GaussianRational(4)}, {"v1": ONE})
    system = EquationSystem(basis, [row])
    converted = convert(system)
    assert len(converted) == 1
    analytic = converted[0]
    assert isinstance(analytic, Analytic)
    source = system.rref_rows[analytic.source].cycle
    assert analytic.top_restriction.coeffs == {"n0_0": ONE}
    assert analytic.top_restriction.lam == {}
    assert set(source.coeffs) == {"n0_0", "n1_0"}
    # Analytic-only conversions leave the binomial part empty.
    model = local_model(converted, system)
    assert model.blocks == ()


def test_local_model_examples(documents):
    system = documents["stacked_cylinders"].system()
    model = local_model(convert(system), system)
    assert model.smooth_dim == 1
    assert len(model.blocks) == 1
    variables, binomials = model.blocks[0]
    assert variables == ("e1", "e2")
    report = lattice_analysis(list(binomials))
    assert not report.smooth and report.saturated

    minimal = documents["minimal_stratum_parallel"].system()
    model = local_model(convert(minimal), minimal)
    assert len(model.blocks) == 1


def test_local_model_two_classes():
    basis = adapted_basis_for(loop_graph(4))
    rows = [
        Cycle(basis, {"d_e1": ONE, "d_e2": -ONE}, {}),
        Cycle(basis, {"d_e3": ONE, "d_e4": -ONE}, {}),
        Cycle(basis, {}, {"e1": ONE, "e2": -ONE}),
        Cycle(basis, {}, {"e3": ONE, "e4": -GaussianRational(2)}),
    ]
    system = EquationSystem(basis, rows)
    model = local_model(convert(system), system)
    assert len(model.blocks) == 2
    assert model.blocks[0][0] == ("e1", "e2")
    assert model.blocks[1][0] == ("e3", "e4")


def test_lattice_analysis_cases():
    def binom(i_exp, j_exp):
        return Binomial("f", tuple(i_exp), tuple(j_exp), 0)

    smooth = lattice_analysis([binom([("a", 1)], [("b", 1)])])
    assert smooth.smooth and smooth.saturated

    cusp = lattice_analysis([binom([("a", 2)], [("b", 3)])])
    assert not cusp.smooth and cusp.saturated

    cone = lattice_analysis([binom([("a", 1), ("b", 1)], [("c", 2)])])
    assert not cone.smooth and cone.saturated


def test_lattice_smooth_elimination_property():
    r = rng(32)
    for trial in range(25):
        # Chain of binomials, each solving a fresh variable with exponent 1.
        n = r.randint(1, 4)
        binomials = []
        for k in range(n):
            other = [(f"x{k}_{j}", r.randint(1, 3)) for j in range(r.randint(1, 2))]
            binomials.append(Binomial(f"f{k}", ((f"p{k}", 1),), tuple(other), k))
        report = lattice_analysis(binomials)
        assert report.smooth


def test_can_smooth(documents):
    system = documents["minimal_stratum_parallel"].system()
    model = local_model(convert(system), system)
    witness = can_smooth(model, edges_to_smooth=("e1", "e2", "e3"))
    assert witness.class_blocks == (("e1", "e2", "e3"),)
    with pytest.raises(PlumbingError, match="partial class"):
        can_smooth(model, edges_to_smooth=("e1",))

    intro = documents["intro_two_level"].system()
    # Passage directions come straight from the graph.
    vertical_model = local_model([], intro)
    witness = can_smooth(vertical_model, passages_to_smooth=(-1,))
    assert witness.t_directions == ("t[-1]",)
    with pytest.raises(PlumbingError):
        can_smooth(vertical_model, passages_to_smooth=(-2,))


def test_hurwitz_rule():
    basis = adapted_basis_for(loop_graph(2))
    forced = EquationSystem(
        basis,
        [
            Cycle(basis, {}, {"e1": ONE, "e2": ONE}),
            Cycle(basis, {}, {"e1": ONE, "e2": -ONE}),
        ],
    )
    certificate = hurwitz_rule(forced)
    assert certificate is not None and certificate.kind == "impossible-horizontal-node"
    assert certificate.edges == ("e1", "e2")

    vertical_basis = adapted_basis_for(two_level_graph((2,)))
    smooth = EquationSystem(
        vertical_basis, [Cycle(vertical_basis, {"n0_0": ONE, "n0_1": -ONE}, {})]
    )
    certificate = hurwitz_rule(smooth)
    assert certificate is not None and certificate.kind == "smooth-normal-crossing"

    empty = EquationSystem(vertical_basis, [])
    assert hurwitz_rule(empty) is None


# -- the residual table against the per-row reductions ------------------------------


def _outcome(fn, system, assume_theorems):
    """The converted rows, or the ConversionError's text and ``missing``."""
    try:
        return fn(system, assume_theorems=assume_theorems)
    except ConversionError as exc:
        return str(exc), exc.missing


def _assert_matches_oracle(system, assume_theorems=False):
    got = _outcome(convert, system, assume_theorems)
    assert got == _outcome(oracle_plumbing.convert, system, assume_theorems)
    assert proportionality_obligations(system) == oracle_plumbing.proportionality_obligations(system)[0]
    relations = oracle_homology.relation_fold(system)
    for eid, (lead, key) in system.residuals.items():
        residual = relations.reduce(Cycle(system.basis, {}, {eid: ONE}))
        assert key == oracle_equations.monic(residual).vector
        assert lead == next((x for x in residual.vector if x), None)
    return got


def test_residual_table_matches_the_per_row_reductions_on_fixtures_and_cylinders(documents):
    for doc in documents.values():
        for assume in (False, True):
            _assert_matches_oracle(doc.system(), assume)
    for g in range(2, 13):
        assert isinstance(_assert_matches_oracle(cylinders_system(g)), list)


def _random_conversion_system(r) -> EquationSystem:
    """Rows crossing random sets of 2-4 horizontal loops, with random relations,
    single-node relations and ratios, some of them complex."""
    basis = adapted_basis_for(loop_graph(r.randint(2, 4)))
    edges = basis.graph.horizontal_edges

    def coefficient():
        return GaussianRational(r.choice([-2, -1, 1, 2]), r.choice([0, 0, 0, 1]))

    rows = []
    for _ in range(r.randint(1, 3)):
        coeffs = {f"d_{e}": coefficient() for e in r.sample(edges, r.randint(0, len(edges)))}
        if r.random() < 0.5:
            coeffs["n0_0"] = coefficient()
        rows.append(Cycle(basis, coeffs, {e: coefficient() for e in edges if r.random() < 0.15}))
    relations = [
        Cycle(basis, {}, {a: ONE, b: coefficient()}) for a, b in combinations(edges, 2) if r.random() < 0.2
    ]
    relations += [Cycle(basis, {}, {e: ONE}) for e in edges if r.random() < 0.05]
    ratios = ProportionalityData(
        [
            (a, b, Fraction(r.choice([-3, -1, 1, 2]), r.randint(1, 3)))
            for a, b in zip(edges, edges[1:])
            if r.random() < 0.4
        ]
    )
    return EquationSystem(basis, rows, relations=relations, ratios=ratios)


def _kind(outcome) -> str:
    if isinstance(outcome, list):
        return "converted"
    text = outcome[0]
    kinds = ("inconsistent", "no relation links", "not rational", "share a sign")
    return next(kind for kind in kinds if kind in text)


def test_residual_table_matches_the_per_row_reductions_on_random_systems():
    r = rng(5301)
    kinds = set()
    for _ in range(400):
        system = _random_conversion_system(r)
        assume = r.random() < 0.5
        kinds.add(_kind(_assert_matches_oracle(system, assume)))
    assert kinds == {"converted", "inconsistent", "no relation links", "not rational", "share a sign"}


def _r5_outcome(system) -> tuple[bool, bool]:
    """Whether the system has a zero residual, and whether R5 refused it; in
    both modes a zero residual is refused, and R5 refuses only by its echelon check."""
    zero = any(lead is None for lead, _ in system.residuals.values())
    refused = False
    for assume in (False, True):
        certificate = plumbing.consistency_report(system, assume_theorems=assume)
        assert not (zero and certificate.consistent)
        if certificate.rule == "R5":
            assert certificate.trace[-1].startswith("R5: combined relations force ")
            refused = True
    return zero, refused


def test_a_zero_residual_is_refused_by_the_r5_echelon_check(documents):
    systems = [doc.system() for doc in documents.values()] + [cylinders_system(g) for g in range(2, 13)]
    r = rng(5301)
    for _ in range(400):
        systems.append(_random_conversion_system(r))
        r.random()  # the mode draw of the oracle test above, so both see the same systems
    seen = {_r5_outcome(system) for system in systems}
    # Zero residuals occur, refused at R5 or before it, and so do R5 refusals
    # of systems whose residuals are all nonzero.
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# analyze's reductions modulo the reduction span per fixture before the residual
# table; the table may not add any.
ANALYZE_REDUCTIONS = {
    "double_cover_relation": 6, "intro_two_level": 1, "minimal_stratum_parallel": 3,
    "parallel_cylinders": 2, "stacked_cylinders": 2, "three_node_pinch": 3, "triple_node_cover": 3,
}


def test_each_period_symbol_is_reduced_once(monkeypatch, fixture_dir, tmp_path, capsys):
    counts, spans = [0], []
    span_property = equations.EquationSystem.__dict__["reduction_relations"]
    original = linalg.reduce_vector

    def recording(system):
        span = span_property.__get__(system, type(system))  # built once, then cached
        spans.append(span[0])
        return span

    def counting(v, rows, pivots):
        counts[0] += any(rows is span for span in spans)
        return original(v, rows, pivots)

    def reductions(*argv):
        counts[0] = 0
        cli.main(list(argv))
        return counts[0]

    monkeypatch.setattr(equations.EquationSystem, "reduction_relations", property(recording))
    monkeypatch.setattr(linalg, "reduce_vector", counting)
    g9 = write_cylinders_document(tmp_path / "g9.json", 9)
    # One reduction per horizontal node; re-reducing per row made plumb's 33.
    assert reductions("plumb", g9) == 9
    assert reductions("analyze", g9) == 9
    for name, most in ANALYZE_REDUCTIONS.items():
        path = str(fixture_dir / f"{name}.json")
        analyze = reductions("analyze", path)
        assert analyze <= most
        # plumb converts from the table its R5 check built, reducing nothing more.
        assert reductions("plumb", path) == analyze
    capsys.readouterr()


def _converted_blocks(systems):
    for system in systems:
        try:
            converted = convert(system)
        except ConversionError:
            continue
        for _, binomials in local_model(converted, system).blocks:
            yield list(binomials)


def _random_binomials(r) -> list[Binomial]:
    """One to four binomials over a few variables, each with disjoint sides."""
    pool = [f"x{k}" for k in range(r.randint(1, 6))]
    out = []
    for k in range(r.randint(1, 4)):
        chosen = r.sample(pool, r.randint(1, len(pool)))
        cut = r.randint(0, len(chosen))
        i_exp = tuple([(v, r.choice([1, 1, 2, 3])) for v in sorted(chosen[:cut])])
        j_exp = tuple([(v, r.choice([1, 1, 2, 4])) for v in sorted(chosen[cut:])])
        out.append(Binomial(f"f{k}", i_exp, j_exp, k))
    return out


def test_lattice_reports_match_the_index_table_oracle(documents):
    systems = [doc.system() for doc in documents.values()] + list(bench_pool_systems())
    blocks = list(_converted_blocks(systems))
    assert len(blocks) >= 60
    r = rng(4921)
    blocks += [_random_binomials(r) for _ in range(500)]
    reports = [lattice_analysis(binomials) for binomials in blocks]
    assert reports == [oracle_plumbing.lattice_analysis(binomials) for binomials in blocks]
    assert {report.smooth for report in reports} == {True, False}
    assert {report.saturated for report in reports} == {True, False}
