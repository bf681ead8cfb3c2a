"""Acceptance suite: one test per criterion, one pass/fail line each.

Every tolerance here is exact (the arithmetic is rational); the only numeric
limits are the stated wall-clock budgets.  Randomized criteria draw from
STRATA_SEED so reruns are byte-for-byte reproducible.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from oracle_deformation import apply_deformation
from oracle_linalg import vec_add, vec_scale
from strata import linalg
from strata.aim import pairwise_circum_decompose, pairwise_cross_witness, tangent_absolute, lemma_bound
from strata.cli import main as cli_main
from strata.deformation import CylinderClass, check_preserved
from strata.document import load_document
from strata.equations import (
    EquationSystem,
    classify_undegeneration,
    cross_equivalence_classes,
    decompose,
    primitive_sets,
    residue_relation,
)
from strata.errors import AimError
from strata.gaussian import ZERO, ONE, GaussianRational
from strata.homology import Cycle, picard_lefschetz
from strata.level_graph import enumerate_undegenerations, passage_weight
from strata.periods import validate_assignment
from strata.plumbing import Binomial, convert, lattice_analysis, local_model
from support import (
    aim_parallel_fixture,
    assert_decomposition_contract,
    closure_of_sets,
    decomposable_fixture,
    loop_graph,
    random_graph,
    random_system,
    ratio_forms,
    real_parallel_fixture,
    rng,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"


@contextmanager
def criterion(capsys, number: int, budget: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d} FAIL      {description}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"criterion {number:2d} PASS {elapsed:6.2f}s {description}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def run_cli(*argv) -> tuple[int, str]:
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue()


def test_criterion_01_worked_example_conversion(capsys):
    with criterion(capsys, 1, 1.0, "worked example converts to a unit binomial"):
        code, output = run_cli("plumb", str(FIXTURES / "parallel_cylinders.json"), "--json")
        assert code == 0
        payload = json.loads(output)
        binomials = [e for e in payload["equations"] if e["type"] == "binomial"]
        analytics = [e for e in payload["equations"] if e["type"] == "analytic"]
        assert len(binomials) == 1 and len(analytics) == 1
        assert binomials[0]["I"] == {"e1": 1}
        assert binomials[0]["J"] == {"e2": 1}
        assert binomials[0]["unit"].startswith("f")
        # The period row in lambda symbols passes through unchanged.
        assert analytics[0]["top_restriction"]["lambda"] == {"e1": "1/1", "e2": "-1/1"}
        assert analytics[0]["top_restriction"]["coeffs"] == {}


def test_criterion_02_stacked_moduli_cusp(capsys):
    with criterion(capsys, 2, 1.0, "stacked cylinders give a non-normal cusp factor"):
        document = load_document(str(FIXTURES / "stacked_cylinders.json"))
        system = document.system()
        converted = convert(system)
        binomials = [p for p in converted if isinstance(p, Binomial)]
        assert len(binomials) == 1
        exponents = sorted(n for _, n in binomials[0].i_exp + binomials[0].j_exp)
        assert exponents == [2, 3]
        report = lattice_analysis(binomials)
        assert not report.smooth  # minimal exponent exceeds 1: normality fails
        assert report.saturated
        model = local_model(converted, system)
        assert model.smooth_dim == 1 and len(model.blocks) == 1


def test_criterion_03_absolute_identity_binomial(capsys):
    with criterion(capsys, 3, 1.0, "declared absolute identity yields s1*s2 = s3^2"):
        document = load_document(str(FIXTURES / "triple_node_cover.json"))
        system = document.system()
        converted = convert(system)
        binomials = [p for p in converted if isinstance(p, Binomial)]
        assert len(binomials) == 1
        assert dict(binomials[0].i_exp) == {"e1": 1, "e2": 1}
        assert dict(binomials[0].j_exp) == {"e3": 2}
        report = tangent_absolute(system, document.symplectic())
        assert report.symplectic


def test_criterion_04_intro_rule_out(capsys):
    with criterion(capsys, 4, 1.0, "two-level candidate ruled out by a residue relation"):
        code, output = run_cli("analyze", str(FIXTURES / "intro_two_level.json"), "--json")
        assert code == 2
        payload = json.loads(output)
        assert payload["certificate"]["verdict"] == "inconsistent"
        assert payload["certificate"]["rule"] == "R2"
        assert payload["certificate"]["forced"] == {"coeffs": {}, "lambda": {"e": "1/1"}}
        document = load_document(str(FIXTURES / "intro_two_level.json"))
        assert "e" in document.nonvanishing
        assert not document.graph.is_horizontal("e")


def test_criterion_05_cross_equivalence_oracle(capsys):
    with criterion(capsys, 5, 60.0, "200 randomized systems match the primitive-set closure"):
        r = rng(1005)
        for trial in range(200):
            graph = loop_graph(r.randint(1, 4))
            system = random_system(graph, r, rank=r.randint(0, 6))
            classes = list(cross_equivalence_classes(system))
            primitives = primitive_sets(system)
            oracle = closure_of_sets(graph.horizontal_edges, primitives)
            assert sorted(classes, key=sorted) == oracle


def test_criterion_06_codimension_formula(capsys):
    with criterion(capsys, 6, 30.0, "100 randomized triples match the codimension formula"):
        r = rng(1006)
        for trial in range(100):
            graph = random_graph(r, max_depth=2, max_horizontal=3)
            system = random_system(graph, r, rank=r.randint(0, 3))
            undegs = enumerate_undegenerations(graph)
            und = undegs[r.randrange(len(undegs))]
            got = classify_undegeneration(system, und)
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


def test_criterion_07_monodromy_reconciliation(capsys):
    with criterion(capsys, 7, 30.0, "100 randomized monodromies reproduce residue forms"):
        r = rng(1007)
        checked = 0
        while checked < 100:
            graph = random_graph(r, max_depth=3, max_horizontal=2)
            if not graph.passage_indices():
                continue
            system = random_system(graph, r, rank=r.randint(1, 3))
            if system.rank == 0:
                continue
            eq = system.rref_rows[r.randrange(system.rank)]
            if eq.top is None:
                continue
            passages = [i for i in graph.passage_indices() if i <= eq.top]
            if not passages:
                continue
            i = passages[r.randrange(len(passages))]
            winding = {e: passage_weight(graph, e, i) for e in graph.crossing_edges(i)}
            moved = picard_lefschetz(eq.cycle, winding)
            assert (moved - eq.cycle) == residue_relation(system, eq.cycle, i)
            checked += 1


def test_criterion_08_decomposition_contract(capsys):
    with criterion(capsys, 8, 30.0, "100 randomized decompositions satisfy all three clauses"):
        r = rng(1008)
        for trial in range(100):
            system = decomposable_fixture(r)
            coefficients = [GaussianRational(r.randint(-2, 2)) for _ in system.rref_rows]
            if not any(coefficients):
                coefficients[0] = ONE
            target = system.basis.zero()
            for c, eq in zip(coefficients, system.rref_rows):
                target = target + eq.cycle.scale(c)
            result = decompose(system, target)
            assert_decomposition_contract(system, target, result)


def test_criterion_09_cylinder_deformation(capsys):
    with criterion(capsys, 9, 60.0, "100 randomized real systems are preserved exactly"):
        r = rng(1009)
        for trial in range(100):
            system, assignment = real_parallel_fixture(r)
            assert validate_assignment(assignment, system) == []
            cls = CylinderClass.from_edge(system, "e1")
            for _ in range(10):
                move = (
                    Fraction(r.randint(1, 6), r.randint(1, 3)),
                    Fraction(r.randint(-6, 6), r.randint(1, 3)),
                )
                report = check_preserved(system, assignment, cls, *move)
                assert report.all_preserved
                deformed = apply_deformation(assignment, cls, *move)
                # Circumference invariance.
                assert deformed.lam_values == assignment.lam_values
            # Group law on a sample pair of moves.
            (r1, s1), (r2, s2) = [(Fraction(r.randint(1, 4)), Fraction(r.randint(-3, 3))) for _ in range(2)]
            two = apply_deformation(apply_deformation(assignment, cls, r1, s1), cls, r2, s2)
            # Matrix product of (1 s2; 0 r2) and (1 s1; 0 r1).
            one = apply_deformation(assignment, cls, r1 * r2, s1 + s2 * r1)
            assert two.basis_values == one.basis_values


def _pairwise_bruteforce_infeasible(system, target) -> bool:
    """No combination of two-node period forms in the extended span equals the
    target: solved directly from subspace generators, pair by pair."""
    columns = system.basis.columns()
    width = len(columns)
    extended = [eq.cycle.to_vector() for eq in system.rref_rows]
    extended += [rel.to_vector() for rel in system.relations]
    extended += [f.to_vector() for f in ratio_forms(system)]
    reduced, _ = linalg.rref(extended)
    horizontal = sorted(system.graph.horizontal_edges)
    # Pure-period part of the extended span.
    constraints = []
    for col, (kind, key) in enumerate(columns):
        if kind == "b" or key not in horizontal:
            constraints.append([row[col] for row in reduced])
    pure = []
    for coords in linalg.nullspace(constraints, len(reduced)):
        vec = [ZERO] * width
        for c, row in zip(coords, reduced):
            if c:
                vec = vec_add(vec, vec_scale(c, row))
        pure.append(vec)
    generators = []
    for a, b in combinations(horizontal, 2):
        pair_constraints = []
        for col, (kind, key) in enumerate(columns):
            if kind == "l" and key in (a, b):
                continue
            pair_constraints.append([v[col] for v in pure])
        for coords in linalg.nullspace(pair_constraints, len(pure)):
            vec = [ZERO] * width
            for c, v in zip(coords, pure):
                if c:
                    vec = vec_add(vec, vec_scale(c, v))
            if any(vec):
                generators.append(vec)
    if not generators:
        return True
    rows = [[g[col] for g in generators] for col in range(width)]
    return linalg.solve_linear(rows, target.to_vector()) is None


def test_criterion_10_aim_suite(capsys):
    with criterion(capsys, 10, 60.0, "symplectic bounds, pairwise decompositions, refusals"):
        # Parallel-deformation bound against the generic-subspace oracle.
        from test_aim import _lemma_bound_oracle

        document = load_document(str(FIXTURES / "minimal_stratum_parallel.json"))
        system = document.system()
        data = document.symplectic()
        cls = CylinderClass.from_edge(system, "e1")
        report = lemma_bound(system, data, cls)
        assert report.bound_satisfied and report.dim == _lemma_bound_oracle(system, data, cls)
        r = rng(1010)
        for trial in range(20):
            genus = r.choice([2, 3])
            rand_system, rand_data = aim_parallel_fixture(r, genus)
            rand_cls = CylinderClass.from_edge(rand_system, "e1")
            rand_report = lemma_bound(rand_system, rand_data, rand_cls)
            assert rand_report.bound_satisfied
            assert rand_report.dim == _lemma_bound_oracle(rand_system, rand_data, rand_cls)

        # Pairwise circumference decompositions succeed in the minimal stratum.
        q1 = system.ratios.ratio("e1", "e2")
        q2 = system.ratios.ratio("e2", "e3")
        target = Cycle(system.basis, {}, {"e1": ONE, "e3": GaussianRational(-q1 * q2)})
        parts = pairwise_circum_decompose(target, system, data)
        total = system.basis.zero()
        for part in parts:
            assert len(part.lam) <= 2 and not part.coeffs
            total = total + part
        assert (total - target).is_zero()

        # The double-cover combination refuses, and brute force confirms no
        # pairwise decomposition exists at all.
        cover = load_document(str(FIXTURES / "double_cover_relation.json"))
        cover_system = cover.system()
        combination = Cycle(
            cover.basis,
            {},
            {"l1": GaussianRational(2), "l2": GaussianRational(2), "l3": GaussianRational(2)},
        )
        assert cover_system.extended_span_contains(combination)
        with pytest.raises(AimError):
            pairwise_circum_decompose(combination, cover_system)
        assert _pairwise_bruteforce_infeasible(cover_system, combination)

        # The triple-node cover has no pairwise crossing witness.
        triple = load_document(str(FIXTURES / "triple_node_cover.json"))
        forced = EquationSystem(
            triple.basis,
            triple.system().equations,
            real=True,
            minimal_stratum=True,
            relations=triple.system().relations,
        )
        outcome = pairwise_cross_witness(forced, None, "e1", "e2")
        assert outcome.witness is None and outcome.diagnostic is not None


def test_criterion_11_determinism(capsys):
    with criterion(capsys, 11, 120.0, "byte-identical CLI output across runs and hash seeds"):
        jobs = [
            ("validate", "double_cover_relation", ()),
            ("analyze", "intro_two_level", ()),
            ("analyze", "three_node_pinch", ("--json",)),
            ("plumb", "triple_node_cover", ()),
            ("plumb", "stacked_cylinders", ("--json",)),
            ("deform", "parallel_cylinders", ()),
            ("aim", "minimal_stratum_parallel", ("--json",)),
        ]
        for command, fixture, flags in jobs:
            args = [command, f"fixtures/{fixture}.json", *flags]
            outputs = set()
            for hashseed in ("0", "0", "31337"):
                env = dict(os.environ)
                env["PYTHONHASHSEED"] = hashseed
                proc = subprocess.run(
                    [sys.executable, "-m", "strata.cli", *args],
                    capture_output=True,
                    env=env,
                    cwd=str(FIXTURES.parent),
                )
                outputs.add((proc.returncode, proc.stdout, proc.stderr))
            assert len(outputs) == 1
