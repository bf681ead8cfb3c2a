import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_deformation
import oracle_homology as oracle
from oracle_deformation import apply_deformation, horizontal_decomposition
from strata import linalg
from strata.cli import main
from strata.document import load_document, parse_document

from strata.deformation import CylinderClass, check_preserved
from strata.equations import EquationSystem
from strata.errors import DeformationError
from strata.gaussian import ZERO, ONE, GaussianRational
from strata.homology import Cycle, pair
from strata.periods import PeriodAssignment, evaluate, validate_assignment
from support import adapted_basis_for, loop_graph, real_parallel_fixture, rng


def _simple_assignment(basis, values):
    lam = {e.id: GaussianRational(2) for e in basis.graph.edges}
    return PeriodAssignment(values, lam, exact=True)


def test_evaluate_examples(documents):
    doc = documents["parallel_cylinders"]
    system = doc.system()
    assignment = doc.periods()
    assert evaluate(system.basis.zero(), assignment) == ZERO
    for cycle in system.equations:
        assert evaluate(cycle, assignment) == ZERO
    assert evaluate(Cycle(system.basis, {"d1": ONE}, {}), assignment) == GaussianRational(1, 1)
    # A moved column reads its value from the mapping; the others from the assignment.
    row = Cycle(system.basis, {"d1": ONE, "d2": -ONE}, {})
    d1 = system.basis.column_index[("b", "d1")]
    assert evaluate(row, assignment, {d1: GaussianRational(3, 2)}) == GaussianRational(2, 1)
    assert evaluate(row, assignment, {d1: ZERO}) == -GaussianRational(1, 1)


def test_evaluate_linear():
    r = rng(41)
    basis = adapted_basis_for(loop_graph(2))
    values = {name: GaussianRational(r.randint(-3, 3), r.randint(-3, 3)) for name in basis.names}
    assignment = _simple_assignment(basis, values)
    a = Cycle(basis, {"d_e1": GaussianRational(2)}, {"e1": ONE})
    b = Cycle(basis, {"d_e2": GaussianRational(-1)}, {"e2": GaussianRational(3)})
    assert evaluate(a + b, assignment) == evaluate(a, assignment) + evaluate(b, assignment)
    assert evaluate(a.scale(5), assignment) == evaluate(a, assignment) * GaussianRational(5)
    # Linear in the assignment as well.
    doubled = PeriodAssignment(
        {k: v * GaussianRational(2) for k, v in assignment.basis_values.items()},
        {k: v * GaussianRational(2) for k, v in assignment.lam_values.items()},
        exact=True,
    )
    assert evaluate(a, doubled) == evaluate(a, assignment) * GaussianRational(2)


def test_evaluate_missing_value():
    basis = adapted_basis_for(loop_graph(1))
    assignment = PeriodAssignment({}, {}, exact=True)
    with pytest.raises(DeformationError):
        evaluate(Cycle(basis, {"d_e1": ONE}, {}), assignment)


def test_apply_deformation_matrix_action():
    basis = adapted_basis_for(loop_graph(1))
    cls = CylinderClass(("e1",), (("e1", "d_e1"),))
    assignment = _simple_assignment(basis, {"d_e1": GaussianRational(0, 1), "n0_0": ONE, "n0_1": ONE})
    identity = apply_deformation(assignment, cls, 1, 0)
    assert identity.basis_values == assignment.basis_values
    moved = apply_deformation(assignment, cls, 2, 3)
    assert moved.basis_values["d_e1"] == GaussianRational(3, 2)
    assert moved.basis_values["n0_0"] == ONE
    assert moved.lam_values == assignment.lam_values


def _fixture_check(documents):
    """``check_preserved`` on the parallel-cylinders fixture, for any r and s."""
    doc = documents["parallel_cylinders"]
    system, assignment = doc.system(), doc.periods()
    cls = CylinderClass.from_edge(system, "e1")
    return lambda r, s: check_preserved(system, assignment, cls, r, s)


def test_stretch_must_be_positive(documents):
    check = _fixture_check(documents)
    for r, text in ((0, "0"), (Fraction(-1, 2), "-1/2"), ((-2, 4), "-1/2"), ((0, 3), "0")):
        with pytest.raises(DeformationError) as raised:
            check(r, 1)
        assert str(raised.value) == f"stretch factor must be positive, got {text}"


def test_denominators_must_be_positive(documents):
    check = _fixture_check(documents)
    for r, s, text in (
        ((2, 0), 1, "stretch factor r needs a positive denominator, got 0"),
        ((2, -1), 1, "stretch factor r needs a positive denominator, got -1"),
        (2, (1, 0), "shear s needs a positive denominator, got 0"),
        (2, (-1, -3), "shear s needs a positive denominator, got -3"),
    ):
        with pytest.raises(DeformationError) as raised:
            check(r, s)
        assert str(raised.value) == text


def test_r_and_s_are_read_like_a_declared_ratio(documents):
    """An int, a Fraction and an unreduced (n, d) pair of the same value give one report."""
    check = _fixture_check(documents)
    report = check(2, -1)
    assert check(Fraction(2), Fraction(-1)) == check((4, 2), (-3, 3)) == report
    assert check(Fraction(3, 2), (1, 4)) == check((6, 4), Fraction(1, 4))


@pytest.mark.parametrize("literal", ["0", "-1/2"])
def test_stretch_must_be_positive_through_the_document(fixture_dir, literal):
    data = json.loads((fixture_dir / "parallel_cylinders.json").read_text())
    data["deformations"][0]["r"] = literal
    doc = parse_document(data)
    assert "stretch-positive" in [v.rule for v in doc.violations()]
    [spec] = doc.deformation_requests()
    cls = CylinderClass.from_edge(doc.system(), spec.class_edge)
    with pytest.raises(DeformationError) as raised:
        check_preserved(doc.system(), doc.periods(), cls, spec.r, spec.s)
    assert str(raised.value) == f"stretch factor must be positive, got {literal}"


def test_group_law():
    r = rng(42)
    basis = adapted_basis_for(loop_graph(2))
    cls = CylinderClass(("e1", "e2"), (("e1", "d_e1"), ("e2", "d_e2")))
    for _ in range(100):
        values = {
            name: GaussianRational(
                Fraction(r.randint(-4, 4)), Fraction(r.randint(-4, 4))
            )
            for name in basis.names
        }
        assignment = _simple_assignment(basis, values)
        r1 = Fraction(r.randint(1, 5), r.randint(1, 3))
        r2 = Fraction(r.randint(1, 5), r.randint(1, 3))
        s1 = Fraction(r.randint(-4, 4), r.randint(1, 3))
        s2 = Fraction(r.randint(-4, 4), r.randint(1, 3))
        two_steps = apply_deformation(apply_deformation(assignment, cls, r1, s1), cls, r2, s2)
        # Matrix product of (1 s2; 0 r2) and (1 s1; 0 r1).
        one_step = apply_deformation(assignment, cls, r1 * r2, s1 + s2 * r1)
        assert two_steps.basis_values == one_step.basis_values
        assert two_steps.lam_values == one_step.lam_values


def test_horizontal_decomposition_examples():
    basis = adapted_basis_for(loop_graph(2))
    cls = CylinderClass(("e1", "e2"), (("e1", "d_e1"), ("e2", "d_e2")))
    row = Cycle(basis, {"d_e1": ONE, "d_e2": -ONE}, {})
    beta, coefficients = horizontal_decomposition(row, cls)
    assert beta.is_zero()
    assert coefficients == {"e1": ONE, "e2": -ONE}

    mixed = Cycle(basis, {"d_e1": ONE, "n0_0": ONE}, {})
    beta, coefficients = horizontal_decomposition(mixed, cls)
    assert beta == Cycle(basis, {"n0_0": ONE}, {})
    assert coefficients["e1"] == ONE and coefficients["e2"] == ZERO


def test_horizontal_decomposition_round_trip():
    r = rng(43)
    basis = adapted_basis_for(loop_graph(3))
    cls = CylinderClass(
        ("e1", "e2", "e3"),
        (("e1", "d_e1"), ("e2", "d_e2"), ("e3", "d_e3")),
    )
    for _ in range(40):
        cycle = Cycle(
            basis,
            {name: GaussianRational(r.randint(-2, 2)) for name in basis.names},
            {e.id: GaussianRational(r.randint(-2, 2)) for e in basis.graph.edges},
        )
        beta, coefficients = horizontal_decomposition(cycle, cls)
        rebuilt = beta
        for eid, name in cls.cross_curves:
            rebuilt = rebuilt + Cycle(basis, {name: coefficients[eid]}, {})
        assert rebuilt == cycle
        for eid in cls.edges:
            assert pair(beta, eid) == ZERO


def test_horizontal_decomposition_support_check():
    basis = adapted_basis_for(loop_graph(2))
    cls = CylinderClass(("e1",), (("e1", "d_e1"),))
    with pytest.raises(DeformationError):
        horizontal_decomposition(Cycle(basis, {"d_e2": ONE}, {}), cls)


def test_check_preserved_fixture(documents):
    doc = documents["parallel_cylinders"]
    system = doc.system()
    assignment = doc.periods()
    cls = CylinderClass.from_edge(system, "e1")
    report = check_preserved(system, assignment, cls, 2, 1)
    assert report.all_preserved
    assert all(r.residual == "0" for r in report.rows)


def test_check_preserved_requires_real():
    basis = adapted_basis_for(loop_graph(1))
    system = EquationSystem(basis, [], real=False)
    assignment = _simple_assignment(basis, {n: ONE for n in basis.names})
    cls = CylinderClass(("e1",), (("e1", "d_e1"),))
    with pytest.raises(DeformationError, match="real"):
        check_preserved(system, assignment, cls, 1, 0)


def test_check_preserved_flags_imaginary_remainder():
    basis = adapted_basis_for(loop_graph(2))
    row = Cycle(basis, {"d_e1": ONE, "d_e2": -ONE, "n0_0": ONE}, {})
    system = EquationSystem(basis, [row], real=True)
    values = {
        "d_e1": GaussianRational(0, 1),
        "d_e2": GaussianRational(Fraction(0), Fraction(2)),
        "n0_0": GaussianRational(0, 1),
        "n0_1": ZERO,
    }
    assignment = _simple_assignment(basis, values)
    assert evaluate(row, assignment) == ZERO
    cls = CylinderClass.from_edge(system, "e1")
    report = check_preserved(system, assignment, cls, 2, 0)
    assert not report.all_preserved
    flagged = report.rows[0]
    assert flagged.status == "not-covered"
    assert "imaginary" in flagged.note
    assert flagged.residual != "0"


def test_randomized_theorem_instance():
    r = rng(44)
    preserved_cases = 0
    for trial in range(100):
        system, assignment = real_parallel_fixture(r)
        assert validate_assignment(assignment, system) == []
        cls = CylinderClass.from_edge(system, "e1")
        for move in _moves(r, 3):
            report = check_preserved(system, assignment, cls, *move)
            assert report.all_preserved
            deformed = apply_deformation(assignment, cls, *move)
            assert deformed.lam_values == assignment.lam_values
        preserved_cases += 1
    assert preserved_cases == 100


def _moves(r, count):
    """``count`` random (r, s), each an unreduced (n, d > 0) pair as a document holds it."""
    return [
        ((r.randint(1, 6), r.randint(1, 3)), (r.randint(-6, 6), r.randint(1, 3)))
        for _ in range(count)
    ]


def _bent_assignments(r, system, assignment):
    """The assignment and two bent off it: one column shifted, so rows through it
    stop vanishing, and i times a random solution of the rows added, so rows still
    vanish but a cross-class remainder may turn imaginary."""
    columns = system.basis.columns()
    values = [assignment.value(kind, key) for kind, key in columns]

    def rebuilt(vector):
        basis_values = {key: v for (kind, key), v in zip(columns, vector) if kind == "b"}
        lam_values = {key: v for (kind, key), v in zip(columns, vector) if kind == "l"}
        return PeriodAssignment(basis_values, lam_values, exact=True)

    shifted = list(values)
    k = r.randrange(len(columns))
    shifted[k] = shifted[k] + GaussianRational(r.randint(-2, 2), r.choice([-1, 1]))
    solutions = linalg.nullspace([eq.cycle.vector for eq in system.rref_rows], len(columns))
    turned = list(values)
    for solution in solutions:
        weight = GaussianRational(0, Fraction(r.randint(-3, 3), r.randint(1, 3)))
        turned = [a + weight * b for a, b in zip(turned, solution)]
    return [assignment, rebuilt(shifted), rebuilt(turned)]


def _approximate(assignment):
    return PeriodAssignment(
        {k: v.to_complex() for k, v in assignment.basis_values.items()},
        {k: v.to_complex() for k, v in assignment.lam_values.items()},
        exact=False,
    )


def test_check_preserved_matches_the_two_assignment_oracle():
    """Rows evaluated in place give the outcomes of the deformed-assignment check."""
    r = rng(45)
    seen = set()
    for _ in range(60):
        system, assignment = real_parallel_fixture(r)
        cls = CylinderClass.from_edge(system, "e1")
        for exact in _bent_assignments(r, system, assignment):
            for values in (exact, _approximate(exact)):
                for move in _moves(r, 3):
                    report = check_preserved(system, values, cls, *move)
                    assert report == oracle_deformation.check_preserved(system, values, cls, *move)
                    seen.update((values.exact, row.note) for row in report.rows)
    for exact in (True, False):
        for note in (
            "", "row does not vanish at the base point",
            "cross-class remainder has nonzero imaginary part",
        ):
            assert (exact, note) in seen


def test_the_residual_is_the_period_plus_the_shear_stretch_of_the_class_term():
    """F(w_rs) = F(w) + (s + i(r - 1)) L(F), with L(F) the sum over the class of
    F[cross-curve] Im w(cross-curve); exact mode never reports an unexpected residual."""
    r = rng(46)
    for _ in range(60):
        system, assignment = real_parallel_fixture(r)
        cls = CylinderClass.from_edge(system, "e1")
        index = system.basis.column_index
        for values in _bent_assignments(r, system, assignment):
            for move in _moves(r, 3):
                report = check_preserved(system, values, cls, *move)
                (r_n, r_d), (s_n, s_d) = move
                factor = GaussianRational(Fraction(s_n, s_d), Fraction(r_n - r_d, r_d))
                for eq, row in zip(system.rref_rows, report.rows):
                    lead = ZERO
                    for _, name in cls.cross_curves:
                        height = GaussianRational(values.value("b", name).im)
                        lead = lead + eq.cycle.vector[index[("b", name)]] * height
                    assert row.residual == str(evaluate(eq.cycle, values) + factor * lead)
                    assert row.status != "residual-nonzero"
                    if row.status == "preserved":
                        assert not lead


def test_approximate_relation_tolerance():
    basis = adapted_basis_for(loop_graph(2))
    relation = Cycle(basis, {}, {"e1": ONE, "e2": -ONE})
    system = EquationSystem(basis, [], real=True, relations=[relation])
    base = {name: 0j for name in basis.names}
    nearly = PeriodAssignment(base, {"e1": 2.0, "e2": 2.0 + 1e-12}, exact=False)
    assert validate_assignment(nearly, system) == []
    off = PeriodAssignment(base, {"e1": 2.0, "e2": 2.0 + 1e-6}, exact=False)
    assert any(v.rule == "relations-hold" for v in validate_assignment(off, system))


def test_approximate_mode_tolerance():
    basis = adapted_basis_for(loop_graph(1))
    values = {"d_e1": 1 + 1j, "n0_0": 0.5, "n0_1": 0j}
    lam = {"e1": 2.0}
    assignment = PeriodAssignment(values, lam, exact=False)
    system = EquationSystem(basis, [], real=True)
    assert validate_assignment(assignment, system) == []
    cls = CylinderClass(("e1",), (("e1", "d_e1"),))
    moved = apply_deformation(assignment, cls, 3, 1)
    assert moved.basis_values["d_e1"] == 2 + 3j


def test_approximate_residuals_keep_the_dict_summation_order(tmp_path):
    """Float periods are summed in column order, as the dict-based cycles did."""
    data = json.loads((Path(__file__).parent.parent / "fixtures" / "parallel_cylinders.json").read_text())
    data["periods"] = {
        "mode": "approximate",
        "basis": {"d1": "1/3+2/7 i", "d2": "5/11+1/13 i", "a1": "3/7", "a2": "2/9"},
        "lambda": {"e1": "1/3", "e2": "1/3"},
    }
    # A row with three terms, so that the summation order shows in the rounding.
    data["system"]["equations"].append(
        {"coeffs": {"d1": "1", "d2": "-1", "a1": "1/3", "a2": "2/7"}, "lambda": {"e1": "-3/5"}}
    )
    path = tmp_path / "approximate.json"
    path.write_text(json.dumps(data))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(["deform", "--json", str(path)])
    rows = json.loads(buffer.getvalue())["reports"][0]["rows"]

    doc = load_document(str(path))
    system, assignment = doc.system(), doc.periods()
    (spec,) = doc.deformation_requests()
    cls = CylinderClass.from_edge(system, spec.class_edge)
    deformed = apply_deformation(assignment, cls, spec.r, spec.s)
    assert len(rows) == system.rank == 3
    assert max(len(eq.cycle.coeffs) + len(eq.cycle.lam) for eq in system.rref_rows) >= 3
    for row, eq in zip(rows, system.rref_rows):
        old = oracle.Cycle.from_vector(system.basis, eq.cycle.vector)
        assert row["residual"] == repr(oracle.evaluate(old, deformed))
        for values in (assignment, deformed):
            assert repr(evaluate(eq.cycle, values)) == repr(oracle.evaluate(old, values))
    assert any(row["residual"] != "0j" for row in rows)


def test_the_document_builds_its_period_assignment_once(monkeypatch, documents):
    doc = documents["parallel_cylinders"]
    assert doc.periods() is doc.periods()
    built = []
    original = PeriodAssignment.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PeriodAssignment, "__init__", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["deform", str(Path(__file__).parent.parent / "fixtures" / "parallel_cylinders.json")])
    # The document's own: the deformation check evaluates the moved periods in place.
    assert (code, len(doc.deformations), len(built)) == (0, 1, 1)
