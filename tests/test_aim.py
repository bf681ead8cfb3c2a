import gc
import json
import sys
import weakref
from itertools import combinations

import pytest

import oracle_aim
from oracle_linalg import invert, vec_add, vec_scale
from strata import aim, homology, linalg, symplectic
from strata.aim import (
    at_most_two_decompose,
    lemma_bound,
    pairwise_circum_decompose,
    pairwise_cross_witness,
    tangent_absolute,
)
from strata.cli import main
from strata.deformation import CylinderClass
from strata.document import load_document
from strata.equations import EquationSystem, hor_support
from strata.errors import AimError, LimitError
from strata.gaussian import ZERO, ONE, GaussianRational
from strata.homology import Cycle
from strata.symplectic import SymplecticData, symplectic_problems, validate_symplectic
from support import (
    adapted_basis_for,
    aim_parallel_fixture,
    conjugated_document,
    cylinders_document,
    loop_graph,
    ratio_forms,
    rng,
    write_cylinders_document,
)


def _lagrangian_instance():
    graph = loop_graph(0)
    basis = adapted_basis_for(graph, noncrossing_per_level=4)
    j_matrix = (
        (0, 1, 0, 0),
        (-1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, -1, 0),
    )
    width = len(basis.columns())
    iota = []
    for k in range(4):
        vec = [ZERO] * width
        vec[k] = ONE
        iota.append(Cycle.from_vector(basis, vec))
    data = SymplecticData(j_matrix, tuple(iota), {}, minimal=False)
    return basis, data


def test_tangent_full_space_symplectic():
    basis, data = _lagrangian_instance()
    system = EquationSystem(basis, [])
    report = tangent_absolute(system, data)
    assert report.dim == 4 and report.symplectic


def test_tangent_lagrangian_annihilator_not_symplectic():
    basis, data = _lagrangian_instance()
    system = EquationSystem(
        basis,
        [Cycle(basis, {"n0_0": ONE}, {}), Cycle(basis, {"n0_2": ONE}, {})],
    )
    report = tangent_absolute(system, data)
    assert report.dim == 2
    assert report.form_rank == 0
    assert not report.symplectic


def test_tangent_fixture_symplectic(documents):
    doc = documents["triple_node_cover"]
    report = tangent_absolute(doc.system(), doc.symplectic())
    assert report.dim == 4 and report.symplectic


def test_adjunction_violation_rejected(documents):
    doc = documents["triple_node_cover"]
    data = doc.symplectic()
    bad_u = dict(data.u_lambda)
    bad_u["e3"] = data.u_lambda["e1"]
    bad = SymplecticData(data.j_matrix, data.iota, bad_u, data.minimal)
    system = doc.system()
    assert any(v.rule == "adjunction" for v in validate_symplectic(bad, system))
    with pytest.raises(AimError, match="adjunction"):
        tangent_absolute(system, bad)


def test_minimal_requires_square_invertible(documents):
    doc = documents["minimal_stratum_parallel"]
    data = doc.symplectic()
    system = doc.system()
    assert validate_symplectic(data, system) == []
    shrunk = SymplecticData(data.j_matrix, data.iota[:5] + (data.iota[0],), data.u_lambda, True)
    assert any(v.rule == "invertible" for v in validate_symplectic(shrunk, system))


def _lemma_bound_oracle(system, data, cls: CylinderClass) -> int:
    """Generic subspace route: intersect the full tangent space with the
    coordinate-supported functionals, then push forward and take the rank."""
    columns = system.basis.columns()
    width = len(columns)
    constraints = [eq.cycle.to_vector() for eq in system.rref_rows]
    constraints += [rel.to_vector() for rel in system.relations]
    constraints += [f.to_vector() for f in ratio_forms(system)]
    identity = [[ONE if i == j else ZERO for j in range(width)] for i in range(width)]
    tangent = linalg.nullspace(constraints, width) if constraints else identity
    support = []
    for eid, name in cls.cross_curves:
        vec = [ZERO] * width
        vec[columns.index(("b", name))] = ONE
        support.append(vec)
    if not tangent or not support:
        return 0
    stacked_rows = []
    for coord in range(width):
        stacked_rows.append([v[coord] for v in tangent] + [-w[coord] for w in support])
    meet = []
    for solution in linalg.nullspace(stacked_rows, len(tangent) + len(support)):
        vec = [ZERO] * width
        for c, v in zip(solution[: len(tangent)], tangent):
            if c:
                vec = vec_add(vec, vec_scale(c, v))
        meet.append(vec)
    images = []
    for v in meet:
        images.append(
            [sum((a * b for a, b in zip(row.to_vector(), v)), start=ZERO) for row in data.iota]
        )
    return linalg.rank(images)


def test_lemma_bound_fixture(documents):
    doc = documents["minimal_stratum_parallel"]
    system = doc.system()
    data = doc.symplectic()
    cls = CylinderClass.from_edge(system, "e1")
    report = lemma_bound(system, data, cls)
    assert report.dim == 1 and report.bound_satisfied
    assert _lemma_bound_oracle(system, data, cls) == report.dim


def test_lemma_bound_oracle_randomized():
    r = rng(51)
    for trial in range(30):
        genus = r.choice([2, 3])
        system, data = aim_parallel_fixture(r, genus)
        cls = CylinderClass.from_edge(system, "e1")
        report = lemma_bound(system, data, cls)
        assert report.bound_satisfied
        assert report.dim == _lemma_bound_oracle(system, data, cls)


def test_lemma_bound_singleton_class():
    # One cylinder, no equations: the lone proportionality-free deformation
    # direction gives dimension exactly 1.
    graph = loop_graph(1)
    basis = adapted_basis_for(graph, noncrossing_per_level=1)
    system = EquationSystem(basis, [], real=True)
    width = len(basis.columns())

    def unit(name):
        vec = [ZERO] * width
        vec[basis.columns().index(("b", name))] = ONE
        return Cycle.from_vector(basis, vec)

    data = SymplecticData(
        ((0, 1), (-1, 0)),
        (unit("d_e1"), unit("n0_0")),
        {"e1": (ZERO, ONE)},
        minimal=False,
    )
    cls = CylinderClass.from_edge(system, "e1")
    report = lemma_bound(system, data, cls)
    assert report.dim == 1 and report.bound_satisfied


def test_lemma_bound_gates():
    basis, data = _lagrangian_instance()
    system = EquationSystem(
        basis,
        [Cycle(basis, {"n0_0": ONE}, {}), Cycle(basis, {"n0_2": ONE}, {})],
    )
    cls = CylinderClass((), ())
    with pytest.raises(AimError, match="not symplectic"):
        lemma_bound(system, data, cls)

    r = rng(52)
    parallel_system, parallel_data = aim_parallel_fixture(r, 2)
    stripped = EquationSystem(
        parallel_system.basis,
        parallel_system.equations,
        real=True,
        minimal_stratum=True,
        relations=parallel_system.relations,
    )
    cls = CylinderClass.from_edge(stripped, "e1")
    with pytest.raises(AimError, match="not declared parallel"):
        lemma_bound(stripped, parallel_data, cls)


def test_pairwise_cross_witness_found(documents):
    doc = documents["minimal_stratum_parallel"]
    system = doc.system()
    data = doc.symplectic()
    direct = pairwise_cross_witness(system, data, "e1", "e2")
    assert direct.witness is not None
    assert hor_support(direct.witness) == {"e1", "e2"}
    chained = pairwise_cross_witness(system, data, "e1", "e3")
    assert chained.witness is not None
    assert hor_support(chained.witness) == {"e1", "e3"}


def test_pairwise_cross_witness_negative(documents):
    doc = documents["triple_node_cover"]
    system = doc.system()
    with pytest.raises(AimError, match="minimal stratum"):
        pairwise_cross_witness(system, None, "e1", "e2")
    forced = EquationSystem(
        system.basis,
        system.equations,
        real=system.real,
        minimal_stratum=True,
        relations=system.relations,
        ratios=system.ratios,
    )
    result = pairwise_cross_witness(forced, None, "e1", "e2")
    assert result.witness is None
    assert "does not model" in result.diagnostic


def test_pairwise_circum_identity_and_telescoping():
    r = rng(53)
    system, data = aim_parallel_fixture(r, 3)
    # A two-node row decomposes as itself.
    row = next(eq.cycle for eq in system.rref_rows if eq.cycle.is_lambda_only())
    parts = pairwise_circum_decompose(row, system, data)
    total = system.basis.zero()
    for part in parts:
        total = total + part
        assert len(part.lam) <= 2 and not part.coeffs
    assert (total - row).is_zero()
    # A telescoped combination comes back as a sum of two-node forms.
    basis = system.basis
    q1, q2 = system.ratios.ratio("e1", "e2"), system.ratios.ratio("e2", "e3")
    combo = Cycle(basis, {}, {"e1": ONE, "e3": GaussianRational(-q1 * q2)})
    parts = pairwise_circum_decompose(combo, system, data)
    total = system.basis.zero()
    for part in parts:
        total = total + part
        assert len(part.lam) <= 2
        assert set(part.lam) <= {"e1", "e3"}
    assert (total - combo).is_zero()


def test_pairwise_circum_refusal(documents):
    doc = documents["double_cover_relation"]
    system = doc.system()
    basis = doc.basis
    target = Cycle(
        basis, {}, {"l1": GaussianRational(2), "l2": GaussianRational(2), "l3": GaussianRational(2)}
    )
    assert system.extended_span_contains(target)
    with pytest.raises(AimError, match="minimal stratum"):
        pairwise_circum_decompose(target, system)
    # Brute force: no combination of two-node forms in the extended span hits
    # the target, so the refusal is genuine and not an artifact of the gate.
    forced = EquationSystem(
        basis,
        system.equations,
        real=system.real,
        minimal_stratum=True,
        relations=system.relations,
        ratios=system.ratios,
    )
    with pytest.raises(AimError, match="no pairwise decomposition|stuck"):
        pairwise_circum_decompose(target, forced)


def test_pairwise_circum_rejects_non_lambda():
    r = rng(54)
    system, data = aim_parallel_fixture(r, 2)
    with pytest.raises(AimError, match="combination of horizontal"):
        pairwise_circum_decompose(system.rref_rows[0].cycle, system, data)


def test_at_most_two_decompose(documents):
    doc = documents["minimal_stratum_parallel"]
    system = doc.system()
    data = doc.symplectic()
    basis = doc.basis
    wide = Cycle(
        basis,
        {"d1": GaussianRational(2), "d2": GaussianRational(-1), "d3": GaussianRational(-1)},
        {},
    )
    assert system.extended_span_contains(wide)
    parts = at_most_two_decompose(wide, system, data)
    total = basis.zero()
    for part in parts:
        assert len(hor_support(part)) <= 2
        total = total + part
    assert (total - wide).is_zero()

    narrow = system.rref_rows[0].cycle
    parts = at_most_two_decompose(narrow, system, data)
    assert parts == [narrow]

    empty = Cycle(basis, {"a1": ONE}, {"e1": -ONE})
    assert system.extended_span_contains(empty)
    parts = at_most_two_decompose(empty, system, data)
    total = basis.zero()
    for part in parts:
        total = total + part
    assert (total - empty).is_zero()


def test_at_most_two_requires_flag(documents):
    system = documents["triple_node_cover"].system()
    with pytest.raises(AimError, match="minimal stratum"):
        at_most_two_decompose(system.rref_rows[0].cycle, system)


def test_at_most_two_decompose_limit(documents):
    doc = documents["minimal_stratum_parallel"]
    system = doc.system()
    data = doc.symplectic()
    narrow = system.rref_rows[0].cycle
    n_horizontal = len(system.graph.horizontal_edges)
    with pytest.raises(LimitError, match=f"{n_horizontal} horizontal edges exceed"):
        at_most_two_decompose(narrow, system, data, limit=n_horizontal - 1)
    assert at_most_two_decompose(narrow, system, data, limit=n_horizontal) == [narrow]


# -- the tangent pipeline against the oracle, and what is computed once ---------


def _change_absolute_basis(data: SymplecticData, r) -> SymplecticData:
    """The same absolute data in the basis x' = P x, for a random unimodular P.

    J becomes P J P^T, iota becomes P iota, and the lambda images become
    P^-T u, so the adjunction still holds while J and its inverse are dense.
    """
    n = data.dim
    lower = [[1 if a == b else (r.randint(-2, 2) if b < a else 0) for b in range(n)] for a in range(n)]
    upper = [[1 if a == b else (r.randint(-2, 2) if b > a else 0) for b in range(n)] for a in range(n)]
    return _in_absolute_basis(data, [[sum(lower[a][k] * upper[k][b] for k in range(n)) for b in range(n)] for a in range(n)])


def _in_absolute_basis(data: SymplecticData, p) -> SymplecticData:
    """The same absolute data in the basis x' = P x, for an integer P invertible over Q."""
    n = data.dim
    j = data.j_matrix
    j_new = tuple(
        tuple(
            sum(p[a][c] * j[c][d] * p[b][d] for c in range(n) for d in range(n)) for b in range(n)
        )
        for a in range(n)
    )
    basis = data.iota[0].basis
    iota = []
    for a in range(n):
        total = basis.zero()
        for c in range(n):
            if p[a][c]:
                total = total + data.iota[c].scale(p[a][c])
        iota.append(total)
    p_inv = invert([[GaussianRational(x) for x in row] for row in p])
    p_inv_t = [[p_inv[b][a] for b in range(n)] for a in range(n)]
    u_lambda = {eid: tuple(linalg.matvec(p_inv_t, u)) for eid, u in data.u_lambda.items()}
    return SymplecticData(j_new, tuple(iota), u_lambda, data.minimal)


def _singular_variants(data: SymplecticData) -> list[SymplecticData]:
    """J with its first row and column zeroed (still skew, now singular), and J = 0."""
    n = data.dim
    cut = tuple(
        tuple(0 if 0 in (a, b) else x for b, x in enumerate(row)) for a, row in enumerate(data.j_matrix)
    )
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return [SymplecticData(j, data.iota, data.u_lambda, data.minimal) for j in (cut, zero)]


def _assert_gates_agree(data, system):
    problems = validate_symplectic(data, system)
    assert problems == oracle_aim.validate_symplectic(data, system)
    assert [str(v) for v in problems] == [str(v) for v in oracle_aim.validate_symplectic(data, system)]
    return problems


def test_determinant_gate_matches_the_inverse_gate_on_fixtures(documents):
    checked = 0
    for name, doc in sorted(documents.items()):
        data = doc.symplectic()
        if data is None:
            continue
        system = doc.system()
        assert _assert_gates_agree(data, system) == [], name
        for singular in _singular_variants(data):
            problems = _assert_gates_agree(singular, system)
            assert "nondegenerate" in [v.rule for v in problems], name
        checked += 1
    assert checked == 2


def test_determinant_gate_on_empty_and_singular_j():
    basis, data = _lagrangian_instance()
    system = EquationSystem(basis, [])
    assert _assert_gates_agree(SymplecticData((), (), {}, False), system) == []
    no_j = SymplecticData((), data.iota, {}, False)
    assert [v.rule for v in _assert_gates_agree(no_j, system)] == ["shape"]
    for singular in _singular_variants(data):
        assert [v.rule for v in _assert_gates_agree(singular, system)] == ["nondegenerate"]
    # A nonsingular J whose rows are not unimodular: det 4.
    doubled = tuple(tuple(2 * x for x in row) for row in data.j_matrix)
    assert _assert_gates_agree(SymplecticData(doubled, data.iota, {}, False), system) == []


@pytest.mark.parametrize("g", range(2, 13))
def test_determinant_gate_matches_the_inverse_gate_on_bench_cylinders(g):
    doc = cylinders_document(g)
    data, system = doc.symplectic(), doc.system()
    assert _assert_gates_agree(data, system) == []
    for singular in _singular_variants(data):
        problems = _assert_gates_agree(singular, system)
        assert problems and problems[0].rule == "nondegenerate"


HALF_U_VIOLATIONS = [
    "adjunction (0, e1): adjunction: <x_0, u(lambda)> = 1/2 but <iota(x_0), lambda> = 1",
    "adjunction (1, e1): adjunction: <x_1, u(lambda)> = -1/2 but <iota(x_1), lambda> = 0",
    "adjunction (2, e1): adjunction: <x_2, u(lambda)> = 1/2 but <iota(x_2), lambda> = 0",
    "adjunction (3, e1): adjunction: <x_3, u(lambda)> = -1/2 but <iota(x_3), lambda> = 0",
    "adjunction (4, e1): adjunction: <x_4, u(lambda)> = 1/2 but <iota(x_4), lambda> = 0",
    "adjunction (5, e1): adjunction: <x_5, u(lambda)> = -1/2 but <iota(x_5), lambda> = 0",
]


def test_adjunction_text_with_a_non_unit_denominator(tmp_path, capsys, fixture_dir):
    doc = json.loads((fixture_dir / "minimal_stratum_parallel.json").read_text())
    doc["symplectic"]["u_lambda"]["e1"] = ["1/2"] * 6
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "".join(
        [f"{line}\n" for line in ["violations: 6", *[f"  {v}" for v in HALF_U_VIOLATIONS]]]
    )
    assert main(["validate", str(path), "--json"]) == 1
    payload = {"command": "validate", "violations": HALF_U_VIOLATIONS}
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _gaussian_entry(r) -> GaussianRational:
    return GaussianRational(r.randint(-3, 3), r.randint(-2, 2)) / r.choice([1, 2, 3, 6, 1 + I, 2 - I])


def _scaled(data: SymplecticData, c: GaussianRational) -> SymplecticData:
    """iota and every lambda image times c: the pairings scale alike, so the adjunction holds."""
    iota = tuple([x.scale(c) for x in data.iota])
    u_lambda = {eid: tuple([c * x for x in u]) for eid, u in data.u_lambda.items()}
    return SymplecticData(data.j_matrix, iota, u_lambda, data.minimal)


def test_adjunction_gate_matches_the_oracle_on_gaussian_u(documents):
    r = rng(71)
    instances = [(doc.symplectic(), doc.system()) for _, doc in sorted(documents.items()) if doc.symplectic()]
    instances += [(doc.symplectic(), doc.system()) for doc in map(cylinders_document, (2, 5, 9))]
    violated = 0
    for data, system in instances:
        c = GaussianRational(r.choice([1, 2, 5]), r.choice([1, -3])) / r.choice([2, 3, 1 + I])
        scaled = _scaled(data, c)
        assert _assert_gates_agree(scaled, system) == []
        for _ in range(4):
            u_lambda = dict(scaled.u_lambda)
            for eid in r.sample(sorted(u_lambda), r.randint(1, len(u_lambda))):
                u = list(u_lambda[eid])
                for k in r.sample(range(len(u)), r.randint(1, len(u))):
                    u[k] = r.choice([u[k] + _gaussian_entry(r), _gaussian_entry(r), u[k] / 2])
                u_lambda[eid] = tuple(u)
            variant = SymplecticData(scaled.j_matrix, scaled.iota, u_lambda, scaled.minimal)
            violated += bool(_assert_gates_agree(variant, system))
    assert violated >= 15


def test_adjunction_gate_reads_pairings_without_pair_calls(documents, monkeypatch):
    r = rng(72)
    instances = [(doc.symplectic(), doc.system()) for _, doc in sorted(documents.items()) if doc.symplectic()]
    instances += [(doc.symplectic(), doc.system()) for doc in map(cylinders_document, (2, 5, 9))]
    cases = []
    for data, system in instances:
        cases.append((data, system))
        for _ in range(4):
            iota = list(data.iota)
            for a in r.sample(range(len(iota)), r.randint(1, 2)):
                vector = list(iota[a].vector)
                for col in r.sample(range(len(system.basis.elements)), 2):
                    vector[col] = r.choice([vector[col] + _gaussian_entry(r), _gaussian_entry(r), vector[col] / 3])
                iota[a] = Cycle.from_vector(system.basis, vector)
            cases.append((SymplecticData(data.j_matrix, tuple(iota), data.u_lambda, data.minimal), system))
    expected = [[str(v) for v in oracle_aim.validate_symplectic(data, system)] for data, system in cases]
    assert sum(map(bool, expected)) >= 15

    def refuse(*args):
        raise AssertionError("pair called by the gate")

    monkeypatch.setattr(aim, "pair", refuse)
    monkeypatch.setattr(homology, "pair", refuse)
    assert [[str(v) for v in validate_symplectic(data, system)] for data, system in cases] == expected


def _mutated_j(j_matrix, r) -> list[tuple[tuple[int, ...], ...]]:
    """Random skew J (dense, then sparse), J with one or two entries broken, J with a
    row and its column zeroed, and J with one row replaced by a multiple of another."""
    n = len(j_matrix)
    out = []
    for density in (1.0, 0.1):
        m = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if r.random() < density:
                    m[a][b] = r.randint(-2, 2)
                    m[b][a] = -m[a][b]
        out.append(m)
    for broken in (1, 2):
        m = [list(row) for row in j_matrix]
        for _ in range(broken):
            m[r.randrange(n)][r.randrange(n)] += r.choice([-1, 1])
        out.append(m)
    m = [list(row) for row in j_matrix]
    a = r.randrange(n)
    m[a] = [0] * n
    for row in m:
        row[a] = 0
    out.append(m)
    m = [list(row) for row in j_matrix]
    m[0] = [3 * x for x in m[-1]]
    out.append(m)
    return [tuple([tuple(row) for row in m]) for m in out]


def test_determinant_gate_matches_the_inverse_gate_on_mutated_j():
    r = rng(71)
    rules = set()
    for g in (2, 3, 4, 6):
        doc = cylinders_document(g)
        data, system = doc.symplectic(), doc.system()
        for _ in range(4):
            for j_matrix in _mutated_j(data.j_matrix, r):
                variant = SymplecticData(j_matrix, data.iota, data.u_lambda, data.minimal)
                rules.update(v.rule for v in _assert_gates_agree(variant, system))
    assert {"skew", "nondegenerate", "adjunction"} <= rules


def test_tangent_matches_oracle_on_fixtures(documents):
    checked = 0
    for name, doc in sorted(documents.items()):
        data = doc.symplectic()
        if data is None:
            continue
        system = doc.system()
        assert tangent_absolute(system, data) == oracle_aim.tangent_absolute(system, data), name
        checked += 1
    assert checked == 2


def test_tangent_matches_oracle_on_parallel_classes():
    r = rng(55)
    for genus in range(2, 7):
        system, data = aim_parallel_fixture(r, genus)
        changed = _change_absolute_basis(data, r)
        for variant in (data, changed):
            assert validate_symplectic(variant, system) == []
            report = tangent_absolute(system, variant)
            assert report.symplectic
            assert report == oracle_aim.tangent_absolute(system, variant), genus


@pytest.mark.parametrize("g", range(2, 13))
def test_tangent_matches_oracle_on_bench_cylinders(g):
    # In another absolute basis J is dense, at the sizes the benchmark runs.
    doc = cylinders_document(g)
    system = doc.system()
    for variant in (doc.symplectic(), _change_absolute_basis(doc.symplectic(), rng(56 + g))):
        assert validate_symplectic(variant, system) == []
        assert tangent_absolute(system, variant) == oracle_aim.tangent_absolute(system, variant), g


def _monomial_basis_change(j_matrix, r) -> list[list[int]]:
    """A random permutation matrix with some rows doubled, at most one of each Darboux pair:
    it keeps a monomial J of +-1 entries monomial, with entries +-1 and +-2."""
    n = len(j_matrix)
    doubled = {a for a, row in enumerate(j_matrix) if a < [bool(x) for x in row].index(True) and r.random() < 0.7}
    order = r.sample(range(n), n)
    return [[(1 + (order[a] in doubled)) * (b == order[a]) for b in range(n)] for a in range(n)]


@pytest.mark.parametrize("g", [2, 5, 9])
def test_tangent_reads_a_monomial_j_like_the_oracle(monkeypatch, documents, g):
    r = rng(57 + g)
    instances = [(doc.symplectic(), doc.system()) for _, doc in sorted(documents.items()) if doc.symplectic()]
    doc = cylinders_document(g)
    instances.append((doc.symplectic(), doc.system()))
    for data, system in instances:
        monomial = [_in_absolute_basis(data, _monomial_basis_change(data.j_matrix, r)) for _ in range(3)]
        dense = [_change_absolute_basis(data, r) for _ in range(2)]
        assert all(sum(map(bool, row)) == 1 for variant in monomial for row in variant.j_matrix)
        assert {abs(x) for variant in monomial for row in variant.j_matrix for x in row} == {0, 1, 2}
        solves = _count_j_solves(monkeypatch, [variant.j_matrix for variant in monomial + dense])
        for variant in [data, *monomial, *dense]:
            assert validate_symplectic(variant, system) == []
            assert tangent_absolute(system, variant) == oracle_aim.tangent_absolute(system, variant)
        # Only the J with entries off one per row and column is solved by a reduction.
        assert len(solves) == len(dense)
        monkeypatch.undo()


def test_tangent_matches_oracle_when_not_symplectic():
    basis, data = _lagrangian_instance()
    system = EquationSystem(
        basis,
        [Cycle(basis, {"n0_0": ONE}, {}), Cycle(basis, {"n0_2": ONE}, {})],
    )
    assert tangent_absolute(system, data) == oracle_aim.tangent_absolute(system, data)


def test_tangent_matches_oracle_on_random_symplectic_systems():
    # Random Q(i) combinations of a parallel class's rows, some rows left out, in a dense
    # absolute basis: the tangent image need not be symplectic, and the kernel read off
    # the extended rows must still be the one the oracle reduces afresh.
    r = rng(57)
    shapes = set()
    for genus in range(2, 7):
        for _ in range(3):
            base, data = aim_parallel_fixture(r, genus)
            rows = r.sample(base.equations, r.randint(1, len(base.equations)))
            rows.append(rows[0].scale(_gaussian_entry(r) or ONE) + rows[-1].scale(GaussianRational(1, r.randint(-2, 2))))
            system = EquationSystem(
                base.basis, rows, minimal_stratum=True, relations=base.relations[: r.randint(0, genus)],
                ratios=base.ratios,
            )
            variant = _change_absolute_basis(data, r)
            report = tangent_absolute(system, variant)
            assert report == oracle_aim.tangent_absolute(system, variant), genus
            shapes.add(report.symplectic)
    assert shapes == {True, False}


def _skew_breaks(j_matrix, r) -> list[tuple]:
    """J with one entry broken below, above and on the diagonal, with two breaks right of
    the diagonal in one row (the first failing row), and J held as lists; the gate must
    name the first break in row-major order."""
    n = len(j_matrix)
    out = []
    for a, b in [(r.randrange(1, n), 0), (0, r.randrange(1, n)), (r.randrange(n),) * 2]:
        m = [list(row) for row in j_matrix]
        m[a][b] += r.choice([-1, 1, 2])
        out.append(m)
    m = [list(row) for row in j_matrix]
    a = r.randrange(n - 2)
    for b in r.sample(range(a + 1, n), 2):
        m[a][b] += 1
    out.append(m)
    return [tuple([tuple(row) for row in m]) for m in out] + [[list(row) for row in j_matrix]]


def test_sparse_gate_matches_the_oracle_on_every_kind_of_break(documents):
    r = rng(73)
    instances = [(doc.symplectic(), doc.system()) for _, doc in sorted(documents.items()) if doc.symplectic()]
    instances += [(doc.symplectic(), doc.system()) for doc in map(cylinders_document, (2, 5, 9))]
    rules = []
    for data, system in instances:
        n, width = data.dim, len(system.basis.columns())
        variants = [SymplecticData(j, data.iota, data.u_lambda, data.minimal) for j in _skew_breaks(data.j_matrix, r)]
        for _ in range(3):
            # Complex u, some images zeroed; iota rows perturbed on basis and on lambda columns.
            u_lambda = dict(data.u_lambda)
            for eid in r.sample(sorted(u_lambda), r.randint(1, len(u_lambda))):
                u_lambda[eid] = r.choice([(ZERO,) * n, tuple([x * (1 + I) for x in u_lambda[eid]])])
            iota = list(data.iota)
            for a in r.sample(range(n), r.randint(1, n)):
                vector = list(iota[a].vector)
                for col in r.sample(range(width), r.randint(1, 3)):
                    vector[col] = r.choice([ZERO, vector[col] + _gaussian_entry(r), _gaussian_entry(r)])
                iota[a] = Cycle.from_vector(system.basis, vector)
            variants += [
                SymplecticData(data.j_matrix, data.iota, u_lambda, data.minimal),
                SymplecticData(data.j_matrix, tuple(iota), data.u_lambda, data.minimal),
                SymplecticData(data.j_matrix, tuple(iota), u_lambda, data.minimal),
            ]
        for variant in variants:
            rules += [v.rule for v in _assert_gates_agree(variant, system)]
    assert rules.count("skew") == 4 * len(instances)
    assert rules.count("adjunction") >= 50


def test_aim_pairwise_cross_reduces_five_times(monkeypatch, capsys, tmp_path):
    path = write_cylinders_document(tmp_path / "cylinders.json", 9)
    eliminations = _count_calls(monkeypatch, linalg.rref)
    assert main(["aim", path, "--pairwise-cross", "e01", "e02"]) == 0
    capsys.readouterr()
    # The tangent image reads its kernel off the cached extended rows (10 before) and
    # J^-1 off the monomial J, and three ranks are read off leading columns (9 before).
    assert len(eliminations) == 5


def _rebind(monkeypatch, original, replacement) -> None:
    """Point every ``strata`` module binding of ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "strata" or mod_name.startswith("strata."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _count_calls(monkeypatch, original) -> list:
    """Count calls to ``original`` through every ``strata`` module binding of it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    _rebind(monkeypatch, original, counting)
    return calls


def _count_j_solves(monkeypatch, j_matrices) -> list:
    """``linalg.rref`` calls, through every ``strata`` binding, whose first n columns are one
    of the given J over Q(i): the tangent image reads J^-1 w off one such reduction."""
    targets = [[[GaussianRational(x) for x in row] for row in j] for j in j_matrices]
    original = linalg.rref
    solves = []

    def counting(rows):
        rows = list(rows)
        for j in targets:
            if len(rows) == len(j) and all(row[: len(j)] == j_row for row, j_row in zip(rows, j)):
                solves.append(rows)
        return original(rows)

    _rebind(monkeypatch, original, counting)
    return solves


def test_aim_verdict_validates_and_inverts_once(monkeypatch, capsys, fixture_dir):
    path = fixture_dir / "minimal_stratum_parallel.json"
    solves = _count_j_solves(monkeypatch, [load_document(str(path)).symplectic().j_matrix])
    validations = _count_calls(monkeypatch, symplectic.validate_symplectic)
    eliminations = _count_calls(monkeypatch, linalg.rref)
    code = main(["aim", str(path)])
    assert code == 0
    assert "bound satisfied" in capsys.readouterr().out
    assert len(validations) == 1
    assert solves == []  # J is monomial: J^-1 w is read off its entries (1 solve before)
    # The class's lemma_bound reuses the handler's tangent image (21 before), and
    # three ranks are read off leading columns (8 before).
    assert len(eliminations) <= 4


def test_document_symplectic_built_once(fixture_dir):
    doc = load_document(str(fixture_dir / "minimal_stratum_parallel.json"))
    assert doc.symplectic() is doc.symplectic()
    assert load_document(str(fixture_dir / "three_node_pinch.json")).symplectic() is None


def test_one_data_two_systems_get_their_own_results():
    basis, data = _lagrangian_instance()
    full = EquationSystem(basis, [])
    cut = EquationSystem(
        basis,
        [Cycle(basis, {"n0_0": ONE}, {}), Cycle(basis, {"n0_2": ONE}, {})],
    )
    flagged = EquationSystem(basis, [], minimal_stratum=True)
    assert tangent_absolute(full, data) is tangent_absolute(full, data)
    for _ in range(2):
        assert tangent_absolute(full, data).dim == 4
        assert tangent_absolute(cut, data).dim == 2
        assert symplectic_problems(data, full) == []
        assert [v.rule for v in symplectic_problems(data, flagged)] == ["flags"]
        with pytest.raises(AimError, match="minimal"):
            tangent_absolute(flagged, data)
    # The memo holds systems weakly: a dropped system takes its entries along.
    probe = weakref.ref(flagged)
    del flagged
    gc.collect()
    assert probe() is None


def test_rejected_data_raises_on_every_call(documents):
    doc = documents["triple_node_cover"]
    data = doc.symplectic()
    bad_u = dict(data.u_lambda)
    bad_u["e3"] = data.u_lambda["e1"]
    bad = SymplecticData(data.j_matrix, data.iota, bad_u, data.minimal)
    system = doc.system()
    cls = CylinderClass.from_edge(system, sorted(system.graph.horizontal_edges)[0])
    for _ in range(3):
        with pytest.raises(AimError, match="adjunction"):
            tangent_absolute(system, bad)
        with pytest.raises(AimError, match="adjunction"):
            lemma_bound(system, bad, cls)
    singular = SymplecticData(((0, 0), (0, 0)), data.iota[:2], {}, False)
    for _ in range(2):
        with pytest.raises(AimError, match="singular"):
            tangent_absolute(system, singular)


# -- pair forms read off residuals modulo the extended rows ---------------------------


def _node_lists(system) -> list[list[str]]:
    horizontal = sorted(system.graph.horizontal_edges)
    return [[], horizontal[:1], horizontal[:2], horizontal[-3:], horizontal, horizontal[1::2] + ["not-an-edge"]]


def _usable(pair, nodes) -> bool:
    """Whether a decomposition of an input on ``nodes`` reads the pair's forms."""
    return len(set(pair) & set(nodes)) >= min(2, len(set(nodes)))


def _assert_candidates_match(system) -> list:
    """For every node list, the annihilator search's "a form exists" and its pairs, in
    order, each form a nonzero multiple of the search's form on that pair.  The search
    in turn gives the per-pair oracle's forms of the usable pairs, in order and value."""
    everything = oracle_aim.pair_form_candidates(system, [])
    found = []
    for nodes in _node_lists(system):
        exists, candidates = aim._pair_form_candidates(system, nodes)
        expected_exists, expected = oracle_aim.annihilator_pair_forms(system, nodes)
        assert expected_exists == bool(everything), nodes
        assert expected == [(ab, form) for ab, form in everything if _usable(ab, nodes)], nodes
        assert exists == expected_exists, nodes
        assert [ab for ab, _ in candidates] == [ab for ab, _ in expected], nodes
        for (_, form), (_, oracle_form) in zip(candidates, expected):
            e = next(iter(oracle_form.lam))
            ratio = form.lam.get(e, ZERO) / oracle_form.lam[e]
            assert ratio and form == oracle_form.scale(ratio), nodes
        found.extend(candidates)
    return found


def test_pair_forms_match_the_per_pair_oracle_on_fixtures(documents):
    for name, doc in sorted(documents.items()):
        _assert_candidates_match(doc.system())


def test_pair_forms_match_the_per_pair_oracle_on_parallel_classes():
    r = rng(61)
    for genus in range(2, 9):
        system, _ = aim_parallel_fixture(r, genus)
        assert _assert_candidates_match(system), genus


@pytest.mark.parametrize("g", range(2, 13))
def test_pair_forms_match_the_per_pair_oracle_on_bench_cylinders(g):
    assert _assert_candidates_match(cylinders_document(g).system())


def _lambda_system(n_horizontal: int, rows: list[dict], relations=(), seed_basis=None, minimal_stratum=False):
    basis = adapted_basis_for(loop_graph(n_horizontal), seed_basis)
    cycles = [Cycle(basis, row.get("b", {}), row.get("l", {})) for row in rows]
    relations = [Cycle(basis, {}, lam) for lam in relations]
    return EquationSystem(basis, cycles, relations=relations, minimal_stratum=minimal_stratum)


I = GaussianRational(0, 1)


def _supports(system) -> list[tuple[tuple[str, str], list[str]]]:
    _assert_candidates_match(system)
    return [(ab, sorted(form.lam)) for ab, form in aim._pair_form_candidates(system, [])[1]]


def test_pair_forms_when_annihilator_columns_vanish():
    # lambda[e1] and lambda[e2] in the span: W's columns e1 and e2 are zero, e3's is not.
    both = _lambda_system(3, [{"l": {"e1": ONE}}, {"l": {"e2": 2 + I}}])
    assert _supports(both) == [
        (("e1", "e2"), ["e1"]), (("e1", "e2"), ["e2"]), (("e1", "e3"), ["e1"]), (("e2", "e3"), ["e2"]),
    ]
    # One zero column (e2) beside nonzero ones, two of them parallel (e3, e4).
    one = _lambda_system(
        4, [{"l": {"e2": ONE}}, {"l": {"e3": 3, "e4": -I}}, {"b": {"d_e1": ONE}, "l": {"e1": 2}}]
    )
    assert _supports(one) == [
        (("e1", "e2"), ["e2"]), (("e2", "e3"), ["e2"]), (("e2", "e4"), ["e2"]), (("e3", "e4"), ["e3", "e4"]),
    ]
    # Every pure-lambda vector is in the span: W is empty, so every column is zero.
    full = _lambda_system(3, [{"l": {"e1": ONE, "e2": ONE}}, {"l": {"e2": I, "e3": -1}}, {"l": {"e3": 5}}])
    assert len(_supports(full)) == 6
    # A span with no pure-lambda vector has no forms.
    assert _supports(_lambda_system(2, [{"b": {"d_e1": ONE}, "l": {"e1": ONE}}])) == []


def test_pair_forms_match_the_per_pair_oracle_on_random_systems():
    r = rng(62)
    units = [ONE, -ONE, I, 1 + I, GaussianRational(2), GaussianRational(1, 3) / 2]
    kinds = set()
    for trial in range(60):
        h = r.randint(2, 6)
        edges = [f"e{k + 1}" for k in range(h)]
        rows = []
        for _ in range(r.randint(1, h + 2)):
            support = r.sample(edges, min(h, r.choice([1, 1, 2, 2, 3])))
            row = {"l": {e: r.choice(units) for e in support}}
            if r.random() < 0.3:
                row["b"] = {f"d_{r.choice(edges)}": r.choice(units)}
            rows.append(row)
        relations = [
            {e: GaussianRational(r.randint(-2, 2) or 1) for e in r.sample(edges, 2)} for _ in range(r.randint(0, 2))
        ]
        system = _lambda_system(h, rows, relations, seed_basis=r)
        _assert_candidates_match(system)
        sizes: dict[tuple[str, str], list[int]] = {}
        for ab, form in aim._pair_form_candidates(system, [])[1]:
            sizes.setdefault(ab, []).append(len(form.lam))
        kinds.update(tuple(v) for v in sizes.values())
    # Both of W's columns zero, one zero, and both nonzero and parallel.
    assert {(1, 1), (1,), (2,)} <= kinds


def _cancelled_through(forms: list[Cycle], r) -> Cycle | None:
    """Two forms on different pairs sharing a node, combined so that node cancels, or None."""
    pairs = [(f, g) for f, g in combinations(forms, 2) if set(f.lam) & set(g.lam) and set(f.lam) != set(g.lam)]
    if not pairs:
        return None
    f, g = r.choice(pairs)
    o = r.choice(sorted(set(f.lam) & set(g.lam)))
    return f.scale(g.lam[o]) - g.scale(f.lam[o])


def test_pairwise_decomposition_stays_on_the_target_nodes():
    # Any combination of pair forms, also one cancelled through a shared outside
    # node or on one node, splits into forms on the target's own nodes that sum
    # to it: the forms the solve over every pair gives.
    r = rng(64)
    units = [ONE, -ONE, I, 1 + I, GaussianRational(2), GaussianRational(1, 3) / 2]
    cancelled = single = 0
    for trial in range(40):
        h = r.randint(3, 7)
        edges = [f"e{k + 1}" for k in range(h)]
        supports = [r.sample(edges, r.choice([2, 2, 3])) for _ in range(r.randint(1, h))]
        rows = [{"l": {e: r.choice(units) for e in support}} for support in supports]
        system = _lambda_system(h, rows, seed_basis=r, minimal_stratum=True)
        forms = [form for _, form in aim._pair_form_candidates(system, [])[1]]
        if not forms:
            continue
        targets = [form.scale(r.choice(units)) for form in forms if len(form.lam) == 1]
        single += len(targets)
        for _ in range(6):
            target = system.basis.zero()
            for form in r.sample(forms, r.randint(1, min(3, len(forms)))):
                target = target + form.scale(r.choice(units))
            through = _cancelled_through(forms, r)
            if through is not None and r.random() < 0.5:
                target, cancelled = target.scale(r.choice([ZERO, ONE])) + through, cancelled + 1
            targets.append(target)
        for target in targets:
            parts = pairwise_circum_decompose(target, system)
            assert parts == oracle_aim.pairwise_circum_decompose(target, system)
            total = system.basis.zero()
            for part in parts:
                assert set(part.lam) <= set(target.lam) and not part.coeffs
                total = total + part
            assert total == target
    assert cancelled > 20 and single > 10


NO_FORMS = "recombination stuck: the span contains no two-node period forms"
NOT_A_COMBINATION = (
    "recombination stuck: the input is not a combination of two-node period forms;"
    " no pairwise decomposition exists in this span"
)


def _refusal(target: Cycle, system) -> str:
    with pytest.raises(AimError) as refused:
        pairwise_circum_decompose(target, system)
    return str(refused.value)


def test_pairwise_refusals_tell_no_forms_from_forms_elsewhere():
    e123 = {"e1": ONE, "e2": ONE, "e3": ONE}
    # The pure span is <e1+e2+e3>: no two-node form anywhere.
    alone = _lambda_system(3, [{"l": e123}], minimal_stratum=True)
    assert _refusal(Cycle(alone.basis, {}, e123), alone) == NO_FORMS
    assert _refusal(alone.basis.zero(), alone) == NO_FORMS
    # The pure span is <e1+e2+e3, e4+e5>: the one form lies outside the input's nodes.
    beside = _lambda_system(5, [{"l": e123}, {"l": {"e4": ONE, "e5": -I}}], minimal_stratum=True)
    assert _refusal(Cycle(beside.basis, {}, e123), beside) == NOT_A_COMBINATION
    assert pairwise_circum_decompose(beside.basis.zero(), beside) == []
    # One horizontal node: no pair at all, though lambda[e1] is in the span.
    single = _lambda_system(1, [{"l": {"e1": ONE}}], minimal_stratum=True)
    assert _refusal(Cycle(single.basis, {}, {"e1": 2 + I}), single) == NO_FORMS


# -- aim --decompose on spans holding pure periods ------------------------------------


def _zero_e3(system):
    system["equations"].append({"coeffs": {}, "lambda": {"e3": "1"}})


def _one_zero(system):
    system["ratios"] = []
    system["equations"][3] = {"coeffs": {}, "lambda": {"e3": "2"}}


def _two_zero(system):
    system["ratios"] = []
    system["equations"][2] = {"coeffs": {}, "lambda": {"e1": "1"}}
    system["equations"][3] = {"coeffs": {}, "lambda": {"e2": "1+i"}}
    system["flags"]["real"] = False


def _no_forms(system):
    system["ratios"] = []
    system["equations"][2] = {"coeffs": {}, "lambda": {"e1": "1", "e2": "-2", "e3": "3"}}
    del system["equations"][3]


_D13 = ("at-most-two-nodes", "d1 - d3", {"d1": "1/1", "d3": "-1/1"}, {})
_D23 = ("at-most-two-nodes", "d2 - d3", {"d2": "1/1", "d3": "-1/1"}, {})
_NOT_SYMPLECTIC = ((1, 0, False), "tangent image is not symplectic; the bound does not apply")
_NO_RATIO = ((2, 2, True), "class is not declared parallel: no ratio linking e1 and e2")


def _lam(text: str, **lam) -> tuple:
    return ("pairwise-circumference", text, {}, lam)


# Copies of minimal_stratum_parallel.json whose extended span holds lambda[e] for
# some edges: the document edit, the tangent (dim, form rank, symplectic), the
# class's skipped bound, and each row's one part or refusal.
DEGENERATE_SPANS = {
    "all_zero": (
        _zero_e3, *_NOT_SYMPLECTIC,
        [_D13, _D23, _lam("lambda[e1]", e1="1/1"), _lam("lambda[e2]", e2="1/1"), _lam("lambda[e3]", e3="1/1")],
    ),
    "one_zero": (
        _one_zero, *_NO_RATIO,
        [_D13, _D23, _lam("lambda[e1] - lambda[e2]", e1="1/1", e2="-1/1"), _lam("lambda[e3]", e3="1/1")],
    ),
    "two_zero": (
        _two_zero, *_NO_RATIO, [_D13, _D23, _lam("lambda[e1]", e1="1/1"), _lam("lambda[e2]", e2="1/1")]
    ),
    "no_forms": (
        _no_forms, (3, 2, False), _NOT_SYMPLECTIC[1], [_D13, _D23, NO_FORMS],
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_SPANS))
def test_aim_decompose_on_degenerate_spans(name, tmp_path, capsys, fixture_dir):
    edit, (dim, form_rank, symplectic), skipped, rows = DEGENERATE_SPANS[name]
    raw = json.loads((fixture_dir / "minimal_stratum_parallel.json").read_text())
    edit(raw["system"])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    header = [
        f"tangent image in absolute homology: dim {dim}, restricted form rank {form_rank},"
        f" {'symplectic' if symplectic else 'NOT symplectic'}",
        f"class {{e1, e2, e3}}: parallel-deformation bound skipped ({skipped})",
    ]
    summary = {
        "bounds": [{"class": ["e1", "e2", "e3"], "skipped": skipped}],
        "command": "aim",
        "tangent": {"dim": dim, "form_rank": form_rank, "symplectic": symplectic},
    }
    out_of_range = f"row index {len(rows)} out of range (rank {len(rows)})"
    for r, row in enumerate([*rows, out_of_range]):
        if isinstance(row, str):
            code, text, report = 1, [f"aim error: {row}"], {"command": "aim", "error": row}
        else:
            kind, part, coeffs, lam = row
            code, text = 0, [*header, f"decomposition of row {r} ({kind}):", f"  {part} = 0"]
            parts = [{"coeffs": coeffs, "lambda": lam}]
            report = summary | {"decompose": {"kind": kind, "parts": parts, "row": r}}
        assert main(["aim", str(path), "--decompose", str(r)]) == code, r
        assert capsys.readouterr() == ("\n".join(text) + "\n", ""), r
        assert main(["aim", str(path), "--decompose", str(r), "--json"]) == code, r
        assert capsys.readouterr() == (json.dumps(report, sort_keys=True, indent=2) + "\n", ""), r


# -- what the symplectic block costs a verdict ----------------------------------------


@pytest.mark.parametrize("g", [12, 16])
def test_aim_decompose_makes_at_most_three_nullspace_calls(monkeypatch, capsys, tmp_path, g):
    path = write_cylinders_document(tmp_path / "cylinders.json", g)
    kernels = _count_calls(monkeypatch, linalg.nullspace)
    assert main(["aim", path, "--decompose", str(g - 1)]) == 0
    assert "(pairwise-circumference)" in capsys.readouterr().out
    # The class's bound; the tangent image reads its kernel off the cached extended rows.
    assert len(kernels) <= 3


@pytest.mark.parametrize("g", [12, 16])
def test_aim_decompose_reads_pair_forms_off_the_cached_extended_rows(monkeypatch, capsys, tmp_path, g):
    path = write_cylinders_document(tmp_path / "cylinders.json", g)
    kernels = _count_calls(monkeypatch, linalg.nullspace)
    eliminations = _count_calls(monkeypatch, linalg.rref)
    own = []
    original = aim._pair_form_candidates

    def recording(system, nodes):
        before = len(kernels), len(eliminations)
        forms = original(system, nodes)
        own.append((len(kernels), len(eliminations)) != before)
        return forms

    monkeypatch.setattr(aim, "_pair_form_candidates", recording)
    assert main(["aim", path, "--decompose", str(g - 1)]) == 0
    assert "(pairwise-circumference)" in capsys.readouterr().out
    # Only the class's bound takes a nullspace (2 before, with the pure-lambda subspace),
    # and the pair forms reduce nothing of their own (7 reductions before).
    assert own == [False]
    assert len(kernels) <= 1
    assert len(eliminations) <= 5


def test_aim_decompose_builds_forms_for_the_one_usable_pair(monkeypatch, capsys, tmp_path):
    path = write_cylinders_document(tmp_path / "cylinders.json", 9)
    built = []
    original = aim._pair_form_candidates

    def recording(system, nodes):
        built.append(original(system, nodes))
        return built[-1]

    monkeypatch.setattr(aim, "_pair_form_candidates", recording)
    assert main(["aim", path, "--decompose", "8", "--json"]) == 0
    capsys.readouterr()
    # The row lies on two of the 9 nodes: 1 pair of 36.
    assert [sorted({ab for ab, _ in forms}) for _, forms in built] == [[("e01", "e09")]]


@pytest.mark.parametrize("command", ["validate", "analyze", "plumb", "aim"])
def test_only_the_tangent_image_builds_gaussian_j(monkeypatch, capsys, tmp_path, fixture_dir, command):
    fixture = fixture_dir / "minimal_stratum_parallel.json"
    # A J with a repeated leading column is solved by a reduction; a monomial J is read off.
    conjugated = tmp_path / "conjugated.json"
    unimodular = [[int(a == b or (a, b) == (0, 2)) for b in range(6)] for a in range(6)]
    conjugated.write_text(json.dumps(conjugated_document(json.loads(fixture.read_text()), unimodular)))
    paths = [str(fixture), write_cylinders_document(tmp_path / "cylinders.json", 5), str(conjugated)]
    j_matrices = [load_document(path).symplectic().j_matrix for path in paths]
    solves = _count_j_solves(monkeypatch, j_matrices)
    products = _count_calls(monkeypatch, linalg.matvec)  # over Q(i); the gate multiplies J on ints
    for path in paths:
        assert main([command, path]) == 0
    capsys.readouterr()
    assert [len(rows) for rows in solves] == ([6] if command == "aim" else [])
    assert command == "aim" or products == []


# -- the at-most-two split against the per-subset witness search ------------------------


def test_at_most_two_decompose_builds_one_witness_per_split(monkeypatch, documents):
    doc = documents["minimal_stratum_parallel"]
    system, data = doc.system(), doc.symplectic()
    wide = Cycle(
        doc.basis,
        {"d1": GaussianRational(2), "d2": GaussianRational(-1), "d3": GaussianRational(-1)},
        {},
    )
    witnesses = _count_calls(monkeypatch, aim.correlated_witness)
    parts = at_most_two_decompose(wide, system, data)
    # One split, and its witness is built once the correlated subset is known (4 before).
    assert len(parts) == 2
    assert len(witnesses) == 1


def _decompose_outcome(decompose, cycle, system, data):
    try:
        return decompose(cycle, system, data)
    except (AimError, LimitError) as exc:
        return type(exc), str(exc)


def test_at_most_two_decompose_matches_the_per_subset_oracle(documents):
    r = rng(57)
    doc = documents["minimal_stratum_parallel"]
    systems = [(doc.system(), doc.symplectic())]
    systems += [aim_parallel_fixture(r, genus) for genus in range(2, 8) for _ in range(3)]
    split = compared = 0
    for system, data in systems:
        generators = [eq.cycle for eq in system.rref_rows] + list(system.relations)
        for _ in range(15):
            cycle = system.basis.zero()
            for generator in generators:
                c = r.randint(-2, 2)
                if c:
                    cycle = cycle + generator.scale(GaussianRational(c))
            got = _decompose_outcome(at_most_two_decompose, cycle, system, data)
            assert got == _decompose_outcome(oracle_aim.at_most_two_decompose, cycle, system, data)
            split += isinstance(got, list) and len(got) > 1
            compared += 1
    assert compared == 285
    assert split > compared // 2
