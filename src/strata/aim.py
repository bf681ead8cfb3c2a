"""Symplectic tangent-space analyses and the minimal-stratum decompositions.

The absolute-homology data comes in as a skew intersection matrix, the images
of an absolute basis inside the extended relative model, and the absolute
images of the vanishing cycles.  Subspaces are reported in absolute homology
coordinates (through the intersection-form duality), so symplecticity is the
directly assertable condition rank(B J B^T) = dim.
"""

from __future__ import annotations

from itertools import combinations, compress, count
from math import lcm
from typing import NamedTuple, Sequence
from weakref import WeakKeyDictionary

from . import linalg
from .equations import (
    EquationSystem,
    _lead_key,
    correlated_witness,
    cross_equivalence_classes,
    hor_support,
    is_correlated,
)
from .errors import AimError, LimitError, Violation
from .gaussian import ONE, ZERO, GaussianRational, _from_ints
from .homology import Cycle, pair


class SymplecticData:
    """Absolute homology: skew form, inclusion into the model, lambda images."""

    def __init__(
        self,
        j_matrix: tuple[tuple[int, ...], ...],
        iota: tuple[Cycle, ...],  # image of each absolute basis vector
        u_lambda: dict[str, tuple[GaussianRational, ...]],
        minimal: bool = False,
    ):
        self.j_matrix = j_matrix
        self.iota = iota
        self.u_lambda = u_lambda
        self.minimal = minimal
        # Results that also depend on a system, held per system object (by identity, weakly).
        self._problems: WeakKeyDictionary = WeakKeyDictionary()
        self._tangent: WeakKeyDictionary = WeakKeyDictionary()

    @property
    def dim(self) -> int:
        return len(self.j_matrix)


def validate_symplectic(data: SymplecticData, system: EquationSystem) -> list[Violation]:
    out: list[Violation] = []
    n = data.dim
    for row in data.j_matrix:
        if len(row) != n:
            out.append(Violation("J", "shape", "intersection matrix is not square"))
            return out
    negated = list(zip(*[map(int.__neg__, row) for row in data.j_matrix]))
    for a, (row, column) in enumerate(zip(data.j_matrix, negated)):
        if tuple(row) != column:
            b = next(b for b, (x, y) in enumerate(zip(row, column)) if x != y)
            out.append(Violation("J", "skew", f"J[{a}][{b}] != -J[{b}][{a}]"))
            return out
    if linalg.int_singular(data.j_matrix):
        out.append(Violation("J", "nondegenerate", "intersection matrix is singular"))
    if len(data.iota) != n:
        out.append(
            Violation("iota", "shape", f"{len(data.iota)} rows for a rank-{n} absolute basis")
        )
    edge_ids = sorted(e.id for e in system.graph.edges)
    known = set(edge_ids)
    for eid in edge_ids:
        if eid not in data.u_lambda:
            out.append(Violation(f"u_lambda {eid}", "complete", "missing vanishing-cycle image"))
        elif len(data.u_lambda[eid]) != n:
            out.append(Violation(f"u_lambda {eid}", "shape", f"vector length != {n}"))
    for eid in data.u_lambda:
        if eid not in known:
            out.append(Violation(f"u_lambda {eid}", "unknown-edge", "no such edge"))
    if out:
        return out
    # Adjunction: pairing an absolute vector against a lambda image downstairs
    # equals pairing its inclusion against the vanishing cycle upstairs.  Both
    # sides are summed on ints over nonzero terms only, J u over each u's common
    # denominator and the iota row against the pairing terms over the row's own,
    # and compared cross-multiplied, in edge order, where either side has a term.
    dens, u_cols = [], [[] for _ in range(n)]  # column j -> (edge index, scaled u entry)
    p_cols: dict[int, list[tuple[int, int]]] = {}  # basis column -> (edge index, int pairing)
    for k, eid in enumerate(edge_ids):
        entries = [(j, x) for j, x in enumerate(data.u_lambda[eid]) if x.a or x.b]
        den = lcm(*[x.d for _, x in entries])
        dens.append(den)
        for j, x in entries:
            u_cols[j].append((k, x.a * (den // x.d), x.b * (den // x.d)))
        for col, p in system.basis.pairing_terms[eid]:
            p_cols.setdefault(col, []).append((k, p.a))
    for a, row in enumerate(data.j_matrix):
        left: dict[int, tuple[int, int]] = {}  # edge index -> J u, scaled by dens
        for j in compress(count(), row):
            v = row[j]
            for k, x, y in u_cols[j]:
                re, im = left.get(k, (0, 0))
                left[k] = (re + v * x, im + v * y)
        x_a = data.iota[a].vector
        support = [(x_a[col], terms) for col, terms in p_cols.items() if x_a[col].a or x_a[col].b]
        iden = lcm(*[x.d for x, _ in support])
        right: dict[int, tuple[int, int]] = {}  # edge index -> pairing, scaled by iden
        for x, terms in support:
            xa, xb = x.a * (iden // x.d), x.b * (iden // x.d)
            for k, p in terms:
                re, im = right.get(k, (0, 0))
                right[k] = (re + xa * p, im + xb * p)
        for k in sorted(left.keys() | right.keys()):
            (la, lb), (ra, rb) = left.get(k, (0, 0)), right.get(k, (0, 0))
            if la * iden != ra * dens[k] or lb * iden != rb * dens[k]:
                lhs, rhs = GaussianRational(la, lb) / dens[k], GaussianRational(ra, rb) / iden
                out.append(
                    Violation(
                        f"adjunction ({a}, {edge_ids[k]})", "adjunction",
                        f"<x_{a}, u(lambda)> = {lhs} but <iota(x_{a}), lambda> = {rhs}",
                    )
                )
    if data.minimal != system.minimal_stratum:
        out.append(
            Violation("minimal", "flags", "symplectic data and system disagree on minimality")
        )
    if data.minimal:
        if len(system.basis.elements) != n:
            out.append(
                Violation("minimal", "rank", "minimal stratum requires basis rank = absolute rank")
            )
        if linalg.rank([c.vector for c in data.iota]) != n:
            out.append(Violation("minimal", "invertible", "inclusion is not injective"))
    return out


def symplectic_problems(data: SymplecticData, system: EquationSystem) -> list[Violation]:
    """``validate_symplectic(data, system)``, computed once per (data, system) pair."""
    problems = data._problems.get(system)
    if problems is None:
        problems = data._problems[system] = tuple(validate_symplectic(data, system))
    return list(problems)


def _require_valid(data: SymplecticData, system: EquationSystem) -> None:
    problems = symplectic_problems(data, system)
    if problems:
        raise AimError(f"symplectic data rejected: {problems[0]}")


def _require_minimal(system: EquationSystem, data: SymplecticData | None) -> None:
    if not system.minimal_stratum:
        raise AimError("minimal stratum required")
    if data is not None:
        _require_valid(data, system)


class SubspaceReport(NamedTuple):
    """A subspace in absolute homology coordinates with its restricted form."""

    basis_rows: tuple[tuple[GaussianRational, ...], ...]
    dim: int
    form_rank: int
    symplectic: bool


def tangent_absolute(system: EquationSystem, data: SymplecticData) -> SubspaceReport:
    """Absolute-homology image of the tangent space to the candidate variety.

    The tangent space is the annihilator, inside the extended model, of the
    equations, relations and ratios, read off their cached echelon rows; its
    pullback along the inclusion lands in absolute cohomology and is reported in
    homology coordinates z = J^-1 w (J is invertible past the gate).  A monomial
    J, one entry J[a][c] per row in distinct columns as a Darboux basis gives,
    has z_c = w_a / J[a][c]; any other J is solved by one reduction of ``[J |
    w_1 .. w_m]``.  The form on the z's is z_i^T J z_j = z_i^T w_j.  Computed
    once per (data, system) pair.
    """
    _require_valid(data, system)
    report = data._tangent.get(system)
    if report is None:
        tangent = linalg.kernel(*system.extended_rows, len(system.basis.columns()))
        images = [linalg.matvec([c.vector for c in data.iota], v) for v in tangent]
        entries = [[(c, x) for c, x in enumerate(row) if x] for row in data.j_matrix]
        if all(len(e) == 1 for e in entries) and len({e[0][0] for e in entries}) == data.dim:
            homology_vectors = [linalg.zeros(data.dim) for _ in images]
            for a, ((c, x),) in enumerate(entries):
                for z, w in zip(homology_vectors, images):
                    z[c] = w[a] / x
        else:
            j_and_images = [
                [_from_ints(x, 0, 1) if x else ZERO for x in row] + [w[a] for w in images]
                for a, row in enumerate(data.j_matrix)
            ]
            solved, _ = linalg.rref(j_and_images)
            homology_vectors = [[row[data.dim + i] for row in solved] for i in range(len(images))]
        reduced, _ = linalg.rref(homology_vectors)
        form_rank = linalg.rank([linalg.matvec(homology_vectors, w) for w in images])
        report = data._tangent[system] = SubspaceReport(
            tuple([tuple(row) for row in reduced]), len(reduced), form_rank, form_rank == len(reduced)
        )
    return report


class LemmaBoundReport(NamedTuple):
    dim: int
    bound_satisfied: bool


def lemma_bound(system: EquationSystem, data: SymplecticData, cls: CylinderClass) -> LemmaBoundReport:
    """Dimension of the tangent directions supported on one parallel class.

    Deformations supported on the cylinders of the class are the functionals
    carried by its cross-curve coordinates; intersecting with the tangent
    space and pushing to absolute homology must give dimension at most 1 when
    the data models an affine invariant manifold.
    """
    report = tangent_absolute(system, data)
    if not report.symplectic:
        raise AimError("tangent image is not symplectic; the bound does not apply")
    if len(cls.edges) > 1:
        for a in cls.edges:
            for b in cls.edges:
                if a < b and system.ratios.ratio(a, b) is None:
                    raise AimError(
                        f"class is not declared parallel: no ratio linking {a} and {b}"
                    )
    # The extended rows project onto the same span of cross-curve columns as
    # the equations, relations and ratio forms, so the kernel is the same.
    names = system.basis.names
    curve_cols = [names.index(name) for name in cls.curve_names()]
    rows = [[row[col] for col in curve_cols] for row in system.extended_rows[0]]
    coefficient_basis = linalg.nullspace(rows, len(curve_cols))
    crossings = [[pair(c, eid) for eid, _ in cls.cross_curves] for c in data.iota]
    images = [linalg.matvec(crossings, coeffs) for coeffs in coefficient_basis]
    dim = linalg.rank(images)
    return LemmaBoundReport(dim, dim <= 1)


class CrossWitnessResult(NamedTuple):
    witness: Cycle | None
    diagnostic: str | None


def pairwise_cross_witness(
    system: EquationSystem, data: SymplecticData | None, e1: str, e2: str
) -> CrossWitnessResult:
    """Span element crossing exactly two given cross-related nodes.

    In the minimal stratum such a witness must exist; its absence is evidence
    the data does not model an affine invariant manifold, reported as a
    diagnostic rather than an error.
    """
    _require_minimal(system, data)
    horizontal = set(system.graph.horizontal_edges)
    if e1 not in horizontal or e2 not in horizontal or e1 == e2:
        raise AimError("need two distinct horizontal edges")
    same = any(e1 in cls and e2 in cls for cls in cross_equivalence_classes(system))
    if not same:
        raise AimError(f"{e1} and {e2} are not cross-related")
    witness = correlated_witness(system, {e1, e2})
    if witness is None:
        return CrossWitnessResult(
            None,
            f"no defining equation crosses exactly {{{e1}, {e2}}}; the minimal-stratum"
            " pairwise-crossing guarantee fails, so this system does not model an"
            " affine invariant manifold",
        )
    return CrossWitnessResult(witness, None)


def _horizontal_columns(system: EquationSystem) -> dict[int, str]:
    """Column index of each horizontal vanishing cycle, to its edge id."""
    index = system.basis.column_index
    return {index[("l", eid)]: eid for eid in system.graph.horizontal_edges}


def _pair_form_candidates(
    system: EquationSystem, nodes: Sequence[str]
) -> tuple[bool, list[tuple[tuple[str, str], Cycle]]]:
    """Whether the extended span holds a two-node period form, and the forms of the
    pairs holding min(2, len(nodes)) of ``nodes``, in ``combinations`` order.

    Reduction is linear, so x lambda[a] + y lambda[b] lies in the extended span
    exactly when x r_a + y r_b = 0, r the unit periods' residuals modulo the
    extended rows.  A pair's forms are then the unit form of each zero residual,
    or, for two nonzero residuals with the same key, the one form lead_b
    lambda[a] - lead_a lambda[b].
    """
    horizontal = sorted(system.graph.horizontal_edges)
    leads, keys = {}, {}
    for e in horizontal:
        unit = Cycle(system.basis, {}, {e: ONE}).vector
        leads[e], keys[e] = _lead_key(linalg.reduce_vector(unit, *system.extended_rows))
    found = len(horizontal) > 1 and (None in leads.values() or len(set(keys.values())) < len(horizontal))
    inside = set(nodes)
    out = []
    for a, b in combinations(horizontal, 2):
        if (a in inside) + (b in inside) < min(2, len(inside)):
            continue
        la, lb = leads[a], leads[b]
        if la is None or lb is None:
            kernel = [(ONE, ZERO)] * (la is None) + [(ZERO, ONE)] * (lb is None)
        else:
            kernel = [(lb, -la)] if keys[a] == keys[b] else []
        out += [((a, b), Cycle(system.basis, {}, {a: x, b: y})) for x, y in kernel]
    return found, out


def pairwise_circum_decompose(
    cycle: Cycle, system: EquationSystem, data: SymplecticData | None = None
) -> list[Cycle]:
    """Write a pure circumference-period equation as two-node proportionalities.

    One solve over the forms of the pairs inside the input's node set T is
    enough.  A pair's forms span every pure-span vector on that pair, so in
    any solution over all pairs the forms meeting an outside node o cancel at
    o and regroup as pure-span vectors on pairs avoiding o; eliminating each
    outside node in turn writes the input over the pairs inside T.  With one
    node a, every form meeting a is a multiple of e_a, so the pairs holding a
    are enough.  ``solve_linear`` pivots from the left, so this is the solution
    over all pairs with these listed first.  Every output is a two-node (or
    smaller) period form on T, and the outputs sum to the input.
    """
    _require_minimal(system, data)
    horizontal = _horizontal_columns(system)
    carriers = [col for col, c in enumerate(cycle.vector) if c]
    if not all(col in horizontal for col in carriers):
        raise AimError("input must be a combination of horizontal vanishing-cycle periods")
    if not system.extended_span_contains(cycle):
        raise AimError("input is not in the span of the system and its relations")
    target_nodes = sorted([horizontal[col] for col in carriers])
    found, candidates = _pair_form_candidates(system, target_nodes)
    if not found:
        raise AimError("recombination stuck: the span contains no two-node period forms")
    matrix_rows = list(zip(*[form.vector for _, form in candidates]))
    solution = linalg.solve_linear(matrix_rows, cycle.vector)
    if solution is None:
        raise AimError(
            "recombination stuck: the input is not a combination of two-node period"
            " forms; no pairwise decomposition exists in this span"
        )
    terms = [form.scale(c) for c, (_, form) in zip(solution, candidates) if c]
    inside = set(target_nodes)
    total = system.basis.zero()
    for t in terms:
        total = total + t
        assert len(t.lam) <= 2 and not t.coeffs and set(t.lam) <= inside
        assert system.extended_span_contains(t)
    assert (total - cycle).is_zero()
    return terms


def at_most_two_decompose(
    cycle: Cycle, system: EquationSystem, data: SymplecticData | None = None, limit: int = 12
) -> list[Cycle]:
    """Split an equation into summands crossing at most two horizontal nodes.

    Repeatedly subtracts a witness supported on the first proper correlated
    subset, smallest first and then lexicographic, built once that subset is
    found by ``is_correlated``; in the minimal stratum the pairwise witnesses
    the recursion needs are guaranteed, so failure to find one is reported as
    evidence against the data rather than tolerated.  The subset search is exponential in the
    horizontal edge count, so more than ``limit`` edges raise LimitError.
    """
    _require_minimal(system, data)
    n_horizontal = len(system.graph.horizontal_edges)
    if n_horizontal > limit:
        raise LimitError(f"{n_horizontal} horizontal edges exceed the search limit {limit}")
    if not system.extended_span_contains(cycle):
        raise AimError("input is not in the span of the system and its relations")

    out: list[Cycle] = []
    stack = [cycle]
    for _ in range(4 ** (n_horizontal + 1) + len(stack)):
        if not stack:
            return out
        work = stack.pop()
        if work.is_zero():
            continue
        support = sorted(hor_support(work))
        if len(support) <= 2:
            out.append(work)
            continue
        subsets = (c for size in range(1, len(support)) for c in combinations(support, size))
        correlated = next((c for c in subsets if is_correlated(system, c)), None)
        if correlated is None:
            raise AimError(
                f"no proper correlated subset of {support} has a witness; the"
                " minimal-stratum decomposition guarantee fails for this system"
            )
        found = correlated_witness(system, correlated)
        anchor = next(e for e in support if pair(found, e))
        factor = pair(work, anchor) / pair(found, anchor)
        piece = found.scale(factor)
        stack.append(piece)
        stack.append(work - piece)
    raise AssertionError("decomposition failed to terminate")
