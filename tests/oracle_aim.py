"""Reference implementations kept as oracles for the symplectic fast paths.

``matvec`` is the dense product ``strata.linalg`` used before it skipped zero
entries.  ``validate_symplectic`` is the gate ``strata.aim`` ran before it
tested nondegeneracy by an integer determinant: it inverts J over Q(i) and
calls J degenerate when there is no inverse.  ``tangent_absolute`` and
``subspace_report`` are the tangent-image pipeline ``strata.aim`` ran before
J, its inverse and the image were memoised: every call inverts J afresh,
reduces the extended rows again for the tangent space (``oracle_linalg.nullspace``),
and the Gram matrix recomputes ``J v`` for every (v, w) pair.
``pure_lambda_subspace`` and ``annihilator_pair_forms`` are the pair-form search
``strata.aim`` ran before it read the forms off the unit periods' residuals
modulo the extended rows: a nullspace of the extended rows gives the pure-lambda
subspace, one reduction of ``[P | I]`` gives its annihilator W, and a pair's forms
are the kernel of W's two columns, scaled as ``linalg.nullspace`` would (the last
nonzero coordinate over the subspace is 1).  ``pair_form_candidates`` is the search
before that: one nullspace per horizontal pair.
``pairwise_circum_decompose`` is the solve ``strata.aim`` ran before it built
forms only for the pairs the input's nodes can use: one solve over the forms
of every pair, the pairs inside the input's nodes first.
``at_most_two_decompose`` is the split ``strata.aim`` ran before it tested
subsets with ``is_correlated``: it builds a full ``correlated_witness`` for
every subset it tries.  The gate's skew test compares J with its transpose
entry by entry, and its adjunction test calls ``pair`` for every (row, edge);
``pair`` is ``oracle_homology.pair``, which sums every pairing term.
J is inverted by ``oracle_linalg.invert``.  They are
deliberately slow and obvious.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from oracle_homology import pair
from oracle_linalg import invert, nullspace
from strata import linalg
from strata.aim import SubspaceReport, _horizontal_columns, _require_minimal
from strata.equations import EquationSystem, correlated_witness, hor_support
from strata.errors import AimError, LimitError, Violation
from strata.gaussian import ONE, ZERO, GaussianRational
from strata.homology import Cycle
from strata.symplectic import SymplecticData


def matvec(rows: Sequence[Sequence[GaussianRational]], v: Sequence[GaussianRational]) -> linalg.Vector:
    return [sum((a * b for a, b in zip(row, v)), start=ZERO) for row in rows]


def subspace_report(j_matrix, vectors: Sequence[Sequence[GaussianRational]]) -> SubspaceReport:
    reduced, _ = linalg.rref(vectors)
    dim = len(reduced)
    j_rows = [[GaussianRational(x) for x in row] for row in j_matrix]
    gram = [
        [sum((a * b for a, b in zip(matvec(j_rows, v), w)), start=ZERO) for v in reduced]
        for w in reduced
    ]
    form_rank = linalg.rank(gram)
    return SubspaceReport(
        tuple(tuple(row) for row in reduced), dim, form_rank, form_rank == dim
    )


def tangent_absolute(system: EquationSystem, data: SymplecticData) -> SubspaceReport:
    problems = validate_symplectic(data, system)
    if problems:
        raise AimError(f"symplectic data rejected: {problems[0]}")
    tangent = nullspace(system.extended_rows[0], len(system.basis.columns()))
    iota_rows = [c.to_vector() for c in data.iota]
    images = [matvec(iota_rows, v) for v in tangent]
    j_rows = [[GaussianRational(x) for x in row] for row in data.j_matrix]
    j_inv = invert(j_rows)
    assert j_inv is not None
    homology_vectors = [matvec(j_inv, w) for w in images]
    return subspace_report(data.j_matrix, homology_vectors)


def validate_symplectic(data: SymplecticData, system: EquationSystem) -> list[Violation]:
    out: list[Violation] = []
    n = data.dim
    for row in data.j_matrix:
        if len(row) != n:
            out.append(Violation("J", "shape", "intersection matrix is not square"))
            return out
    for a in range(n):
        for b in range(n):
            if data.j_matrix[a][b] != -data.j_matrix[b][a]:
                out.append(Violation("J", "skew", f"J[{a}][{b}] != -J[{b}][{a}]"))
                return out
    j_rows = [[GaussianRational(x) for x in row] for row in data.j_matrix]
    if invert(j_rows) is None:
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
    for a in range(n):
        for eid in edge_ids:
            lhs = matvec(j_rows, data.u_lambda[eid])[a]
            rhs = pair(data.iota[a], eid)
            if lhs != rhs:
                out.append(
                    Violation(
                        f"adjunction ({a}, {eid})", "adjunction",
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


def pure_lambda_subspace(system: EquationSystem) -> list[linalg.Vector]:
    """Extended-span vectors supported on horizontal vanishing cycles only."""
    reduced, _ = system.extended_rows
    if not reduced:
        return []
    keep = _horizontal_columns(system)
    constraints = [[row[col] for row in reduced] for col in range(len(reduced[0])) if col not in keep]
    return [linalg.combine(coords, reduced) for coords in linalg.nullspace(constraints, len(reduced))]


def annihilator_pair_forms(
    system: EquationSystem, nodes: Sequence[str]
) -> tuple[bool, list[tuple[tuple[str, str], Cycle]]]:
    horizontal = sorted(system.graph.horizontal_edges)
    pure = pure_lambda_subspace(system)
    if not pure:
        return False, []
    h, k = len(horizontal), len(pure)
    cols = [system.basis.column_index[("l", e)] for e in horizontal]
    identity = [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]
    red, pivots = linalg.rref([[v[c] for c in cols] + u for v, u in zip(pure, identity)])
    free = [f for f in range(h) if f not in pivots]
    coords = dict.fromkeys(horizontal, linalg.zeros(k)) | {horizontal[p]: row[h:] for row, p in zip(red, pivots)}
    columns = {e: [ONE if f == a else ZERO for f in free] for a, e in enumerate(horizontal)}
    columns.update({horizontal[p]: [-row[f] for f in free] for row, p in zip(red, pivots)})
    leads = {e: next((x for x in w if x), None) for e, w in columns.items()}
    keys = {e: lead and tuple([x / lead for x in columns[e]]) for e, lead in leads.items()}
    found = h > 1 and (None in keys.values() or len(set(keys.values())) < h)
    inside = set(nodes)
    out = []
    for a, b in combinations(horizontal, 2):
        if (a in inside) + (b in inside) < min(2, len(inside)):
            continue
        ka, kb = keys[a], keys[b]
        if ka is None and kb is None:
            # With the columns reversed, echelon rows are nullspace's basis, last first.
            two, _ = linalg.rref([[*coords[a][::-1], ONE, ZERO], [*coords[b][::-1], ZERO, ONE]])
            kernel = [(row[k], row[k + 1]) for row in reversed(two)]
        elif ka is None or kb is None or ka == kb:
            x, y = (ONE, ZERO) if ka is None else (ZERO, ONE) if kb is None else (leads[b], -leads[a])
            last = next(c for c in reversed(linalg.combine((x, y), (coords[a], coords[b]))) if c)
            kernel = [(x / last, y / last)]
        else:
            kernel = []
        out += [((a, b), Cycle(system.basis, {}, {a: x, b: y})) for x, y in kernel]
    return found, out


def pair_form_candidates(
    system: EquationSystem, preferred: Sequence[str]
) -> list[tuple[tuple[str, str], Cycle]]:
    horizontal = sorted(system.graph.horizontal_edges)
    pure = pure_lambda_subspace(system)
    if not pure:
        return []
    index = system.basis.column_index
    preferred_set = set(preferred)
    pairs = sorted(combinations(horizontal, 2), key=lambda ab: not set(ab) <= preferred_set)
    out = []
    for a, b in pairs:
        keep = (index[("l", a)], index[("l", b)])
        constraints = [[v[col] for v in pure] for col in range(len(pure[0])) if col not in keep]
        for coords in linalg.nullspace(constraints, len(pure)):
            form = Cycle.from_vector(system.basis, linalg.combine(coords, pure))
            if not form.is_zero():
                out.append(((a, b), form))
    return out


def pairwise_circum_decompose(cycle: Cycle, system: EquationSystem) -> list[Cycle]:
    nodes = [e for e, c in cycle.lam.items() if c]
    candidates = pair_form_candidates(system, nodes)
    if not candidates:
        raise AimError("recombination stuck: the span contains no two-node period forms")
    solution = linalg.solve_linear(list(zip(*[form.vector for _, form in candidates])), cycle.vector)
    if solution is None:
        raise AimError(
            "recombination stuck: the input is not a combination of two-node period"
            " forms; no pairwise decomposition exists in this span"
        )
    return [form.scale(c) for c, (_, form) in zip(solution, candidates) if c]


def at_most_two_decompose(
    cycle: Cycle, system: EquationSystem, data: SymplecticData | None = None, limit: int = 12
) -> list[Cycle]:
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
        found = None
        for size in range(1, len(support)):
            for combo in combinations(support, size):
                found = correlated_witness(system, frozenset(combo))
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            raise AimError(
                f"no proper correlated subset of {support} has a witness; the"
                " minimal-stratum decomposition guarantee fails for this system"
            )
        anchor = next(e for e in support if pair(found, e))
        factor = pair(work, anchor) / pair(found, anchor)
        piece = found.scale(factor)
        stack.append(piece)
        stack.append(work - piece)
    raise AssertionError("decomposition failed to terminate")
