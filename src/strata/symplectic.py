"""A document's symplectic block and its validity gate: only documents carrying
the block import this module.  The analyses that read it live in ``aim``."""

from __future__ import annotations

from itertools import compress, count
from math import lcm
from weakref import WeakKeyDictionary

from . import linalg
from .equations import EquationSystem
from .errors import Violation
from .gaussian import GaussianRational
from .homology import Cycle


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
        out.append(Violation("iota", "shape", f"{len(data.iota)} rows for a rank-{n} absolute basis"))
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
                text = f"<x_{a}, u(lambda)> = {lhs} but <iota(x_{a}), lambda> = {rhs}"
                out.append(Violation(f"adjunction ({a}, {edge_ids[k]})", "adjunction", text))
    if data.minimal != system.minimal_stratum:
        out.append(Violation("minimal", "flags", "symplectic data and system disagree on minimality"))
    if data.minimal:
        if len(system.basis.elements) != n:
            out.append(Violation("minimal", "rank", "minimal stratum requires basis rank = absolute rank"))
        if linalg.rank([c.vector for c in data.iota]) != n:
            out.append(Violation("minimal", "invertible", "inclusion is not injective"))
    return out


def symplectic_problems(data: SymplecticData, system: EquationSystem) -> list[Violation]:
    """``validate_symplectic(data, system)``, computed once per (data, system) pair."""
    problems = data._problems.get(system)
    if problems is None:
        problems = data._problems[system] = tuple(validate_symplectic(data, system))
    return list(problems)
