"""Reference implementations kept as oracles for the fast paths in ``strata``.

``rref`` is the Fraction-based Gauss-Jordan elimination that ``strata.linalg``
used before it moved to fraction-free elimination over the Gaussian integers.
It is deliberately slow and obvious: every pivot row is scaled to 1 and every
other row is cleared with exact Q(i) arithmetic.  ``reduce_vector`` is the
dense residual that subtracts a multiple of the whole pivot row, zero entries
included.  ``vec_add``, ``vec_sub`` and ``vec_scale`` are the dense vector
helpers these oracles and a few tests are written with; the library itself
has no use for them.  ``lattice_is_saturated`` is the maximal-minors test
the library used before it read the invariant factors of a Smith normal
form; it enumerates C(rows, r) * C(cols, r) minors, so keep it to small
shapes.  ``invert`` is the exact inverse the library computed by reducing
``[A | I]`` before its one caller, the tangent image, solved ``J z = w``
directly; it is built on the ``rref`` above.  ``rank`` and ``int_singular`` are
the rank and singularity tests the library ran before it read leading columns
first: they always eliminate.  ``nullspace`` is the kernel
the library computed before it read kernels off rows already in reduced
echelon form: it reduces its input with ``strata.linalg.rref`` on every call
and writes ``-row[free]`` into each pivot entry, zeros included.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from strata.gaussian import ONE, ZERO, GaussianRational
from strata import linalg
from strata.linalg import SPARSE_FILL, Vector, _rref_sparse, bareiss_det


def vec_add(u: Sequence[GaussianRational], v: Sequence[GaussianRational]) -> Vector:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Sequence[GaussianRational], v: Sequence[GaussianRational]) -> Vector:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: GaussianRational, v: Sequence[GaussianRational]) -> Vector:
    return [c * a for a in v]


def rref(rows: Iterable[Sequence[GaussianRational]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (pivot entries 1, pivot columns cleared) and the
    pivot column index of each row, in row order.
    """
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    out: list[Vector] = []
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for k in range(r, len(work)):
            if work[k][c]:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = ONE / work[r][c]
        work[r] = vec_scale(inv, work[r])
        for k in range(len(work)):
            if k != r and work[k][c]:
                factor = work[k][c]
                work[k] = vec_sub(work[k], vec_scale(factor, work[r]))
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = work[:r]
    return out, pivots


def invert(rows: Sequence[Sequence[GaussianRational]]) -> list[Vector] | None:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(rows)
    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    red, pivots = rref([list(r) + e for r, e in zip(rows, identity)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def nullspace(rows: Iterable[Sequence[GaussianRational]], ncols: int) -> list[Vector]:
    """Basis of the right kernel, one vector per free column, in column order."""
    red, pivots = linalg.rref(rows)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row, p in zip(red, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def rank(rows: Iterable[Sequence[GaussianRational]]) -> int:
    return len(linalg.rref(rows)[0])


def int_singular(rows: Sequence[Sequence[int]]) -> bool:
    """Whether a square integer matrix is singular, reduced on dict rows below ``SPARSE_FILL``."""
    n = len(rows)
    if n * n - sum([row.count(0) for row in rows]) < SPARSE_FILL * n * n:
        return len(_rref_sparse([{j: (x, 0) for j, x in enumerate(row) if x} for row in rows], n)[1]) < n
    return bareiss_det(rows) == 0


def reduce_vector(
    v: Sequence[GaussianRational], rows: Sequence[Sequence[GaussianRational]], pivots: Sequence[int]
) -> Vector:
    """Residual of ``v`` after eliminating the pivot columns of an rref basis."""
    res = list(v)
    for row, p in zip(rows, pivots):
        if res[p]:
            factor = res[p]
            res = vec_sub(res, vec_scale(factor, row))
    return res


def maximal_minors_gcd(generators: Sequence[Sequence[int]]) -> int:
    """gcd of every r x r minor, r the rank (1 at rank 0): the product of
    the invariant factors."""
    r = rank([[GaussianRational(x) for x in row] for row in generators])
    if r == 0:
        return 1
    g = 0
    for row_idx in combinations(range(len(generators)), r):
        for col_idx in combinations(range(len(generators[0])), r):
            minor = bareiss_det([[generators[i][j] for j in col_idx] for i in row_idx])
            g = gcd(g, abs(minor))
    return g


def lattice_is_saturated(generators: Sequence[Sequence[int]]) -> bool:
    """The quotient by the row lattice is torsion-free exactly when the gcd
    of the maximal minors is 1."""
    return maximal_minors_gcd(generators) == 1
