"""Exact linear algebra over Q(i).

Vectors are lists of GaussianRational.  Row reduction is fully reduced
(pivots 1, zeros above and below) so that the row basis of a span is a
canonical function of the span and the fixed column order; every downstream
determinism guarantee leans on that.

``rref`` eliminates fraction-free: rows are scaled to Gaussian integers held
as int pairs, Gauss-Jordan steps divide exactly by the previous pivot
(Bareiss), and the canonical rows come from one final division, the only place
rationals are built.  ``bareiss_det`` uses the same idea over Z.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from .gaussian import ZERO, ONE, GaussianRational

Vector = list[GaussianRational]


def zeros(n: int) -> Vector:
    return [ZERO] * n


def vec_add(u: Sequence[GaussianRational], v: Sequence[GaussianRational]) -> Vector:
    return [a + b for a, b in zip(u, v)]

def vec_sub(u: Sequence[GaussianRational], v: Sequence[GaussianRational]) -> Vector:
    return [a - b for a, b in zip(u, v)]

def vec_scale(c: GaussianRational, v: Sequence[GaussianRational]) -> Vector:
    return [c * a for a in v]


def is_zero_vector(v: Sequence[GaussianRational]) -> bool:
    return all(not a for a in v)


def rref(rows: Iterable[Sequence[GaussianRational]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (pivot entries 1, pivot columns cleared) and the
    pivot column index of each row, in row order.

    Fraction-free Gauss-Jordan over Z[i] (Bareiss 1968): each row is scaled
    to Gaussian integers, and at a pivot ``p`` every other row becomes
    ``(p * row - row[c] * pivot_row) / d`` with ``d`` the previous pivot.
    Sylvester's identity makes that division exact, and afterwards every
    processed pivot equals ``d``, so one final division by ``d`` yields the
    canonical rows.
    """
    work: list[tuple[list[int], list[int]]] = []
    for row in rows:
        row = list(row)
        den = lcm(*(x.re.denominator for x in row), *(x.im.denominator for x in row))
        work.append(
            (
                [x.re.numerator * (den // x.re.denominator) for x in row],
                [x.im.numerator * (den // x.im.denominator) for x in row],
            )
        )
    if not work:
        return [], []
    ncols = len(work[0][0])
    pivots: list[int] = []
    d_re, d_im = 1, 0
    r = 0
    for c in range(ncols):
        for k in range(r, len(work)):
            if work[k][0][c] or work[k][1][c]:
                break
        else:
            continue
        work[r], work[k] = work[k], work[r]
        y_re, y_im = work[r]
        p_re, p_im = y_re[c], y_im[c]
        support = [j for j in range(ncols) if y_re[j] or y_im[j]]
        norm = d_re * d_re + d_im * d_im
        for k, (x_re, x_im) in enumerate(work):
            if k == r:
                continue
            a_re, a_im = x_re[c], x_im[c]
            for j in range(ncols):
                xr, xi = x_re[j], x_im[j]
                if xr or xi:
                    x_re[j] = p_re * xr - p_im * xi
                    x_im[j] = p_re * xi + p_im * xr
            if a_re or a_im:
                for j in support:
                    yr, yi = y_re[j], y_im[j]
                    x_re[j] -= a_re * yr - a_im * yi
                    x_im[j] -= a_re * yi + a_im * yr
            # d may be a unit other than 1 (-1, i, -i): only d == 1 is a no-op.
            if d_im or d_re != 1:
                for j in range(ncols):
                    xr, xi = x_re[j], x_im[j]
                    if xr or xi:
                        x_re[j] = (xr * d_re + xi * d_im) // norm
                        x_im[j] = (xi * d_re - xr * d_im) // norm
        d_re, d_im = p_re, p_im
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    norm = d_re * d_re + d_im * d_im
    out: list[Vector] = []
    for x_re, x_im in work[:r]:
        out.append(
            [
                GaussianRational(
                    Fraction(xr * d_re + xi * d_im, norm), Fraction(xi * d_re - xr * d_im, norm)
                )
                if xr or xi
                else ZERO
                for xr, xi in zip(x_re, x_im)
            ]
        )
    return out, pivots


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


def in_span(
    v: Sequence[GaussianRational], rows: Sequence[Sequence[GaussianRational]], pivots: Sequence[int]
) -> bool:
    return is_zero_vector(reduce_vector(v, rows, pivots))


def span_coordinates(
    v: Sequence[GaussianRational], rows: Sequence[Sequence[GaussianRational]], pivots: Sequence[int]
) -> Vector | None:
    """Coefficients expressing ``v`` over an rref row basis, or None."""
    res = list(v)
    coords: Vector = []
    for row, p in zip(rows, pivots):
        c = res[p]
        coords.append(c)
        if c:
            res = vec_sub(res, vec_scale(c, row))
    if not is_zero_vector(res):
        return None
    return coords


def nullspace(rows: Iterable[Sequence[GaussianRational]], ncols: int) -> list[Vector]:
    """Basis of the right kernel, one vector per free column, in column order."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = zeros(ncols)
        v[free] = ONE
        for row, p in zip(red, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def solve_linear(
    rows: Sequence[Sequence[GaussianRational]], rhs: Sequence[GaussianRational]
) -> Vector | None:
    """A particular solution of ``A x = b`` (free variables 0), or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(augmented)
    if ncols in pivots:
        return None
    x = zeros(ncols)
    for row, p in zip(red, pivots):
        x[p] = row[ncols]
    return x


def rank(rows: Iterable[Sequence[GaussianRational]]) -> int:
    return len(rref(rows)[0])


def matvec(rows: Sequence[Sequence[GaussianRational]], v: Sequence[GaussianRational]) -> Vector:
    return [sum((a * b for a, b in zip(row, v)), start=ZERO) for row in rows]


def identity(n: int) -> list[Vector]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def invert(rows: Sequence[Sequence[GaussianRational]]) -> list[Vector] | None:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(rows)
    augmented = [list(r) + ident_row for r, ident_row in zip(rows, identity(n))]
    red, pivots = rref(augmented)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


# -- integer lattice helpers -------------------------------------------------


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def lattice_is_saturated(generators: Sequence[Sequence[int]]) -> bool:
    """Whether the lattice spanned by integer row vectors equals its saturation.

    The quotient of the ambient integer lattice by the row lattice is
    torsion-free exactly when the gcd of all maximal minors of a generating
    matrix is 1; the gcd of the r x r minors equals the product of the
    invariant factors.
    """
    if not generators:
        return True
    rational = [[GaussianRational(x) for x in row] for row in generators]
    r = rank(rational)
    if r == 0:
        return True
    ncols = len(generators[0])
    g = 0
    for row_idx in combinations(range(len(generators)), r):
        for col_idx in combinations(range(ncols), r):
            minor = bareiss_det([[generators[i][j] for j in col_idx] for i in row_idx])
            g = gcd(g, abs(minor))
            if g == 1:
                return True
    return g == 1


def clear_denominators(values: Sequence[Fraction]) -> list[int]:
    """Scale rationals to coprime integers, preserving signs and ratios."""
    if not values:
        return []
    denom = lcm(*(v.denominator for v in values))
    ints = [int(v * denom) for v in values]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints
