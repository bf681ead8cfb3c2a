"""Exact linear algebra over Q(i).

Vectors are lists of GaussianRational.  Row reduction is fully reduced
(pivots 1, zeros above and below) so that the row basis of a span is a
canonical function of the span and the fixed column order; every downstream
determinism guarantee leans on that.

``rref`` eliminates fraction-free over Z[i] on one of two paths, chosen by
fill (nonzero cells / cells) against ``SPARSE_FILL``.  The sparse path keeps
rows as dicts of nonzero entries and updates only the rows with an entry in
the pivot column; the dense path is a Bareiss pass over full rows.  Rationals
are built once, in the final division, from Z[i] ints straight to ``(a, b,
d)``.  ``bareiss_det`` is the dense idea over Z.  ``rank`` and
``int_singular`` first read the rows' leading columns, and eliminate (by
``rref`` and ``bareiss_det``) only when one repeats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from typing import Iterable, Sequence

from .gaussian import ZERO, ONE, GaussianRational, _from_ints

Vector = list[GaussianRational]


def zeros(n: int) -> Vector:
    return [ZERO] * n


def combine(coords: Sequence[GaussianRational], vectors: Sequence[Sequence[GaussianRational]]) -> Vector:
    """``sum(c * v)`` over paired coefficients and vectors, skipping zero terms."""
    out = zeros(len(vectors[0]))
    for c, v in zip(coords, vectors):
        if c:
            for j, x in enumerate(v):
                if x:
                    out[j] = out[j] + c * x
    return out


def is_zero_vector(v: Sequence[GaussianRational]) -> bool:
    return all(not a for a in v)


# Fill threshold, measured on random Z and Z[i] matrices up to 40 x 40: below
# 0.2 the sparse path wins on both.
SPARSE_FILL = 0.2


def rref(rows: Iterable[Sequence[GaussianRational]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (pivot entries 1, pivot columns cleared) and the
    pivot column index of each row, in row order.  A matrix whose fill
    (nonzeros / cells) reaches ``SPARSE_FILL`` goes to ``_rref_dense``, found
    while counting row by row; any other goes to ``_rref_sparse``, its rows
    scaled to Z[i] as ``{col: (re, im)}``.  Both give the same rows.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    budget = SPARSE_FILL * len(rows) * ncols  # nonzeros the sparse path may take
    z_rows = []
    for row in rows:
        entries = [(j, x) for j, x in enumerate(row) if x.a or x.b]
        budget -= len(entries)
        if budget <= 0:
            return _rref_dense(rows)
        den = lcm(*[x.d for _, x in entries])
        z_rows.append({j: (x.a * (den // x.d), x.b * (den // x.d)) for j, x in entries})
    return _rref_sparse(z_rows, ncols)


def _rref_sparse(z_rows: list[dict[int, tuple[int, int]]], ncols: int) -> tuple[list[Vector], list[int]]:
    """Gauss-Jordan on dict rows: the sparsest row with an entry is the pivot
    (Markowitz 1957, in column order), and only rows with an entry in its
    column are updated, each then divided by its content in Z[i].  Rows stay
    dicts however far they fill in."""
    active = [row for row in z_rows if row]
    done: dict[int, dict[int, tuple[int, int]]] = {}  # pivot column -> row
    for c in range(ncols):
        k = -1
        for i, row in enumerate(active):
            if c in row and (k < 0 or len(row) < len(active[k])):
                k = i
        if k < 0:
            continue
        y = done[c] = active.pop(k)
        p_re, p_im = y[c]
        for x in [*active, *done.values()]:
            if x is y or c not in x:
                continue
            a_re, a_im = x.pop(c)
            if p_im or p_re != 1:
                for j, (xr, xi) in x.items():
                    x[j] = (p_re * xr - p_im * xi, p_re * xi + p_im * xr)
            for j, (yr, yi) in y.items():
                if j != c:
                    xr, xi = x.get(j, (0, 0))
                    xr -= a_re * yr - a_im * yi
                    xi -= a_re * yi + a_im * yr
                    if xr or xi:
                        x[j] = (xr, xi)
                    else:
                        del x[j]
            # Integer content alone would let factors like (2 + i)^k pile up.
            g_re = g_im = 0
            for xr, xi in x.values():
                if g_im or xi:
                    g_re, g_im = _gcd_zi(g_re, g_im, xr, xi)
                else:
                    g_re = gcd(g_re, xr)
                if g_re * g_re + g_im * g_im == 1:
                    break
            norm = g_re * g_re + g_im * g_im
            if norm > 1:
                for j, (xr, xi) in x.items():
                    x[j] = ((xr * g_re + xi * g_im) // norm, (xi * g_re - xr * g_im) // norm)
        active = [x for x in active if x]
    out: list[Vector] = []
    for c, y in done.items():
        p_re, p_im = y[c]
        norm = p_re * p_re + p_im * p_im
        v = zeros(ncols)
        for j, (xr, xi) in y.items():
            v[j] = _from_ints(xr * p_re + xi * p_im, xi * p_re - xr * p_im, norm)
        out.append(v)
    return out, list(done)


def _gcd_zi(a_re: int, a_im: int, b_re: int, b_im: int) -> tuple[int, int]:
    """A gcd of ``a`` and ``b`` in Z[i], by Euclid with rounded quotients."""
    while b_re or b_im:
        n = b_re * b_re + b_im * b_im
        q_re = (2 * (a_re * b_re + a_im * b_im) + n) // (2 * n)
        q_im = (2 * (a_im * b_re - a_re * b_im) + n) // (2 * n)
        r_re = a_re - q_re * b_re + q_im * b_im
        r_im = a_im - q_re * b_im - q_im * b_re
        a_re, a_im, b_re, b_im = b_re, b_im, r_re, r_im
    return a_re, a_im


def _rref_dense(rows: Sequence[Sequence[GaussianRational]]) -> tuple[list[Vector], list[int]]:
    """Bareiss (1968) Gauss-Jordan on full rows: at a pivot ``p`` every other row
    becomes ``(p * row - row[c] * pivot_row) / d``, ``d`` the previous pivot, an
    exact division by Sylvester's identity; all pivots end equal to ``d``."""
    work: list[tuple[list[int], list[int]]] = []
    for row in rows:
        den = lcm(*[x.d for x in row])
        work.append(([x.a * (den // x.d) for x in row], [x.b * (den // x.d) for x in row]))
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
                _from_ints(xr * d_re + xi * d_im, xi * d_re - xr * d_im, norm)
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
        factor = res[p]
        if factor:
            for j, x in enumerate(row):
                if x:
                    res[j] = res[j] - factor * x
    return res


def in_span(
    v: Sequence[GaussianRational], rows: Sequence[Sequence[GaussianRational]], pivots: Sequence[int]
) -> bool:
    return is_zero_vector(reduce_vector(v, rows, pivots))


def kernel(rows: Sequence[Sequence[GaussianRational]], pivots: Sequence[int], ncols: int) -> list[Vector]:
    """Basis of the right kernel of rows already in reduced echelon form, with
    their pivot columns: one vector per free column, in column order."""
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = zeros(ncols)
        v[free] = ONE
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def nullspace(rows: Iterable[Sequence[GaussianRational]], ncols: int) -> list[Vector]:
    """Basis of the right kernel, one vector per free column, in column order."""
    return kernel(*rref(rows), ncols)


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


def _distinct_leads(leads: Iterable[int | None]) -> int | None:
    """The number of nonzero rows when their leading columns (None for a zero row)
    are pairwise distinct, else None.  Such rows are an echelon form up to row
    order (McConnell et al. 2011, a certificate before the elimination)."""
    seen: set[int] = set()
    for lead in leads:
        if lead in seen:
            return None
        if lead is not None:
            seen.add(lead)
    return len(seen)


def rank(rows: Iterable[Sequence[GaussianRational]]) -> int:
    rows = list(rows)
    known = _distinct_leads(next((j for j, x in enumerate(row) if x.a or x.b), None) for row in rows)
    return len(rref(rows)[0]) if known is None else known


def matvec(rows: Sequence[Sequence[GaussianRational]], v: Sequence[GaussianRational]) -> Vector:
    """``rows · v``, skipping zero entries of ``v`` and of each row."""
    support = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in rows:
        total = ZERO
        for j, x in support:
            a = row[j]
            if a:
                total = total + a * x
        out.append(total)
    return out


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


def int_singular(rows: Sequence[Sequence[int]]) -> bool:
    """Whether a square integer matrix is singular: its rows' leading columns when
    they are distinct, else ``bareiss_det``."""
    known = _distinct_leads(next(compress(count(), row), None) for row in rows)
    return known < len(rows) if known is not None else bareiss_det(rows) == 0


def invariant_factors(rows: Sequence[Sequence[int]]) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    They are the diagonal of its Smith normal form, reached here by
    unimodular row and column operations on plain ints (Cohen, *A Course in
    Computational Algebraic Number Theory*, §2.4): an entry of least absolute
    value goes to the corner and reduces its row and column, until both are
    clear and it divides every remaining entry.  Their number is the rank and
    their product the gcd of the maximal nonzero minors.
    """
    m = [list(map(int, row)) for row in rows]
    factors: list[int] = []
    while True:
        m = [row for row in m if any(row)]
        if not m:
            return factors
        _, i, j = min((abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x)
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        top = m[0]
        p = top[0]
        for row in m[1:]:
            q = row[0] // p
            if q:
                for k, x in enumerate(top):
                    row[k] -= q * x
        for k in range(1, len(top)):
            q = top[k] // p
            if q:
                for row in m:
                    row[k] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in m[1:]):
            continue  # a remainder smaller than p is left; it is the next pivot
        stray = next((row for row in m[1:] if any(x % p for x in row)), None)
        if stray is not None:
            top[:] = [a + b for a, b in zip(top, stray)]
            continue
        factors.append(abs(p))
        m = [row[1:] for row in m[1:]]


def lattice_is_saturated(generators: Sequence[Sequence[int]]) -> bool:
    """Whether the lattice spanned by integer row vectors equals its saturation.

    The quotient of the ambient integer lattice by the row lattice is
    torsion-free exactly when every invariant factor of a generating matrix
    is 1.
    """
    return all(d == 1 for d in invariant_factors(generators))


def clear_denominators(values: Sequence[Fraction]) -> list[int]:
    """Scale rationals to coprime integers, preserving signs and ratios."""
    if not values:
        return []
    denom = lcm(*[v.denominator for v in values])
    ints = [int(v * denom) for v in values]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints
