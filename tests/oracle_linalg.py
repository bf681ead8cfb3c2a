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

``rref_sparse`` and ``rref_dense`` are the two fraction-free eliminators
``strata.linalg.rref`` chose between, by fill against ``SPARSE_FILL``, before
it had one: Gauss-Jordan on dict rows that divides each updated row by its
content in Z[i] (``_gcd_zi``), and a Bareiss pass over full rows.  The
``int_singular`` oracle still routes by that threshold.

``rref_one_step`` is the lazy-scale Bareiss eliminator ``strata.linalg.rref``
was before it took two consecutive pivots in one pass: every pivot is taken
alone, and each row with an entry in the pivot column is updated once per
pivot.

``rref_gauss_jordan`` is ``strata.linalg.rref`` before it eliminated forward
only: it takes one or two pivots per pass as ``rref`` does, but every row
with an entry in the pivot column is updated, finished pivot rows included,
so the reduced rows come straight out of the elimination with no back
substitution; and it eliminates input already in reduced echelon form like
any other.

``clear_denominators`` takes ``Fraction`` values, as the library did before it
read ``(numerator, denominator)`` int pairs, accumulates the gcd of the scaled
integers one entry at a time and divides only when it exceeds 1, as the
library did before it took one ``gcd`` of them all.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from strata.gaussian import ONE, ZERO, GaussianRational, _from_ints
from strata import linalg
from strata.linalg import Vector, bareiss_det, zeros

# The fill (nonzero cells / cells) under which ``strata.linalg.rref`` took the
# sparse path: measured on random Z and Z[i] matrices up to 40 x 40.
SPARSE_FILL = 0.2


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


def rref_sparse(z_rows: list[dict[int, tuple[int, int]]], ncols: int) -> tuple[list[Vector], list[int]]:
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


def rref_dense(rows: Sequence[Sequence[GaussianRational]]) -> tuple[list[Vector], list[int]]:
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


def rref_one_step(rows: Iterable[Sequence[GaussianRational]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (pivot entries 1, pivot columns cleared) and the
    pivot column index of each row, in row order.

    Fraction-free Gauss-Jordan (Bareiss 1968) on dict rows over Z[i].  The
    pivot row of column c is the sparsest row with an entry there (Markowitz
    1957, in column order), and only the rows with an entry in column c
    change: with pivot row y and pivot p = y_c, such a row x becomes
    ``(p x - x_c y) / p_s``, p_s the pivot of the last step x took part in,
    as a changed row or as the pivot row (1 before any).  A dense pass would
    also have scaled x by p_t / p_(t-1) at each step t it sat out; those
    factors telescope, so the division is exact (Nakos, Turner, Williams
    1997).  A pivot row is first brought to the current scale: times the
    latest pivot, over its own p_s.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    active = []  # [{col: (re, im)}, s]: a row, and the index in divisors of its p_s
    for row in rows:
        entries = [(j, x) for j, x in enumerate(row) if x.a or x.b]
        if entries:
            den = lcm(*[x.d for _, x in entries])
            active.append([{j: (x.a * (den // x.d), x.b * (den // x.d)) for j, x in entries}, 0])
    # divisors[s] = (e_re, e_im, n) with x / p_s == x (e_re + e_im i) / n; divisors[0] is 1.
    divisors = [(1, 0, 1)]
    last = (1, 0)  # the latest pivot
    done: dict[int, list] = {}  # pivot column -> [row, s]
    for c in range(ncols):
        k = -1
        for i, (x, _) in enumerate(active):
            if c in x and (k < 0 or len(x) < len(active[k][0])):
                k = i
        if k < 0:
            continue
        pivot = done[c] = active.pop(k)
        y, s = pivot
        if s < len(divisors) - 1:
            (m_re, m_im), (e_re, e_im, n) = last, divisors[s]
            for j, (yr, yi) in y.items():
                r, i = m_re * yr - m_im * yi, m_re * yi + m_im * yr
                y[j] = ((r * e_re - i * e_im) // n, (i * e_re + r * e_im) // n)
        p_re, p_im = last = y[c]
        g = gcd(p_re, p_im)
        divisors.append((p_re // g, -p_im // g, (p_re * p_re + p_im * p_im) // g))
        pivot[1] = step = len(divisors) - 1
        rest = [(j, yr, yi) for j, (yr, yi) in y.items() if j != c]
        for row in [*active, *done.values()]:
            x, s = row
            if x is y or c not in x:
                continue
            # One pass builds the new row.  A unit divisor (n == 1) is not divided
            # by: the row is then off by a unit, which its final division removes.
            a_re, a_im = x.pop(c)
            e_re, e_im, n = divisors[s]
            scale = n != 1
            new = {}
            for j, yr, yi in rest:
                xr, xi = x.pop(j, (0, 0))
                r = p_re * xr - p_im * xi - a_re * yr + a_im * yi
                i = p_re * xi + p_im * xr - a_re * yi - a_im * yr
                if r or i:
                    new[j] = ((r * e_re - i * e_im) // n, (i * e_re + r * e_im) // n) if scale else (r, i)
            for j, (xr, xi) in x.items():
                r, i = p_re * xr - p_im * xi, p_re * xi + p_im * xr
                new[j] = ((r * e_re - i * e_im) // n, (i * e_re + r * e_im) // n) if scale else (r, i)
            row[0], row[1] = new, step
        active = [row for row in active if row[0]]
    out: list[Vector] = []
    for c, (y, _) in done.items():
        p_re, p_im = y[c]
        norm = p_re * p_re + p_im * p_im
        v = zeros(ncols)
        for j, (xr, xi) in y.items():
            v[j] = _from_ints(xr * p_re + xi * p_im, xi * p_re - xr * p_im, norm)
        out.append(v)
    return out, list(done)


def rref_gauss_jordan(rows: Iterable[Sequence[GaussianRational]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (pivot entries 1, pivot columns cleared) and the
    pivot column index of each row, in row order.

    Fraction-free Gauss-Jordan (Bareiss 1968) on dict rows over Z[i].  The
    pivot row of column c is the sparsest row with an entry there (Markowitz
    1957, in column order), and only the rows with an entry in column c
    change: with pivot row y and pivot p = y_c, such a row x becomes
    ``(p x - x_c y) / p_s``, p_s the pivot of the last step x took part in,
    as a changed row or as the pivot row (1 before any).  A dense pass would
    also have scaled x by p_t / p_(t-1) at each step t it sat out; those
    factors telescope, so the division is exact (Nakos, Turner, Williams
    1997).  A pivot row is first brought to the current scale: times the
    latest pivot, over its own p_s.

    Columns c and c + 1 are taken in one pass (Bareiss's two-step method)
    when y has an entry in column c + 1 and the sparsest other row z with one
    keeps it after the first step, that is when ``p z_(c+1) - z_c y_(c+1)``
    is nonzero.  z becomes ``z' = (p z - z_c y) / p_s`` with pivot
    q = z'_(c+1), y becomes ``y'' = (q y - y_(c+1) z') / p``, and each other
    row x with an entry in either column becomes
    ``(q x - x_c y'' - x_(c+1) z') / p_s`` in one update.  That is the two
    one-step updates composed: put the first into the second and the terms
    in y collect to ``p y''``, so the numerator carries the factor p that the
    second step divides by, and the one division left is exact.  Each entry
    then costs three products instead of four, and one division instead of
    two.  y'' and z' both take the second step's scale.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    active = []  # [{col: (re, im)}, s]: a row, and the index in divisors of its p_s
    for row in rows:
        entries = [(j, x) for j, x in enumerate(row) if x.a or x.b]
        if entries:
            den = lcm(*[x.d for _, x in entries])
            active.append([{j: (x.a * (den // x.d), x.b * (den // x.d)) for j, x in entries}, 0])
    # divisors[s] = (e_re, e_im, n) with x / p_s == x (e_re + e_im i) / n; divisors[0] is 1.
    divisors = [(1, 0, 1)]
    last = (1, 0)  # the latest pivot
    done: dict[int, list] = {}  # pivot column -> [row, s]

    def update(targets, p_re, p_im, c, rest, c2=-1, both=(), exact=False):
        # Each target x becomes (p x - x_c y) / p_s at the latest step, or with a
        # second pivot column c2, (p x - x_c y - x_c2 z) / p_s; rest lists y's
        # entries off column c, and both y's and z's off columns c and c2.  Unless
        # exact, a unit divisor (n == 1) is not divided by: the row is then off by
        # a unit, which its final division removes.  y'' is exact, as it is used
        # alongside z'.
        step = len(divisors) - 1
        for row in targets:
            x, s = row
            a_re, a_im = x.pop(c, (0, 0))
            e_re, e_im, n = divisors[s]
            scale = exact or n != 1
            new = {}
            if c2 < 0:
                for j, yr, yi in rest:
                    xr, xi = x.pop(j, (0, 0))
                    r = p_re * xr - p_im * xi - a_re * yr + a_im * yi
                    i = p_re * xi + p_im * xr - a_re * yi - a_im * yr
                    if r or i:
                        new[j] = ((r * e_re - i * e_im) // n, (i * e_re + r * e_im) // n) if scale else (r, i)
            else:
                b_re, b_im = x.pop(c2, (0, 0))
                for j, yr, yi, zr, zi in both:
                    xr, xi = x.pop(j, (0, 0))
                    r = p_re * xr - p_im * xi - a_re * yr + a_im * yi - b_re * zr + b_im * zi
                    i = p_re * xi + p_im * xr - a_re * yi - a_im * yr - b_re * zi - b_im * zr
                    if r or i:
                        new[j] = ((r * e_re - i * e_im) // n, (i * e_re + r * e_im) // n) if scale else (r, i)
            for j, (xr, xi) in x.items():
                r, i = p_re * xr - p_im * xi, p_re * xi + p_im * xr
                new[j] = ((r * e_re - i * e_im) // n, (i * e_re + r * e_im) // n) if scale else (r, i)
            row[0], row[1] = new, step

    for c in range(ncols):
        if c in done:
            continue  # the second column of a two-pivot pass
        k = -1
        for i, (x, _) in enumerate(active):
            if c in x and (k < 0 or len(x) < len(active[k][0])):
                k = i
        if k < 0:
            continue
        pivot = active.pop(k)
        if pivot[1] < len(divisors) - 1:
            update([pivot], *last, -1, ())  # no pivot row: times the latest pivot, over p_s
        y = pivot[0]
        p_re, p_im = last = y[c]
        g = gcd(p_re, p_im)
        divisors.append((p_re // g, -p_im // g, (p_re * p_re + p_im * p_im) // g))
        pivot[1] = len(divisors) - 1
        rest = [(j, yr, yi) for j, (yr, yi) in y.items() if j != c]
        second, k = None, -1
        if c + 1 in y:
            for i, (x, _) in enumerate(active):
                if c + 1 in x and (k < 0 or len(x) < len(active[k][0])):
                    k = i
        if k >= 0:  # pair columns c and c + 1 if z keeps its entry in c + 1 after step c
            z = active[k][0]
            (u_re, u_im), (v_re, v_im), (w_re, w_im) = z[c + 1], z.get(c, (0, 0)), y[c + 1]
            if (p_re * u_re - p_im * u_im, p_re * u_im + p_im * u_re) != (
                v_re * w_re - v_im * w_im, v_re * w_im + v_im * w_re
            ):
                second, c2 = active.pop(k), c + 1
                update([second], p_re, p_im, c, rest)
                z = second[0]
                p_re, p_im = last = z[c2]
                g = gcd(p_re, p_im)
                divisors.append((p_re // g, -p_im // g, (p_re * p_re + p_im * p_im) // g))
                second[1] = len(divisors) - 1
                zrest = [(j, zr, zi) for j, (zr, zi) in z.items() if j != c2]
                update([pivot], p_re, p_im, c2, zrest, exact=True)
                y = pivot[0]
                both = [(j, *y.get(j, (0, 0)), *z.get(j, (0, 0))) for j in {**y, **z} if j != c and j != c2]
        if second:
            targets = [row for row in (*active, *done.values()) if c in row[0] or c2 in row[0]]
            update(targets, p_re, p_im, c, rest, c2, both)
            done[c], done[c2] = pivot, second
        else:
            update([row for row in (*active, *done.values()) if c in row[0]], p_re, p_im, c, rest)
            done[c] = pivot
        active = [row for row in active if row[0]]
    out: list[Vector] = []
    for c, (y, _) in done.items():
        p_re, p_im = y[c]
        norm = p_re * p_re + p_im * p_im
        v = zeros(ncols)
        for j, (xr, xi) in y.items():
            v[j] = _from_ints(xr * p_re + xi * p_im, xi * p_re - xr * p_im, norm)
        out.append(v)
    return out, list(done)


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
        return len(rref_sparse([{j: (x, 0) for j, x in enumerate(row) if x} for row in rows], n)[1]) < n
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
