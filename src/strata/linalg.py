"""Exact linear algebra over Q(i).

Vectors are lists of GaussianRational.  Row reduction is fully reduced
(pivots 1, zeros above and below) so that the row basis of a span is a
canonical function of the span and the fixed column order; every downstream
determinism guarantee leans on that.

``rref`` is the one eliminator.  It returns input already in reduced
echelon form as it is, and reduces other input by fraction-free forward
elimination over Z[i] and one back substitution.  Rows are dicts of nonzero
entries; a step updates only the rows not yet pivot rows with an entry in
the pivot column, takes two consecutive pivots in one pass wherever the rows
allow (Bareiss's two-step method), and lets each row lag behind the Bareiss
scale until it is next updated.  Rationals are built once, in the final
division, from Z[i] ints straight to ``(a, b, d)``.  ``bareiss_det`` is
forward elimination over Z for a determinant.  ``rank`` and ``int_singular``
first read the rows' leading columns, and eliminate (by ``rref`` and
``bareiss_det``) only when one repeats.  The vector helpers test an entry for
zero on its ints.
"""

from __future__ import annotations

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
        if c.a or c.b:
            for j, x in enumerate(v):
                if x.a or x.b:
                    out[j] = out[j] + c * x
    return out


def is_zero_vector(v: Sequence[GaussianRational]) -> bool:
    return not any(x.a or x.b for x in v)


def rref(rows: Iterable[Sequence[GaussianRational]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows (pivot entries 1, pivot columns cleared), in
    pivot column order, and the pivot column of each.

    Rows in that form up to order and zero rows (distinct leads, each exactly
    1, each lead column clear in every other row) are recognised in the scan
    that reads the entries, and come back as new lists of the same entries.

    Other rows are eliminated forward, fraction-free (Bareiss 1968), on dict
    rows over Z[i].  Among the rows not yet pivot rows, the pivot row of
    column c is the sparsest with an entry there (Markowitz 1957, in column
    order), and only those with an entry in column c change: with pivot row y
    and pivot p = y_c, such a row x becomes ``(p x - x_c y) / p_s``, p_s the
    pivot of the last step x took part in (1 before any).  A dense pass would
    also have scaled x by p_t / p_(t-1) at each step t it sat out; those
    factors telescope, so the division is exact (Nakos, Turner, Williams
    1997).  A pivot row is first brought to the current scale.

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

    Back substitution runs from the last pivot row up.  The last pivot D is
    a unit times the determinant of the pivot block, so D times a reduced
    row lies in Z[i] (Cramer's rule): pivot row u of column c gives
    ``r_c = (D u - sum_l u_l r_l) / u_c`` over later pivot columns l, exactly,
    and a unit that u is off by cancels.  Only rows with an entry in a later
    pivot column, and the rows they use, are substituted.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    active = []  # [{col: (re, im)}, s]: a row, and the index in divisors of its p_s
    reduced: dict | None = {}  # lead -> row, while the rows scanned are in reduced form
    used: set[int] = set()  # the columns those rows have an entry in
    for row in rows:
        entries = [(j, x) for j, x in enumerate(row) if x.a or x.b]
        if entries:
            den = lcm(*[x.d for _, x in entries])
            ints = {j: (x.a * (den // x.d), x.b * (den // x.d)) for j, x in entries}
            active.append([ints, 0])
            if reduced is not None:
                lead, x = entries[0]
                if x.a == x.d == 1 and not x.b and lead not in used and reduced.keys().isdisjoint(ints):
                    reduced[lead] = row
                    used.update(ints)
                else:
                    reduced = None
    if reduced is not None:
        return [list(reduced[c]) for c in sorted(reduced)], sorted(reduced)
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
            update([row for row in active if c in row[0] or c2 in row[0]], p_re, p_im, c, rest, c2, both)
            done[c], done[c2] = pivot, second
        else:
            update([row for row in active if c in row[0]], p_re, p_im, c, rest)
            done[c] = pivot
        active = [row for row in active if row[0]]
    # Back substitution: a reduced row is r_c over D, or else u over u_c.
    d_re, d_im = last
    needed = {j for c, (u, _) in done.items() for j in u if j != c and j in done}
    scaled: dict[int, dict] = {}  # column c -> r_c off the pivot columns
    for c in reversed([c for c, (u, _) in done.items() if not needed.isdisjoint(u)]):
        u, s = pivot = done[c]
        del u[c]
        later = [(scaled[j], *u.pop(j)) for j in needed.intersection(u)]
        new = {j: (d_re * xr - d_im * xi, d_re * xi + d_im * xr) for j, (xr, xi) in u.items()}
        for r, a_re, a_im in later:
            for j, (yr, yi) in r.items():
                xr, xi = new.get(j, (0, 0))
                new[j] = (xr - a_re * yr + a_im * yi, xi - a_re * yi - a_im * yr)
        e_re, e_im, n = divisors[s]
        scaled[c] = {j: ((r * e_re - i * e_im) // n, (i * e_re + r * e_im) // n) for j, (r, i) in new.items() if r or i}
        if later:
            pivot[:] = scaled[c], len(divisors) - 1
    out: list[Vector] = []
    for c, (y, s) in done.items():
        e_re, e_im, n = divisors[s]
        v = zeros(ncols)
        v[c] = ONE
        for j, (xr, xi) in y.items():
            v[j] = _from_ints(xr * e_re - xi * e_im, xi * e_re + xr * e_im, n)
        out.append(v)
    return out, list(done)


def reduce_vector(
    v: Sequence[GaussianRational], rows: Sequence[Sequence[GaussianRational]], pivots: Sequence[int]
) -> Vector:
    """Residual of ``v`` after eliminating the pivot columns of an rref basis."""
    res = list(v)
    for row, p in zip(rows, pivots):
        factor = res[p]
        if factor.a or factor.b:
            for j, x in enumerate(row):
                if x.a or x.b:
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
    support = [(j, x) for j, x in enumerate(v) if x.a or x.b]
    out = []
    for row in rows:
        total = ZERO
        for j, x in support:
            a = row[j]
            if a.a or a.b:
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


def clear_denominators(values: Sequence[tuple[int, int]]) -> list[int]:
    """Scale rationals, given as ``(numerator, denominator > 0)`` pairs, to
    coprime integers, preserving signs and ratios."""
    denom = lcm(*[d for _, d in values])
    ints = [n * (denom // d) for n, d in values]
    g = gcd(*ints) or 1  # no values, or all zero
    return [x // g for x in ints]
