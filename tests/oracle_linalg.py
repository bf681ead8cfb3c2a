"""Reference implementations kept as oracles for the fast paths in ``strata``.

``rref`` is the Fraction-based Gauss-Jordan elimination that ``strata.linalg``
used before it moved to fraction-free elimination over the Gaussian integers.
It is deliberately slow and obvious: every pivot row is scaled to 1 and every
other row is cleared with exact Q(i) arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from strata.gaussian import ONE, GaussianRational
from strata.linalg import Vector, vec_scale, vec_sub


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
