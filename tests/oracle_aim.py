"""Reference implementations kept as oracles for the symplectic fast paths.

``matvec`` is the dense product ``strata.linalg`` used before it skipped zero
entries.  ``tangent_absolute`` and ``subspace_report`` are the tangent-image
pipeline ``strata.aim`` ran before J, its inverse and the image were memoised:
every call inverts J afresh and the Gram matrix recomputes ``J v`` for every
(v, w) pair.  They are deliberately slow and obvious.
"""

from __future__ import annotations

from typing import Sequence

from strata import linalg
from strata.aim import SubspaceReport, SymplecticData, validate_symplectic
from strata.equations import EquationSystem
from strata.errors import AimError
from strata.gaussian import ZERO, GaussianRational


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
    tangent = linalg.nullspace(system.extended_rows[0], len(system.basis.columns()))
    iota_rows = [c.to_vector() for c in data.iota]
    images = [matvec(iota_rows, v) for v in tangent]
    j_rows = [[GaussianRational(x) for x in row] for row in data.j_matrix]
    j_inv = linalg.invert(j_rows)
    assert j_inv is not None
    homology_vectors = [matvec(j_inv, w) for w in images]
    return subspace_report(data.j_matrix, homology_vectors)
