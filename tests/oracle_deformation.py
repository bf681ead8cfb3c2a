"""Reference implementations kept as oracles for the in-place deformation check.

``check_preserved`` is the check ``strata.deformation`` ran before it evaluated
each row in place: it builds the deformed ``PeriodAssignment`` with
``apply_deformation`` (which copies the assignment through ``replace_basis``,
formerly ``PeriodAssignment.replace_basis``), evaluates every row at both
assignments, and evaluates the cross-class remainder of a class-supported row
as the ``Cycle`` that ``horizontal_decomposition`` builds with the cross-curve
columns zeroed.  It reads the stretch r and the shear s as ``Fraction``s, as
the ``ShearStretch`` record it took did.  They are deliberately slow and obvious.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from strata.deformation import (
    CylinderClass,
    DeformationReport,
    RowOutcome,
    _render_value,
)
from strata.equations import EquationSystem, hor_support
from strata.errors import DeformationError
from strata.gaussian import ZERO, GaussianRational
from strata.homology import Cycle, pair
from strata.periods import PeriodAssignment, _is_zero, evaluate


def replace_basis(assignment: PeriodAssignment, updates: Mapping) -> PeriodAssignment:
    merged = dict(assignment.basis_values)
    merged.update(updates)
    return PeriodAssignment(merged, assignment.lam_values, exact=assignment.exact)


def _fraction(q) -> Fraction:
    """An int, a Fraction or an ``(n, d)`` pair as a Fraction."""
    return Fraction(*q) if type(q) is tuple else Fraction(q)


def apply_deformation(assignment: PeriodAssignment, cls: CylinderClass, r, s) -> PeriodAssignment:
    """Stretch by r and shear by s the cross-curve periods of one class; fix the rest.

    Circumference periods and every other coordinate are untouched: the
    matrix fixes horizontal vectors.
    """
    r, s = _fraction(r), _fraction(s)
    if r <= 0:
        raise DeformationError(f"stretch factor must be positive, got {r}")
    updates = {}
    for _, name in cls.cross_curves:
        v = assignment.value("b", name)
        if assignment.exact:
            x, y = v.re, v.im
            updates[name] = GaussianRational(x + s * y, r * y)
        else:
            x, y = v.real, v.imag
            updates[name] = complex(x + float(s) * y, float(r) * y)
    return replace_basis(assignment, updates)


def horizontal_decomposition(cycle: Cycle, cls: CylinderClass):
    """Split F into cross-curve terms plus a remainder missing the class.

    Returns (beta, coefficients) with F = beta + sum of c_e * (cross-curve of
    e); adaptedness makes c_e the pairing of F with e, so beta pairs to zero
    with every class edge.
    """
    support = hor_support(cycle)
    if not support <= set(cls.edges):
        raise DeformationError(f"support {sorted(support)} is not contained in the class {list(cls.edges)}")
    coefficients: dict[str, GaussianRational] = {}
    vector = list(cycle.vector)
    for eid, name in cls.cross_curves:
        col = cycle.basis.column_index[("b", name)]
        coefficients[eid] = vector[col]
        vector[col] = ZERO
    beta = Cycle.from_vector(cycle.basis, vector)
    for eid in cls.edges:
        assert not pair(beta, eid)
    return beta, coefficients


def check_preserved(
    system: EquationSystem,
    assignment: PeriodAssignment,
    cls: CylinderClass,
    r,
    s,
) -> DeformationReport:
    """Evaluate every row before and after the deformation, on two assignments."""
    if not system.real:
        raise DeformationError("cylinder deformation requires real coefficients")
    deformed = apply_deformation(assignment, cls, r, s)
    class_edges = set(cls.edges)
    outcomes: list[RowOutcome] = []
    for j, eq in enumerate(system.rref_rows):
        residual = evaluate(eq.cycle, deformed)
        base = evaluate(eq.cycle, assignment)
        note = ""
        covered = True
        if not _is_zero(base, assignment.exact):
            covered = False
            note = "row does not vanish at the base point"
        elif eq.hor_support & class_edges:
            if not eq.hor_support <= class_edges:
                covered = False
                note = "support is not contained in the deformed class"
            else:
                beta, _ = horizontal_decomposition(eq.cycle, cls)
                beta_value = evaluate(beta, assignment)
                imag = beta_value.im if assignment.exact else beta_value.imag
                if not _is_zero(imag, assignment.exact):
                    covered = False
                    note = "cross-class remainder has nonzero imaginary part"
        if not covered:
            outcomes.append(RowOutcome(j, "not-covered", _render_value(residual), note))
        elif _is_zero(residual, assignment.exact):
            outcomes.append(RowOutcome(j, "preserved", _render_value(residual), ""))
        else:
            outcomes.append(
                RowOutcome(j, "residual-nonzero", _render_value(residual), "unexpected residual")
            )
    return DeformationReport(tuple(outcomes))
