"""Period-level cylinder deformations.

A stretch/shear acts on the cross-curve periods of one cross-equivalence
class of horizontal nodes and fixes everything else.  With real defining
equations, class-contained supports, and real cross-class remainders, every
defining equation is preserved exactly; the checker verifies that computation
on explicit period assignments (``periods``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .equations import EquationSystem, cross_equivalence_classes, hor_support
from .errors import DeformationError
from .gaussian import ZERO, GaussianRational
from .homology import Cycle, pair
from .periods import PeriodAssignment, _is_zero, evaluate


class CylinderClass(NamedTuple):
    """One cross-equivalence class with a designated cross-curve per node."""

    edges: tuple[str, ...]
    cross_curves: tuple[tuple[str, str], ...]  # (edge, crossing basis element)

    @staticmethod
    def from_edge(system: EquationSystem, eid: str) -> "CylinderClass":
        for cls in cross_equivalence_classes(system):
            if eid in cls:
                members = tuple(sorted(cls))
                curves = []
                for e in members:
                    name = system.basis.crossing_element_for(e)
                    if name is None:
                        text = f"edge {e} has no crossing basis element; the class is not cylinder-equipped"
                        raise DeformationError(text)
                    curves.append((e, name))
                return CylinderClass(members, tuple(curves))
        raise DeformationError(f"{eid} is not a horizontal edge")

    def curve_names(self) -> tuple[str, ...]:
        return tuple([name for _, name in self.cross_curves])


class _ShearStretch(NamedTuple):
    r: Fraction
    s: Fraction


class ShearStretch(_ShearStretch):
    """Vertical stretch r > 0 and shear s, acting as (x, y) -> (x + s y, r y)."""

    __slots__ = ()

    def __new__(cls, r: Fraction, s: Fraction) -> "ShearStretch":
        if r <= 0:
            raise DeformationError(f"stretch factor must be positive, got {r}")
        return super().__new__(cls, r, s)


def apply_deformation(
    assignment: PeriodAssignment, cls: CylinderClass, move: ShearStretch
) -> PeriodAssignment:
    """Stretch/shear the cross-curve periods of one class; fix the rest.

    Circumference periods and every other coordinate are untouched: the
    matrix fixes horizontal vectors.
    """
    updates = {}
    for _, name in cls.cross_curves:
        v = assignment.value("b", name)
        if assignment.exact:
            x, y = v.re, v.im
            updates[name] = GaussianRational(x + move.s * y, move.r * y)
        else:
            x, y = v.real, v.imag
            updates[name] = complex(x + float(move.s) * y, float(move.r) * y)
    return assignment.replace_basis(updates)


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


class RowOutcome(NamedTuple):
    index: int
    status: str  # "preserved" | "not-covered" | "residual-nonzero"
    residual: str
    note: str


class DeformationReport(NamedTuple):
    rows: tuple[RowOutcome, ...]

    @property
    def all_preserved(self) -> bool:
        return all(r.status == "preserved" for r in self.rows)


def check_preserved(
    system: EquationSystem,
    assignment: PeriodAssignment,
    cls: CylinderClass,
    move: ShearStretch,
) -> DeformationReport:
    """Evaluate every row before and after the deformation.

    Rows whose support meets the class must have support inside it and a real
    cross-class remainder; rows violating those hypotheses (or not vanishing
    at the base point) are listed as not covered rather than failed.  Covered
    rows must come back exactly zero in exact mode.
    """
    if not system.real:
        raise DeformationError("cylinder deformation requires real coefficients")
    deformed = apply_deformation(assignment, cls, move)
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


def _render_value(value) -> str:
    if isinstance(value, GaussianRational):
        return str(value)
    return repr(value)
