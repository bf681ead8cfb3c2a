"""Period-level cylinder deformations.

A stretch/shear acts on the cross-curve periods of one cross-equivalence
class of horizontal nodes and fixes everything else.  With real defining
equations, class-contained supports, and real cross-class remainders, every
defining equation is preserved exactly; the checker verifies that computation
on explicit period assignments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .equations import EquationSystem, cross_equivalence_classes, hor_support
from .errors import DeformationError, Violation
from .gaussian import ZERO, GaussianRational
from .homology import Cycle, pair

TOLERANCE = 1e-9


class PeriodAssignment:
    """A value for every basis element and every vanishing cycle.

    Exact assignments hold Gaussian rationals and all checks are exact;
    approximate assignments hold complex floats and compare against a fixed
    absolute tolerance of 1e-9.
    """

    def __init__(self, basis_values: Mapping, lam_values: Mapping, exact: bool = True):
        self.exact = exact

        def convert(v):
            if not exact:
                return complex(v)
            return v if isinstance(v, GaussianRational) else GaussianRational(v)

        self.basis_values = {k: convert(v) for k, v in basis_values.items()}
        self.lam_values = {k: convert(v) for k, v in lam_values.items()}

    def value(self, kind: str, key: str):
        table = self.basis_values if kind == "b" else self.lam_values
        if key not in table:
            raise DeformationError(f"no period value for {kind}:{key}")
        return table[key]

    def replace_basis(self, updates: Mapping) -> "PeriodAssignment":
        merged = dict(self.basis_values)
        merged.update(updates)
        return PeriodAssignment(merged, self.lam_values, exact=self.exact)


def evaluate(cycle: Cycle, assignment: PeriodAssignment):
    """Period of a cycle under an assignment: linear in both arguments.
    Terms are added in column order, which fixes approximate rounding."""
    exact = assignment.exact
    total = ZERO if exact else 0j
    for (kind, key), c in zip(cycle.basis.columns(), cycle.vector):
        if c:
            total = total + (c if exact else c.to_complex()) * assignment.value(kind, key)
    return total


def _is_zero(value, exact: bool) -> bool:
    if exact:
        return not value
    return abs(value) <= TOLERANCE


def validate_assignment(assignment: PeriodAssignment, system: EquationSystem) -> list[Violation]:
    """Completeness plus every declared relation and ratio, to exact zero or
    below the approximate-mode tolerance."""
    out: list[Violation] = []
    for el in system.basis.elements:
        if el.name not in assignment.basis_values:
            out.append(Violation(f"period {el.name}", "complete", "missing basis value"))
    for edge in system.graph.edges:
        if edge.id not in assignment.lam_values:
            out.append(Violation(f"period lambda[{edge.id}]", "complete", "missing edge value"))
    if out:
        return out
    for k, rel in enumerate(system.relations):
        if not _is_zero(evaluate(rel, assignment), assignment.exact):
            out.append(Violation(f"relation {k}", "relations-hold", f"{rel.render()} != 0"))
    # A self-ratio has no form: it holds once q = 1, which the system's violations demand.
    linked = [(e, ep) for e, ep, _ in system.ratios.entries if e != ep]
    for (e, ep), form in zip(linked, system.ratio_forms):
        if not _is_zero(evaluate(form, assignment), assignment.exact):
            out.append(Violation(f"ratio {e}~{ep}", "ratios-hold", "declared ratio violated"))
    return out


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
                        raise DeformationError(
                            f"edge {e} has no crossing basis element; the class is not"
                            " cylinder-equipped"
                        )
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
        raise DeformationError(
            f"support {sorted(support)} is not contained in the class {list(cls.edges)}"
        )
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
