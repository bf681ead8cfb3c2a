"""Period-level cylinder deformations.

A stretch/shear acts on the cross-curve periods of one cross-equivalence
class C of horizontal nodes and fixes everything else: with γ_e the
cross-curve of edge e, ω(γ_e) = x + iy moves to (x + sy) + i·ry.  Every row F
is linear, so F(ω_{r,s}) = F(ω) + (s + i(r − 1))·L(F), where
L(F) = Σ_{e∈C} F[γ_e]·Im ω(γ_e).  The checker evaluates F in place at ω, at ω
with C's cross-curve columns moved, and with those columns set to zero, which
is the cross-class remainder β(ω); it builds no second assignment.

With real rows the hypotheses force L(F) = 0, so a covered row is preserved
exactly.  A covered row has F(ω) = 0.  If its support misses C, F[γ_e] is F's
pairing with e and vanishes.  If its support lies in C, Im β(ω) = 0 and
Im F(ω) = Im β(ω) + L(F) = 0.  So `residual-nonzero` can only come from
approximate mode, where F(ω) and Im β(ω) pass a 1e-9 tolerance that the
residual, scaled by s and r, need not.
"""

from __future__ import annotations

from typing import NamedTuple

from .equations import EquationSystem, _int_ratio, cross_equivalence_classes
from .errors import DeformationError
from .gaussian import ZERO, GaussianRational, _from_ints, _rational_str
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
    system: EquationSystem, assignment: PeriodAssignment, cls: CylinderClass, r, s
) -> DeformationReport:
    """Evaluate every row before and after the stretch r > 0 and shear s (each an
    int, a Fraction or an ``(n, d > 0)`` pair), acting as (x, y) -> (x + s y, r y).

    Rows whose support meets the class must have support inside it and a real
    cross-class remainder; rows violating those hypotheses (or not vanishing
    at the base point) are listed as not covered rather than failed.  Covered
    rows must come back exactly zero in exact mode.
    """
    if not system.real:
        raise DeformationError("cylinder deformation requires real coefficients")
    (r_n, r_d), (s_n, s_d) = _ratio(r, "stretch factor r"), _ratio(s, "shear s")
    if r_n <= 0:
        raise DeformationError(f"stretch factor must be positive, got {_rational_str(r_n, r_d)}")
    exact = assignment.exact
    if not exact:
        r, s = _float(r_n, r_d, "stretch factor r"), _float(s_n, s_d, "shear s")
    moved, cut = {}, {}
    for _, name in cls.cross_curves:
        col = system.basis.column_index[("b", name)]
        v = assignment.value("b", name)
        if exact:
            moved[col] = _from_ints((v.a * s_d + s_n * v.b) * r_d, r_n * v.b * s_d, v.d * s_d * r_d)
        else:
            moved[col] = z = complex(v.real + s * v.imag, r * v.imag)
            if z - z != 0:  # inf - inf and nan - nan are nan
                raise DeformationError(f"the moved period of {name} is past the float range of approximate mode")
        cut[col] = ZERO if exact else 0j
    class_edges = set(cls.edges)
    outcomes: list[RowOutcome] = []
    for j, eq in enumerate(system.rref_rows):
        residual = evaluate(eq.cycle, assignment, moved)
        note = ""
        if not _is_zero(evaluate(eq.cycle, assignment), exact):
            note = "row does not vanish at the base point"
        elif eq.hor_support & class_edges:
            if not eq.hor_support <= class_edges:
                note = "support is not contained in the deformed class"
            else:
                beta = evaluate(eq.cycle, assignment, cut)
                if not _is_zero(beta.b if exact else beta.imag, exact):
                    note = "cross-class remainder has nonzero imaginary part"
        if note:
            status = "not-covered"
        elif _is_zero(residual, exact):
            status = "preserved"
        else:
            status, note = "residual-nonzero", "unexpected residual"
        outcomes.append(RowOutcome(j, status, _render_value(residual), note))
    return DeformationReport(tuple(outcomes))


def _ratio(value, name: str) -> tuple[int, int]:
    if type(value) is tuple and value[1] <= 0:
        raise DeformationError(f"{name} needs a positive denominator, got {value[1]}")
    return _int_ratio(value)


def _float(n: int, d: int, name: str) -> float:
    try:
        return n / d  # rounds as float(Fraction(n, d)) does
    except OverflowError:
        raise DeformationError(f"{name} is past the float range of approximate mode") from None


def _render_value(value) -> str:
    if isinstance(value, GaussianRational):
        return str(value)
    return repr(value)
