"""A document's period assignment and its validity gate: only documents carrying
a periods block import this module.  The deformation check lives in ``deformation``."""

from __future__ import annotations

from typing import Mapping

from .equations import EquationSystem
from .errors import DeformationError, Violation
from .gaussian import ZERO, GaussianRational
from .homology import Cycle

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


def evaluate(cycle: Cycle, assignment: PeriodAssignment, override: Mapping = {}):
    """Period of a cycle under an assignment: linear in both arguments.
    A column index in ``override`` takes its value from there instead.
    Terms are added in column order, which fixes approximate rounding.  An
    approximate coefficient past the float range, or a term that takes the
    sum past it, raises DeformationError."""
    exact = assignment.exact
    total = ZERO if exact else 0j
    try:
        for col, ((kind, key), c) in enumerate(zip(cycle.basis.columns(), cycle.vector)):
            if c:
                value = override[col] if col in override else assignment.value(kind, key)
                total = total + (c if exact else c.to_complex()) * value
                if not exact and total - total != 0:  # inf - inf and nan - nan are nan
                    raise DeformationError(
                        f"the term of {_symbol(kind, key)} takes the sum past the float range of approximate mode"
                    )
    except OverflowError:  # only to_complex raises it
        raise DeformationError(
            f"the coefficient of {_symbol(kind, key)} is past the float range of approximate mode"
        ) from None
    return total


def _symbol(kind: str, key: str) -> str:
    return key if kind == "b" else f"lambda[{key}]"


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
    checks = [(f"relation {k}", "relations-hold", rel) for k, rel in enumerate(system.relations)]
    # A self-ratio has no form: it holds once q = 1, which the system's violations demand.
    linked = [(e, ep) for e, ep, _, _ in system.ratios.declared if e != ep]
    checks += [(f"ratio {e}~{ep}", "ratios-hold", form) for (e, ep), form in zip(linked, system.ratio_forms)]
    for subject, rule, form in checks:
        try:
            if _is_zero(evaluate(form, assignment), assignment.exact):
                continue
            detail = f"{form.render()} != 0" if rule == "relations-hold" else "declared ratio violated"
        except DeformationError as exc:  # a coefficient past the float range
            detail = str(exc)
        out.append(Violation(subject, rule, detail))
    return out
