"""Reference implementations kept as oracles for the residual table.

``convert`` is ``strata.plumbing.convert`` as it was before
``EquationSystem.residuals``: every horizontal-crossing row reduces the
reference node's period symbol and each crossed node's again, modulo the
span ``oracle_homology.relation_fold`` builds, ``projective_factor`` reads
the ratio of two residuals off their first nonzero column, and the exponents
come from ``Fraction`` ratios by ``oracle_linalg.clear_denominators``.  ``proportionality_obligations``
is ``strata.equations.proportionality_obligations`` from the same time: it
reduces each class member and groups the residuals by their monic vectors.

``lattice_analysis`` is ``strata.plumbing.lattice_analysis`` as it was before
it read each generator entry as I[v] - J[v]: it accumulates both sides into a
row through a variable index table, and ``smooth_by_elimination`` rescans the
binomials with progress flags after each removal.
"""

from __future__ import annotations

from fractions import Fraction

from oracle_equations import monic
from oracle_homology import relation_fold
from oracle_linalg import clear_denominators
from strata import linalg
from strata.equations import EquationSystem, consistency_report
from strata.errors import ConversionError
from strata.gaussian import ONE, GaussianRational
from strata.homology import Cycle, pair
from strata.plumbing import Analytic, Binomial, LatticeReport, PlumbingEquation, _top_restriction


def convert(system: EquationSystem, assume_theorems: bool = False) -> list[PlumbingEquation]:
    certificate = consistency_report(system, assume_theorems=assume_theorems)
    if not certificate.consistent:
        raise ConversionError(
            f"system is inconsistent (rule {certificate.rule}); nothing to convert"
        )
    relations = relation_fold(system)
    out: list[PlumbingEquation] = []
    n_units = 0
    n_analytic = 0
    for k, eq in enumerate(system.rref_rows):
        if not eq.hor_support:
            n_analytic += 1
            out.append(Analytic(f"G{n_analytic}", _top_restriction(system, eq), k))
            continue
        support = sorted(eq.hor_support)
        ref = support[0]
        ref_residual = relations.reduce(Cycle(system.basis, {}, {ref: ONE}))
        if ref_residual.is_zero():
            raise ConversionError(
                f"period over {ref} is forced to vanish; no binomial normal form",
                missing=f"lambda[{ref}] nonvanishing",
            )
        ratios: list[Fraction] = []
        for eid in support:
            residual = relations.reduce(Cycle(system.basis, {}, {eid: ONE}))
            rho = projective_factor(residual, ref_residual)
            if rho is None:
                raise ConversionError(
                    f"row {k}: no relation links the period over {eid} to the one over {ref}",
                    missing=f"lambda[{eid}] ~ lambda[{ref}]",
                )
            q = pair(eq.cycle, eid) * rho
            if not q.is_real():
                raise ConversionError(
                    f"row {k}: period ratio between {eid} and {ref} is not rational",
                    missing=f"rational ratio lambda[{eid}] ~ lambda[{ref}]",
                )
            ratios.append(q.as_fraction())
        exponents = clear_denominators(ratios)
        if exponents[0] < 0:
            exponents = [-n for n in exponents]
        if all(n > 0 for n in exponents) or all(n < 0 for n in exponents):
            raise ConversionError(
                f"row {k}: all log coefficients share a sign; boundary point not in closure"
            )
        i_exp = tuple([(eid, n) for eid, n in zip(support, exponents) if n > 0])
        j_exp = tuple([(eid, -n) for eid, n in zip(support, exponents) if n < 0])
        n_units += 1
        out.append(Binomial(f"f{n_units}", i_exp, j_exp, k))
    return out


def projective_factor(candidate: Cycle, reference: Cycle) -> GaussianRational | None:
    """rho with candidate == rho * reference, or None."""
    col = next((k for k, a in enumerate(candidate.vector) if a), None)
    if col is None or not reference.vector[col]:
        return None
    rho = candidate.vector[col] / reference.vector[col]
    return rho if candidate == reference.scale(rho) else None


def proportionality_obligations(
    system: EquationSystem,
) -> tuple[list[tuple[str, str]], list[tuple[str, Cycle]]]:
    relations = relation_fold(system)
    obligations: list[tuple[str, str]] = []
    forced: list[tuple[str, Cycle]] = []
    for cls in system.cross_equivalence_classes:
        if len(cls) < 2:
            continue
        reps: dict[tuple, str] = {}
        order: list[str] = []
        for eid in sorted(cls):
            residual = relations.reduce(Cycle(system.basis, {}, {eid: ONE}))
            if residual.is_zero():
                forced.append((eid, Cycle(system.basis, {}, {eid: ONE})))
                continue
            key = monic(residual).vector
            if key not in reps:
                reps[key] = eid
                order.append(eid)
        for a, b in zip(order, order[1:]):
            obligations.append((a, b))
    return obligations, forced


def lattice_analysis(binomials: list[Binomial]) -> LatticeReport:
    variables = sorted({v for b in binomials for v in b.variables})
    index = {v: k for k, v in enumerate(variables)}
    generators = []
    for b in binomials:
        row = [0] * len(variables)
        for eid, n in b.i_exp:
            row[index[eid]] += n
        for eid, n in b.j_exp:
            row[index[eid]] -= n
        generators.append(tuple(row))
    saturated = linalg.lattice_is_saturated([list(g) for g in generators])
    return LatticeReport(smooth_by_elimination(binomials), saturated, tuple(generators))


def smooth_by_elimination(binomials: list[Binomial]) -> bool:
    remaining = [(dict(b.i_exp), dict(b.j_exp)) for b in binomials]
    while remaining:
        progress = False
        for idx, (i_exp, j_exp) in enumerate(remaining):
            for side in (i_exp, j_exp):
                if len(side) != 1:
                    continue
                ((var, exp),) = side.items()
                if exp != 1:
                    continue
                elsewhere = any(
                    var in other_i or var in other_j
                    for k, (other_i, other_j) in enumerate(remaining)
                    if k != idx
                )
                if not elsewhere:
                    remaining.pop(idx)
                    progress = True
                    break
            if progress:
                break
        if not progress:
            return False
    return True

