"""Period-to-plumbing conversion and the toric local model.

Near the boundary, a defining equation that crosses horizontal nodes picks up
logarithms of the node plumbing parameters, one per crossed node, each
weighted by the corresponding vanishing-cycle period.  Once those periods are
pairwise proportional with rational ratios, clearing denominators and
exponentiating turns the equation into a binomial in the plumbing parameters
times an analytic unit; equations crossing nothing extend analytically with
their top-level restriction as leading part.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .equations import (
    Equation,
    EquationSystem,
    consistency_report,
    cross_equivalence_classes,
)
from .errors import ConversionError, PlumbingError
from .gaussian import ONE, ZERO
from .homology import Cycle, pair


class Binomial(NamedTuple):
    """Normalized unit * s^I - s^J with disjoint positive supports, gcd 1."""

    unit: str
    i_exp: tuple[tuple[str, int], ...]
    j_exp: tuple[tuple[str, int], ...]
    source: int  # index into the rref rows

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(dict(self.i_exp) | dict(self.j_exp)))

    def render(self) -> str:
        def monomial(exps):
            parts = []
            for eid, n in exps:
                parts.append(f"s[{eid}]" + (f"^{n}" if n != 1 else ""))
            return "*".join(parts) if parts else "1"

        return f"exp({self.unit})*{monomial(self.i_exp)} - {monomial(self.j_exp)} = 0"


class Analytic(NamedTuple):
    """An equation extending holomorphically, with its linear leading part."""

    symbol: str
    top_restriction: Cycle
    source: int

    def render(self) -> str:
        return f"{self.symbol} = 0 with leading part {self.top_restriction.render()}"


PlumbingEquation = Binomial | Analytic


def _top_restriction(system: EquationSystem, eq: Equation) -> Cycle:
    levels = system.basis.column_levels
    vector = [x if level == eq.top else ZERO for x, level in zip(eq.cycle.vector, levels)]
    return Cycle.from_vector(system.basis, vector)


def convert(system: EquationSystem, assume_theorems: bool = False) -> list[PlumbingEquation]:
    """Convert every rref row to a plumbing-coordinate equation.

    Horizontal-crossing rows need their period-log coefficient vector reduced
    to a single ray: every crossed node's period must be a nonzero rational
    multiple of the reference node's, modulo the declared relations, ratios,
    and pure-period rows.  Failing that is a conversion obstruction; a
    coefficient vector of one sign would contradict the boundary point lying
    in the closure at all.  Each ratio is a quotient of leads from
    ``EquationSystem.residuals``: the consistency gate refuses every system
    with a zero residual, so every lead read here is nonzero.
    """
    certificate = consistency_report(system, assume_theorems=assume_theorems)
    if not certificate.consistent:
        raise ConversionError(
            f"system is inconsistent (rule {certificate.rule}); nothing to convert"
        )
    residuals = system.residuals
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
        ref_lead, ref_key = residuals[ref]
        ratios: list[tuple[int, int]] = []
        for eid in support:
            lead, key = residuals[eid]
            if key != ref_key:
                raise ConversionError(
                    f"row {k}: no relation links the period over {eid} to the one over {ref}",
                    missing=f"lambda[{eid}] ~ lambda[{ref}]",
                )
            q = pair(eq.cycle, eid) * (lead / ref_lead)
            if not q.is_real():
                raise ConversionError(
                    f"row {k}: period ratio between {eid} and {ref} is not rational",
                    missing=f"rational ratio lambda[{eid}] ~ lambda[{ref}]",
                )
            ratios.append((q.a, q.d))
        exponents = linalg.clear_denominators(ratios)
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


class LocalModel(NamedTuple):
    """Product structure of a local irreducible component near the boundary.

    The smooth factor carries the passage parameters and the non-crossing
    directions; each cross-equivalence class of horizontal nodes contributes
    an independent binomial factor in its own plumbing variables.
    """

    system: EquationSystem
    smooth_dim: int
    t_params: tuple[str, ...]
    analytic: tuple[Analytic, ...]
    blocks: tuple[tuple[tuple[str, ...], tuple[Binomial, ...]], ...]
    unit_absorption: tuple[tuple[str, str], ...]  # (unit symbol, absorbing variable)


def local_model(converted: list[PlumbingEquation], system: EquationSystem) -> LocalModel:
    """Group converted equations into the smooth times binomial product."""
    analytic = tuple([p for p in converted if isinstance(p, Analytic)])
    binomials = [p for p in converted if isinstance(p, Binomial)]
    classes = cross_equivalence_classes(system)
    grouped: dict[frozenset[str], list[Binomial]] = {}
    for b in binomials:
        variables = set(b.variables)
        owners = [cls for cls in classes if variables <= cls]
        if not owners:
            raise PlumbingError(
                f"binomial variables {sorted(variables)} straddle cross-equivalence classes"
            )
        grouped.setdefault(owners[0], []).append(b)
    blocks = tuple(
        [
            (tuple(sorted(cls)), tuple(sorted(grouped[cls], key=lambda b: b.source)))
            for cls in sorted(grouped, key=lambda c: sorted(c))
        ]
    )
    ambient = len(system.basis.elements) - len(system.graph.horizontal_edges)
    smooth_dim = ambient - len(analytic)
    t_params = tuple([f"t[{i}]" for i in system.graph.passage_indices()])
    absorption = tuple([(b.unit, f"s[{b.i_exp[0][0]}]") for b in binomials])
    return LocalModel(system, smooth_dim, t_params, analytic, blocks, absorption)


class LatticeReport(NamedTuple):
    smooth: bool
    saturated: bool
    generators: tuple[tuple[int, ...], ...]

    @property
    def label(self) -> str:
        return "smooth" if self.smooth else "toric-singular"


def lattice_analysis(binomials: list[Binomial]) -> LatticeReport:
    """Exponent-lattice analysis of one class's binomial system.

    The difference vectors I - J span the exponent lattice; the report states
    whether that lattice is saturated in the ambient integer lattice (every
    invariant factor 1) and whether the factor is smooth, detected by
    iteratively eliminating binomials with a lone unit-exponent side whose
    variable appears nowhere else.  The two sides have disjoint supports, so
    a generator's entry at v is I[v] - J[v].
    """
    sides = [(dict(b.i_exp), dict(b.j_exp)) for b in binomials]
    variables = sorted({v for b in binomials for v in b.variables})
    generators = tuple([tuple([i.get(v, 0) - j.get(v, 0) for v in variables]) for i, j in sides])
    saturated = linalg.lattice_is_saturated(generators)
    return LatticeReport(_smooth_by_elimination(sides), saturated, generators)


def _smooth_by_elimination(sides: list[tuple[dict[str, int], dict[str, int]]]) -> bool:
    """Whether removing, each time, the first binomial with a side s[v] whose v
    appears in no other binomial empties the list."""
    remaining = list(sides)
    while remaining:
        for idx, binomial in enumerate(remaining):
            others = remaining[:idx] + remaining[idx + 1 :]
            if any(
                side == {v: 1} and all(v not in i and v not in j for i, j in others)
                for side in binomial
                for v in side
            ):
                del remaining[idx]
                break
        else:
            return False
    return True


class SmoothingWitness(NamedTuple):
    t_directions: tuple[str, ...]
    class_blocks: tuple[tuple[str, ...], ...]

    def render(self) -> str:
        parts = []
        if self.t_directions:
            parts.append("free passage directions " + ", ".join(self.t_directions))
        for block in self.class_blocks:
            parts.append(
                "move plumbing block {" + ", ".join(block) + "} to the reference point"
                " (all coordinates nonzero)"
            )
        return "; ".join(parts) if parts else "nothing to smooth"


def can_smooth(
    model: LocalModel, passages_to_smooth=(), edges_to_smooth=()
) -> SmoothingWitness:
    """Coordinate directions realizing a requested smoothing.

    Passage parameters are free coordinates on the smooth factor; a whole
    cross-equivalence class is smoothed by moving its plumbing block to the
    reference point's nonzero values.  Anything less than a whole class is
    refused: the product structure only controls entire blocks.
    """
    system = model.system
    graph = system.graph
    valid_passages = set(graph.passage_indices())
    for i in passages_to_smooth:
        if i not in valid_passages:
            raise PlumbingError(f"no level passage {i}")
    requested = set(edges_to_smooth)
    horizontal = set(graph.horizontal_edges)
    if not requested <= horizontal:
        raise PlumbingError(f"not horizontal edges: {sorted(requested - horizontal)}")
    blocks: list[tuple[str, ...]] = []
    for cls in cross_equivalence_classes(system):
        touched = requested & cls
        if not touched:
            continue
        if touched != cls:
            raise PlumbingError(
                "partial class smoothing not guaranteed: "
                f"{sorted(touched)} is a proper subset of the class {sorted(cls)}"
            )
        blocks.append(tuple(sorted(cls)))
    return SmoothingWitness(
        tuple([f"t[{i}]" for i in sorted(passages_to_smooth, reverse=True)]),
        tuple(sorted(blocks)),
    )


class HurwitzCertificate(NamedTuple):
    kind: str  # "impossible-horizontal-node" | "smooth-normal-crossing"
    edges: tuple[str, ...]
    detail: str


def hurwitz_rule(system: EquationSystem) -> HurwitzCertificate | None:
    """Certificates available when residues are forced to vanish.

    If the span forces a horizontal vanishing-cycle period to zero, no such
    boundary point exists (horizontal nodes carry simple poles).  If instead
    every row crosses nothing, the local component is smooth with normal
    crossing boundary.  An empty system forces neither.
    """
    if system.rank == 0:
        return None
    forced = [
        eid
        for eid in system.graph.horizontal_edges
        if system.span_contains(Cycle(system.basis, {}, {eid: ONE}))
    ]
    if forced:
        return HurwitzCertificate(
            "impossible-horizontal-node",
            tuple(forced),
            "the span forces a horizontal residue to vanish, so this boundary point"
            " cannot lie in the closure",
        )
    if all(not eq.hor_support for eq in system.rref_rows):
        return HurwitzCertificate(
            "smooth-normal-crossing",
            (),
            "all rows extend analytically: the local component is smooth and its"
            " boundary is normal crossing",
        )
    return None
