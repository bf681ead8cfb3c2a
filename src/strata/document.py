"""The analysis-document schema.

One JSON document carries a level graph, an adapted basis, an equation
system, and optionally symplectic data, a period assignment, and deformation
requests.  Parsing is strict about shapes and literals (syntactic problems
raise DocumentParseError, which the CLI maps to exit 64); referential and
mathematical problems are returned as violations (exit 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .aim import SymplecticData, validate_symplectic
from .deformation import PeriodAssignment, ShearStretch, validate_assignment
from .equations import EquationSystem, ProportionalityData, system_violations
from .errors import DocumentParseError, Violation
from .gaussian import GaussianRational, parse_gaussian, parse_rational
from .homology import (
    DECLARED,
    AdaptedBasis,
    BasisElement,
    Cycle,
    LambdaRelationSet,
    validate_adapted,
)
from .level_graph import Edge, EnhancedLevelGraph, Marking, Vertex, validate

SCHEMA_VERSION = "sbv-1"


def _expect(data: Any, kind: type, path: str):
    names = {dict: "object", list: "array", str: "string", int: "integer", bool: "boolean"}
    if kind is int and isinstance(data, bool):
        raise DocumentParseError(f"expected {names[kind]}", path)
    if not isinstance(data, kind):
        raise DocumentParseError(f"expected {names[kind]}, got {type(data).__name__}", path)
    return data


def _get(data: dict, key: str, kind: type, path: str, default=_expect):
    if key not in data:
        if default is _expect:
            raise DocumentParseError(f"missing required key {key!r}", path)
        return default
    return _expect(data[key], kind, f"{path}.{key}")


def _optional(data: dict, key: str, kind: type, path: str):
    if key not in data or data[key] is None:
        return None
    return _expect(data[key], kind, f"{path}.{key}")


@dataclass
class RawEquation:
    coeffs: dict[str, GaussianRational]
    lam: dict[str, GaussianRational]


@dataclass
class RawRelation:
    coeffs: dict[str, GaussianRational]
    lam: dict[str, GaussianRational]
    provenance: str


@dataclass
class RawSymplectic:
    j_matrix: tuple[tuple[int, ...], ...]
    iota: tuple[tuple[GaussianRational, ...], ...]
    u_lambda: dict[str, tuple[GaussianRational, ...]]
    minimal: bool


@dataclass
class RawPeriods:
    basis_values: dict[str, Any]
    lam_values: dict[str, Any]
    exact: bool


@dataclass
class DeformationSpec:
    class_edge: str
    r: Fraction
    s: Fraction


class AnalysisDocument:
    """Parsed document plus lazy construction of the analysis objects."""

    def __init__(
        self,
        graph: EnhancedLevelGraph,
        basis: AdaptedBasis,
        equations: list[RawEquation],
        ratios: list[tuple[str, str, Fraction]],
        relations: list[RawRelation],
        real: bool,
        minimal_stratum: bool,
        nonvanishing: list[str],
        symplectic: RawSymplectic | None,
        periods: RawPeriods | None,
        deformations: list[DeformationSpec],
    ):
        self.graph = graph
        self.basis = basis
        self.raw_equations = equations
        self.raw_ratios = ratios
        self.raw_relations = relations
        self.real = real
        self.minimal_stratum = minimal_stratum
        self.nonvanishing = nonvanishing
        self.raw_symplectic = symplectic
        self.raw_periods = periods
        self.deformations = deformations
        self._system: EquationSystem | None = None

    # -- reference checks ---------------------------------------------------

    def _reference_violations(self) -> list[Violation]:
        out: list[Violation] = []
        names = set(self.basis.names)
        edges = {e.id for e in self.graph.edges}

        def check_carriers(coeffs, lam, subject):
            for name in sorted(coeffs):
                if name not in names:
                    out.append(Violation(subject, "references", f"unknown basis element {name}"))
            for eid in sorted(lam):
                if eid not in edges:
                    out.append(Violation(subject, "references", f"unknown edge {eid}"))

        for k, eq in enumerate(self.raw_equations):
            check_carriers(eq.coeffs, eq.lam, f"equation {k}")
        for k, rel in enumerate(self.raw_relations):
            check_carriers(rel.coeffs, rel.lam, f"relation {k}")
        for e, ep, _ in self.raw_ratios:
            for eid in (e, ep):
                if eid not in edges:
                    out.append(Violation(f"ratio {e}~{ep}", "references", f"unknown edge {eid}"))
        for eid in self.nonvanishing:
            if eid not in edges:
                out.append(Violation(f"nonvanishing {eid}", "references", "unknown edge"))
        if self.raw_symplectic is not None:
            for eid in sorted(self.raw_symplectic.u_lambda):
                if eid not in edges:
                    out.append(Violation(f"u_lambda {eid}", "references", "unknown edge"))
            n = len(self.raw_symplectic.j_matrix)
            width = len(self.basis.columns())
            for a, row in enumerate(self.raw_symplectic.iota):
                if len(row) != width:
                    out.append(
                        Violation(
                            f"iota row {a}", "shape",
                            f"length {len(row)} != basis+edge column count {width}",
                        )
                    )
            if len(self.raw_symplectic.iota) != n:
                out.append(Violation("iota", "shape", f"expected {n} rows"))
        if self.raw_periods is not None:
            for name in sorted(self.raw_periods.basis_values):
                if name not in names:
                    out.append(Violation(f"period {name}", "references", "unknown basis element"))
            for eid in sorted(self.raw_periods.lam_values):
                if eid not in edges:
                    out.append(Violation(f"period lambda[{eid}]", "references", "unknown edge"))
        horizontal = set(self.graph.horizontal_edges)
        for k, spec in enumerate(self.deformations):
            if spec.class_edge not in horizontal:
                out.append(
                    Violation(
                        f"deformation {k}", "references",
                        f"{spec.class_edge} is not a horizontal edge",
                    )
                )
            if spec.r <= 0:
                out.append(Violation(f"deformation {k}", "stretch-positive", f"r = {spec.r}"))
        return out

    def violations(self) -> list[Violation]:
        """Graph, basis, referential, and system-level problems, in that order."""
        out = validate(self.graph)
        if out:
            return out
        out = validate_adapted(self.basis, self.graph)
        if out:
            return out
        out = self._reference_violations()
        if out:
            return out
        system = self.system()
        out = system_violations(system)
        if self.raw_symplectic is not None:
            out += validate_symplectic(self.symplectic(), system)
        if self.raw_periods is not None:
            out += validate_assignment(self.periods(), system)
        return out

    # -- builders -------------------------------------------------------------

    def system(self) -> EquationSystem:
        if self._system is None:
            cycles = [Cycle(self.basis, eq.coeffs, eq.lam) for eq in self.raw_equations]
            relations = LambdaRelationSet(
                self.basis,
                [
                    (Cycle(self.basis, rel.coeffs, rel.lam), rel.provenance)
                    for rel in self.raw_relations
                ],
            )
            self._system = EquationSystem(
                self.basis,
                cycles,
                real=self.real,
                minimal_stratum=self.minimal_stratum,
                relations=relations,
                ratios=ProportionalityData(self.raw_ratios),
                nonvanishing=self.nonvanishing,
            )
        return self._system

    def symplectic(self) -> SymplecticData | None:
        if self.raw_symplectic is None:
            return None
        iota = tuple(
            Cycle.from_vector(self.basis, list(row)) for row in self.raw_symplectic.iota
        )
        return SymplecticData(
            self.raw_symplectic.j_matrix,
            iota,
            dict(self.raw_symplectic.u_lambda),
            self.raw_symplectic.minimal,
        )

    def periods(self) -> PeriodAssignment | None:
        if self.raw_periods is None:
            return None
        return PeriodAssignment(
            self.raw_periods.basis_values,
            self.raw_periods.lam_values,
            exact=self.raw_periods.exact,
        )

    def deformation_requests(self) -> list[tuple[str, ShearStretch]]:
        return [(spec.class_edge, ShearStretch(spec.r, spec.s)) for spec in self.deformations]


# -- parsing --------------------------------------------------------------------


def _parse_gaussian_map(data: dict, path: str) -> dict[str, GaussianRational]:
    out = {}
    for key in sorted(data):
        out[key] = parse_gaussian(data[key], f"{path}.{key}")
    return out


def _parse_graph(data: dict, path: str) -> EnhancedLevelGraph:
    vertices = []
    for k, item in enumerate(_get(data, "vertices", list, path)):
        vp = f"{path}.vertices[{k}]"
        item = _expect(item, dict, vp)
        vertices.append(
            Vertex(
                _get(item, "id", str, vp),
                _get(item, "genus", int, vp),
                _get(item, "level", int, vp),
            )
        )
    edges = []
    for k, item in enumerate(_get(data, "edges", list, path)):
        ep = f"{path}.edges[{k}]"
        item = _expect(item, dict, ep)
        ends = _get(item, "ends", list, ep)
        if len(ends) != 2:
            raise DocumentParseError("edge needs exactly two ends", f"{ep}.ends")
        ends = (_expect(ends[0], str, f"{ep}.ends[0]"), _expect(ends[1], str, f"{ep}.ends[1]"))
        edges.append(
            Edge(
                _get(item, "id", str, ep),
                ends,
                _optional(item, "top", str, ep),
                _optional(item, "kappa", int, ep),
            )
        )
    markings = []
    for k, item in enumerate(_get(data, "markings", list, path)):
        mp = f"{path}.markings[{k}]"
        item = _expect(item, dict, mp)
        markings.append(Marking(_get(item, "vertex", str, mp), _get(item, "order", int, mp)))
    return EnhancedLevelGraph(vertices, edges, markings)


def _parse_basis(data: list, graph: EnhancedLevelGraph, path: str) -> AdaptedBasis:
    elements = []
    pairings = {}
    for k, item in enumerate(data):
        bp = f"{path}[{k}]"
        item = _expect(item, dict, bp)
        name = _get(item, "name", str, bp)
        elements.append(
            BasisElement(
                name,
                _get(item, "level", int, bp),
                _get(item, "kind", str, bp),
                _optional(item, "edge", str, bp),
            )
        )
        table = {}
        for eid, value in sorted(_get(item, "pairings", dict, bp, default={}).items()):
            table[eid] = _expect(value, int, f"{bp}.pairings.{eid}")
        pairings[name] = table
    return AdaptedBasis(graph, elements, pairings)


def parse_document(data: Any, path: str = "$") -> AnalysisDocument:
    data = _expect(data, dict, path)
    version = _get(data, "schema", str, path)
    if version != SCHEMA_VERSION:
        raise DocumentParseError(
            f"unsupported schema version {version!r} (expected {SCHEMA_VERSION!r})",
            f"{path}.schema",
        )
    graph = _parse_graph(_get(data, "graph", dict, path), f"{path}.graph")
    basis = _parse_basis(_get(data, "basis", list, path), graph, f"{path}.basis")

    system_data = _get(data, "system", dict, path)
    sp = f"{path}.system"
    equations = []
    for k, item in enumerate(_get(system_data, "equations", list, sp, default=[])):
        eq_path = f"{sp}.equations[{k}]"
        item = _expect(item, dict, eq_path)
        equations.append(
            RawEquation(
                _parse_gaussian_map(_get(item, "coeffs", dict, eq_path, default={}), f"{eq_path}.coeffs"),
                _parse_gaussian_map(_get(item, "lambda", dict, eq_path, default={}), f"{eq_path}.lambda"),
            )
        )
    ratios = []
    for k, item in enumerate(_get(system_data, "ratios", list, sp, default=[])):
        rp = f"{sp}.ratios[{k}]"
        item = _expect(item, dict, rp)
        ratios.append(
            (
                _get(item, "e", str, rp),
                _get(item, "e'", str, rp),
                parse_rational(item.get("q"), f"{rp}.q") if "q" in item else _missing(rp, "q"),
            )
        )
    relations = []
    for k, item in enumerate(_get(system_data, "relations", list, sp, default=[])):
        rp = f"{sp}.relations[{k}]"
        item = _expect(item, dict, rp)
        provenance = item.get("provenance", DECLARED)
        relations.append(
            RawRelation(
                _parse_gaussian_map(_get(item, "coeffs", dict, rp, default={}), f"{rp}.coeffs"),
                _parse_gaussian_map(_get(item, "lambda", dict, rp, default={}), f"{rp}.lambda"),
                _expect(provenance, str, f"{rp}.provenance"),
            )
        )
    flags = _get(system_data, "flags", dict, sp, default={})
    real = _expect(flags.get("real", False), bool, f"{sp}.flags.real")
    minimal = _expect(flags.get("minimal_stratum", False), bool, f"{sp}.flags.minimal_stratum")
    nonvanishing = [
        _expect(x, str, f"{sp}.nonvanishing[{k}]")
        for k, x in enumerate(_get(system_data, "nonvanishing", list, sp, default=[]))
    ]

    symplectic = None
    if "symplectic" in data and data["symplectic"] is not None:
        ydata = _expect(data["symplectic"], dict, f"{path}.symplectic")
        yp = f"{path}.symplectic"
        j_rows = []
        for a, row in enumerate(_get(ydata, "J", list, yp)):
            row = _expect(row, list, f"{yp}.J[{a}]")
            j_rows.append(tuple(_expect(x, int, f"{yp}.J[{a}][{b}]") for b, x in enumerate(row)))
        iota_rows = []
        for a, row in enumerate(_get(ydata, "iota", list, yp)):
            row = _expect(row, list, f"{yp}.iota[{a}]")
            iota_rows.append(
                tuple(parse_gaussian(x, f"{yp}.iota[{a}][{b}]") for b, x in enumerate(row))
            )
        u_lambda = {}
        for eid, row in sorted(_get(ydata, "u_lambda", dict, yp).items()):
            row = _expect(row, list, f"{yp}.u_lambda.{eid}")
            u_lambda[eid] = tuple(
                parse_gaussian(x, f"{yp}.u_lambda.{eid}[{b}]") for b, x in enumerate(row)
            )
        symplectic = RawSymplectic(
            tuple(j_rows),
            tuple(iota_rows),
            u_lambda,
            _expect(ydata.get("minimal", False), bool, f"{yp}.minimal"),
        )

    periods = None
    if "periods" in data and data["periods"] is not None:
        pdata = _expect(data["periods"], dict, f"{path}.periods")
        pp = f"{path}.periods"
        mode = _expect(pdata.get("mode", "exact"), str, f"{pp}.mode")
        if mode not in ("exact", "approximate"):
            raise DocumentParseError(f"unknown mode {mode!r}", f"{pp}.mode")
        exact = mode == "exact"
        basis_values = {}
        for name, value in sorted(_get(pdata, "basis", dict, pp, default={}).items()):
            basis_values[name] = _parse_period_value(value, exact, f"{pp}.basis.{name}")
        lam_values = {}
        for eid, value in sorted(_get(pdata, "lambda", dict, pp, default={}).items()):
            lam_values[eid] = _parse_period_value(value, exact, f"{pp}.lambda.{eid}")
        periods = RawPeriods(basis_values, lam_values, exact)

    deformations = []
    for k, item in enumerate(_optional(data, "deformations", list, path) or []):
        dp = f"{path}.deformations[{k}]"
        item = _expect(item, dict, dp)
        deformations.append(
            DeformationSpec(
                _get(item, "class", str, dp),
                parse_rational(item.get("r", 1), f"{dp}.r"),
                parse_rational(item.get("s", 0), f"{dp}.s"),
            )
        )

    return AnalysisDocument(
        graph, basis, equations, ratios, relations, real, minimal, nonvanishing,
        symplectic, periods, deformations,
    )


def _missing(path: str, key: str):
    raise DocumentParseError(f"missing required key {key!r}", path)


def _parse_period_value(value, exact: bool, path: str):
    if exact:
        return parse_gaussian(value, path)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        re_part = value[0]
        im_part = value[1]
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re_part, im_part)):
            return complex(re_part, im_part)
    if isinstance(value, str):
        return parse_gaussian(value, path).to_complex()
    raise DocumentParseError("expected a number, [re, im] pair, or gaussian literal", path)


def load_document(path: str) -> AnalysisDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DocumentParseError(str(exc), path)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(exc.msg, f"{path}:{exc.lineno}:{exc.colno}")
    return parse_document(data, path="$")


def cycle_to_json(cycle: Cycle) -> dict:
    return {
        "coeffs": {k: v.canonical() for k, v in sorted(cycle.coeffs.items())},
        "lambda": {k: v.canonical() for k, v in sorted(cycle.lam.items())},
    }
