"""The analysis-document schema.

One JSON document carries a level graph, an adapted basis, an equation
system, and optionally symplectic data, a period assignment, and deformation
requests.  Parsing is strict about shapes and literals (syntactic problems
raise DocumentParseError, which the CLI maps to exit 64); referential and
mathematical problems are returned as violations (exit 1).
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from .equations import EquationSystem, ProportionalityData, system_violations
from .errors import DocumentParseError, Violation
from .gaussian import ZERO, GaussianRational, _rational_ints, _rational_str, parse_gaussian
from .homology import AdaptedBasis, BasisElement, Cycle, validate_adapted
from .level_graph import Edge, EnhancedLevelGraph, Marking, Vertex, validate

SCHEMA_VERSION = "sbv-1"
_KIND_NAMES = {dict: "object", list: "array", str: "string", int: "integer", bool: "boolean"}


def _expect(data: Any, kind: type, path: str):
    if type(data) is kind:
        return data
    if kind is int and isinstance(data, bool):
        raise DocumentParseError(f"expected {_KIND_NAMES[kind]}", path)
    if not isinstance(data, kind):
        raise DocumentParseError(f"expected {_KIND_NAMES[kind]}, got {type(data).__name__}", path)
    return data


def _get(data: dict, key: str, kind: type, path: str, default=_expect):
    if key not in data:
        if default is _expect:
            raise DocumentParseError(f"missing required key {key!r}", path)
        return default
    value = data[key]
    return value if type(value) is kind else _expect(value, kind, f"{path}.{key}")


def _optional(data: dict, key: str, kind: type, path: str):
    if key not in data or data[key] is None:
        return None
    return _expect(data[key], kind, f"{path}.{key}")


class RawSymplectic(NamedTuple):
    j_matrix: tuple[tuple[int, ...], ...]
    iota: tuple[tuple[GaussianRational, ...], ...]
    u_lambda: dict[str, tuple[GaussianRational, ...]]
    minimal: bool


class DeformationSpec(NamedTuple):
    """A requested shear-stretch of a class; r and s are (numerator,
    denominator > 0) pairs, not reduced, so that reading them builds no Fraction."""

    class_edge: str
    r: tuple[int, int]
    s: tuple[int, int]


class AnalysisDocument:
    """Parsed document plus lazy construction of the analysis objects."""

    def __init__(
        self,
        graph: EnhancedLevelGraph,
        basis: AdaptedBasis,
        equations: list[Cycle],
        ratios: ProportionalityData,
        relations: list[Cycle],
        real: bool,
        minimal_stratum: bool,
        nonvanishing: list[str],
        symplectic: RawSymplectic | None,
        periods: PeriodAssignment | None,
        deformations: list[DeformationSpec],
        unknown: list[Violation],
    ):
        self.graph = graph
        self.basis = basis
        self.raw_equations = equations
        self.ratios = ratios
        self.relations = relations
        self.real = real
        self.minimal_stratum = minimal_stratum
        self.nonvanishing = nonvanishing
        self.raw_symplectic = symplectic
        self._periods = periods
        self.deformations = deformations
        self._unknown = unknown  # the equations' and relations' unknown names, as parsed
        self._system: EquationSystem | None = None
        self._symplectic: SymplecticData | None = None

    # -- reference checks ---------------------------------------------------

    def _reference_violations(self) -> list[Violation]:
        out = list(self._unknown)
        has_edge = self.graph.has_edge
        for e, ep, _, _ in self.ratios.declared:
            for eid in (e, ep):
                if not has_edge(eid):
                    out.append(Violation(f"ratio {e}~{ep}", "references", f"unknown edge {eid}"))
        for eid in self.nonvanishing:
            if not has_edge(eid):
                out.append(Violation(f"nonvanishing {eid}", "references", "unknown edge"))
        if self.raw_symplectic is not None:
            for eid in sorted(self.raw_symplectic.u_lambda):
                if not has_edge(eid):
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
        if self._periods is not None:
            for name in sorted(self._periods.basis_values):
                if ("b", name) not in self.basis.column_index:
                    out.append(Violation(f"period {name}", "references", "unknown basis element"))
            for eid in sorted(self._periods.lam_values):
                if not has_edge(eid):
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
            if spec.r[0] <= 0:
                out.append(Violation(f"deformation {k}", "stretch-positive", f"r = {_rational_str(*spec.r)}"))
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
            from .symplectic import symplectic_problems
            out += symplectic_problems(self.symplectic(), system)
        if self._periods is not None:
            from .periods import validate_assignment
            out += validate_assignment(self.periods(), system)
        return out

    # -- builders -------------------------------------------------------------

    def system(self) -> EquationSystem:
        if self._system is None:
            self._system = EquationSystem(
                self.basis,
                self.raw_equations,
                real=self.real,
                minimal_stratum=self.minimal_stratum,
                relations=self.relations,
                ratios=self.ratios,
                nonvanishing=self.nonvanishing,
            )
        return self._system

    def symplectic(self) -> SymplecticData | None:
        if self.raw_symplectic is None:
            return None
        if self._symplectic is None:
            from .symplectic import SymplecticData
            iota = tuple(
                [Cycle.from_vector(self.basis, row) for row in self.raw_symplectic.iota]
            )
            self._symplectic = SymplecticData(
                self.raw_symplectic.j_matrix,
                iota,
                dict(self.raw_symplectic.u_lambda),
                self.raw_symplectic.minimal,
            )
        return self._symplectic

    def periods(self) -> PeriodAssignment | None:
        return self._periods

    def deformation_requests(self) -> list[DeformationSpec]:
        return self.deformations


# -- parsing --------------------------------------------------------------------


def _literal(value, where: str, seen: dict[str, GaussianRational]) -> GaussianRational:
    """``parse_gaussian``, reusing the value of literal text already read in this load.

    Values are immutable, so every repeat of a text shares one object.  Only
    text is looked up; other JSON values go to ``parse_gaussian`` as they are.
    """
    if type(value) is not str:
        return parse_gaussian(value, where)
    z = seen.get(value)
    if z is None:
        z = seen[value] = parse_gaussian(value, where)
    return z


def _int_row(row: Any, path: str) -> tuple[int, ...]:
    """The ints of a JSON array; the per-entry check, with paths, runs only on a bad row."""
    row = _expect(row, list, path)
    if set(map(type, row)) <= {int}:
        return tuple(row)
    return tuple([_expect(x, int, f"{path}[{b}]") for b, x in enumerate(row)])


def _literal_row(row: Any, path: str, seen: dict[str, GaussianRational]) -> tuple[GaussianRational, ...]:
    """``_literal`` on each entry of a JSON array; read entry by entry, with paths, if ``seen`` misses one."""
    row = _expect(row, list, path)
    try:
        return tuple(list(map(seen.__getitem__, row)))
    except (KeyError, TypeError):  # new or non-text literal; unhashable entry
        return tuple([_literal(x, f"{path}[{b}]", seen) for b, x in enumerate(row)])


def _parse_cycle(
    item: Any, path: str, basis: AdaptedBasis, seen: dict[str, GaussianRational],
    subject: str, unknown: list[Violation],
) -> Cycle:
    """An equation or relation, each literal written into its basis column as read.

    A name the basis lacks is left out and reported in ``unknown``.
    """
    item = _expect(item, dict, path)
    index = basis.column_index
    vector = [ZERO] * len(basis.columns())
    for key, kind, what in (("coeffs", "b", "basis element"), ("lambda", "l", "edge")):
        table = _get(item, key, dict, path, default={})
        for name in sorted(table):
            value = table[name]
            c = seen.get(value) if type(value) is str else None
            if c is None:  # the path is built only for a literal not read before
                c = _literal(value, f"{path}.{key}.{name}", seen)
            col = index.get((kind, name))
            if col is None:
                unknown.append(Violation(subject, "references", f"unknown {what} {name}"))
            else:
                vector[col] = c
    return Cycle.from_vector(basis, vector)


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

    seen: dict[str, GaussianRational] = {}  # this load's literal text -> value
    unknown: list[Violation] = []
    system_data = _get(data, "system", dict, path)
    sp = f"{path}.system"
    equations = [
        _parse_cycle(item, f"{sp}.equations[{k}]", basis, seen, f"equation {k}", unknown)
        for k, item in enumerate(_get(system_data, "equations", list, sp, default=[]))
    ]
    ratios = []
    for k, item in enumerate(_get(system_data, "ratios", list, sp, default=[])):
        rp = f"{sp}.ratios[{k}]"
        item = _expect(item, dict, rp)
        ratios.append(
            (
                _get(item, "e", str, rp),
                _get(item, "e'", str, rp),
                _rational_ints(item.get("q"), f"{rp}.q") if "q" in item else _missing(rp, "q"),
            )
        )
    relations = []
    for k, item in enumerate(_get(system_data, "relations", list, sp, default=[])):
        rp = f"{sp}.relations[{k}]"
        relations.append(_parse_cycle(item, rp, basis, seen, f"relation {k}", unknown))
        _expect(item.get("provenance", ""), str, f"{rp}.provenance")  # free text, not used
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
        j_rows = [_int_row(row, f"{yp}.J[{a}]") for a, row in enumerate(_get(ydata, "J", list, yp))]
        iota = _get(ydata, "iota", list, yp)
        iota_rows = [_literal_row(row, f"{yp}.iota[{a}]", seen) for a, row in enumerate(iota)]
        u_lambda = _get(ydata, "u_lambda", dict, yp)
        symplectic = RawSymplectic(
            tuple(j_rows),
            tuple(iota_rows),
            {eid: _literal_row(row, f"{yp}.u_lambda.{eid}", seen) for eid, row in sorted(u_lambda.items())},
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
        from .periods import PeriodAssignment
        periods = PeriodAssignment(basis_values, lam_values, exact=exact)

    deformations = []
    for k, item in enumerate(_optional(data, "deformations", list, path) or []):
        dp = f"{path}.deformations[{k}]"
        item = _expect(item, dict, dp)
        deformations.append(
            DeformationSpec(
                _get(item, "class", str, dp),
                _rational_ints(item.get("r", 1), f"{dp}.r"),
                _rational_ints(item.get("s", 0), f"{dp}.s"),
            )
        )

    return AnalysisDocument(
        graph, basis, equations, ProportionalityData(ratios), relations, real, minimal, nonvanishing,
        symplectic, periods, deformations, unknown,
    )


def _missing(path: str, key: str):
    raise DocumentParseError(f"missing required key {key!r}", path)


def _parse_period_value(value, exact: bool, path: str):
    if exact:
        return parse_gaussian(value, path)
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not isinstance(value, str) and not all(type(x) in (int, float) for x in parts):
        raise DocumentParseError("expected a number, [re, im] pair, or gaussian literal", path)
    try:
        z = parse_gaussian(value, path).to_complex() if isinstance(value, str) else complex(*parts)
    except OverflowError:  # an int or a literal past the float range
        z = complex("nan")
    if z - z != 0:  # inf - inf and nan - nan are nan, so some part is not finite
        raise DocumentParseError("expected a finite number", path)
    return z


def load_document(path: str) -> AnalysisDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DocumentParseError(str(exc), path)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(exc.msg, f"{path}:{exc.lineno}:{exc.colno}")
    except RecursionError:
        raise DocumentParseError("arrays or objects nested too deeply", path)
    except ValueError as exc:  # e.g. an integer longer than sys.get_int_max_str_digits()
        raise DocumentParseError(str(exc), path)
    return parse_document(data, path="$")


def cycle_to_json(cycle: Cycle) -> dict:
    return {
        "coeffs": {k: v.canonical() for k, v in sorted(cycle.coeffs.items())},
        "lambda": {k: v.canonical() for k, v in sorted(cycle.lam.items())},
    }
