"""Deterministic command-line front end.

Subcommands: validate, analyze, plumb, deform, aim.  Exit codes: 0 ok or
consistent, 1 invariant violation, 2 inconsistent certificate, 3 conversion
obstruction, 4 deformation hypothesis violation, 64 parse error.  Output is
byte-identical across runs for identical input: every collection printed here
is explicitly ordered and nothing is stamped with times or paths beyond the
input name.
"""

from __future__ import annotations

import argparse
import json
import sys

from .aim import (
    CrossWitnessResult,
    at_most_two_decompose,
    lemma_bound,
    pairwise_circum_decompose,
    pairwise_cross_witness,
    tangent_absolute,
)
from .deformation import CylinderClass, check_preserved
from .document import AnalysisDocument, cycle_to_json, load_document
from .equations import (
    classify_undegeneration,
    consistency_report,
    cross_equivalence_classes,
    residue_forms,
)
from .errors import (
    AimError,
    ConversionError,
    DeformationError,
    DocumentParseError,
    StrataError,
)
from .level_graph import codim, enumerate_undegenerations
from .plumbing import Binomial, convert, hurwitz_rule, lattice_analysis, local_model


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strata",
        description="Boundary calculus for linear subvarieties of strata of differentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, extra in (
        ("validate", cmd_validate, False),
        ("analyze", cmd_analyze, False),
        ("plumb", cmd_plumb, False),
        ("deform", cmd_deform, False),
        ("aim", cmd_aim, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("file", help="analysis document (JSON, schema sbv-1)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--assume-theorems",
            action="store_true",
            help="adjoin derived residue relations while reducing",
        )
        p.add_argument("--limit", type=int, default=12, help="combinatorial search limit")
        if extra:
            p.add_argument("--pairwise-cross", nargs=2, metavar=("E1", "E2"))
            p.add_argument("--decompose", type=int, metavar="ROW")
        p.set_defaults(handler=handler)
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main() call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        doc = load_document(args.file)
    except DocumentParseError as exc:
        print(f"parse error at {exc}")
        return 64
    try:
        if args.command != "validate":
            problems = [str(v) for v in doc.violations()]
            if problems:
                _emit(args, {"command": args.command, "violations": problems},
                      ["invalid document:"] + [f"  {p}" for p in problems])
                return 1
        return args.handler(doc, args)
    except StrataError as exc:
        print(f"error: {exc}")
        return 1


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(doc: AnalysisDocument, args) -> int:
    problems = [str(v) for v in doc.violations()]
    payload = {"command": "validate", "violations": problems}
    lines = [f"violations: {len(problems)}"] + [f"  {p}" for p in problems]
    if not problems:
        lines = ["ok: graph, basis, system, and attached data satisfy all invariants"]
    _emit(args, payload, lines)
    return 0 if not problems else 1


def cmd_analyze(doc: AnalysisDocument, args) -> int:
    system = doc.system()
    graph = doc.graph
    certificate = consistency_report(system, assume_theorems=args.assume_theorems)
    classes = cross_equivalence_classes(system)

    lines = [
        f"graph: {len(graph.vertices)} vertices, {len(graph.edges)} edges"
        f" ({len(graph.horizontal_edges)} horizontal), depth {graph.depth},"
        f" stratum codim {codim(graph)}",
        f"system: rank {system.rank} over {'R' if system.real else 'C'}"
        + (", minimal stratum" if system.minimal_stratum else ""),
        "",
        "cross-equivalence classes:",
    ]
    class_json = [sorted(cls) for cls in classes]
    if classes:
        lines += [f"  {{{', '.join(sorted(cls))}}}" for cls in classes]
    else:
        lines.append("  (none)")

    lines.append("required proportionalities:")
    if certificate.obligations:
        lines += [f"  lambda[{a}] ~ lambda[{b}]" for a, b in certificate.obligations]
    else:
        lines.append("  (none)")

    residues = residue_forms(system)
    lines.append("residue relations:")
    if residues:
        lines += [
            f"  row {j}, passage {i}: {form.render()} = 0" for j, i, form in residues
        ]
    else:
        lines.append("  (none)")

    undeg_json = []
    undeg_skipped = False
    n_choices = len(graph.passage_indices()) + len(graph.horizontal_edges)
    if n_choices <= args.limit:
        lines.append("undegenerations:")
        for und in enumerate_undegenerations(graph):
            cls = classify_undegeneration(system, und)
            passages = "{" + ",".join(str(i) for i in und.kept_passages) + "}"
            horizontal = "{" + ",".join(und.kept_horizontal) + "}"
            row = (
                f"  passages={passages} horizontal={horizontal}"
                f" L'={und.depth} H'={und.horizontal_count} lost={cls.lost}"
                f" codim={cls.codim_in_total}"
            )
            if cls.divisorial:
                row += f" divisorial[{cls.branch}]"
            if cls.ordering_caveat:
                row += " (non-adapted remap)"
            lines.append(row)
            undeg_json.append(
                {
                    "passages": list(und.kept_passages),
                    "horizontal": list(und.kept_horizontal),
                    "lost": cls.lost,
                    "codim": cls.codim_in_total,
                    "divisorial": cls.divisorial,
                    "branch": cls.branch,
                    "ordering_caveat": cls.ordering_caveat,
                }
            )
    else:
        undeg_skipped = True
        lines.append(
            f"undegenerations: skipped ({n_choices} passage/edge choices exceed --limit {args.limit})"
        )

    lines.append("")
    lines.append(f"certificate: {certificate.verdict.upper()}")
    if certificate.rule:
        lines.append(f"  rule: {certificate.rule}")
    if certificate.forced is not None:
        lines.append(f"  forced: {certificate.forced.render()} = 0")
    for step in certificate.trace:
        lines.append(f"  trace: {step}")

    payload = {
        "command": "analyze",
        "classes": class_json,
        "obligations": [[a, b] for a, b in certificate.obligations],
        "residues": [
            {"row": j, "passage": i, "form": cycle_to_json(form)} for j, i, form in residues
        ],
        "undegenerations": undeg_json,
        "undegenerations_skipped": undeg_skipped,
        "certificate": {
            "verdict": certificate.verdict,
            "rule": certificate.rule,
            "forced": cycle_to_json(certificate.forced) if certificate.forced else None,
            "trace": list(certificate.trace),
        },
    }
    _emit(args, payload, lines)
    return 0 if certificate.consistent else 2


def _render_plumbing(system, item) -> tuple[str, str]:
    source = system.rref_rows[item.source]
    period = f"{source.cycle.render()} = 0"
    if isinstance(item, Binomial):
        return period, item.render()
    return period, f"(extends to the boundary) {item.render()}"


def cmd_plumb(doc: AnalysisDocument, args) -> int:
    system = doc.system()
    try:
        converted = convert(system, assume_theorems=args.assume_theorems)
    except ConversionError as exc:
        payload = {"command": "plumb", "obstruction": str(exc), "missing": exc.missing}
        lines = [f"conversion obstruction: {exc}"]
        if exc.missing:
            lines.append(f"  required relation: {exc.missing}")
        _emit(args, payload, lines)
        return 3
    model = local_model(converted, system)

    lines = ["period equation -> plumbing equation:"]
    table_json = []
    for item in converted:
        period, plumb = _render_plumbing(system, item)
        lines.append(f"  {period}  |  {plumb}")
        entry = {"source": item.source, "period": period}
        if isinstance(item, Binomial):
            entry.update(
                {
                    "type": "binomial",
                    "unit": item.unit,
                    "I": {eid: n for eid, n in item.i_exp},
                    "J": {eid: n for eid, n in item.j_exp},
                }
            )
        else:
            entry.update(
                {
                    "type": "analytic",
                    "symbol": item.symbol,
                    "top_restriction": cycle_to_json(item.top_restriction),
                }
            )
        table_json.append(entry)

    lines.append("")
    lines.append(
        f"local model: smooth factor of dimension {model.smooth_dim}"
        + (f" with free passage parameters {', '.join(model.t_params)}" if model.t_params else "")
    )
    blocks_json = []
    for variables, binomials in model.blocks:
        report = lattice_analysis(list(binomials))
        lines.append(
            f"  binomial factor on {{{', '.join(variables)}}}: {report.label},"
            f" lattice {'saturated' if report.saturated else 'not saturated'}"
        )
        for b in binomials:
            lines.append(f"    {b.render()}")
        blocks_json.append(
            {
                "variables": list(variables),
                "smooth": report.smooth,
                "saturated": report.saturated,
                "generators": [list(g) for g in report.generators],
            }
        )
    if not model.blocks:
        lines.append("  no binomial factors: purely analytic local equations")

    certificate = hurwitz_rule(system)
    cert_json = None
    if certificate is not None:
        lines.append(f"residue certificate: {certificate.kind}: {certificate.detail}")
        cert_json = {
            "kind": certificate.kind,
            "edges": list(certificate.edges),
            "detail": certificate.detail,
        }

    payload = {
        "command": "plumb",
        "equations": table_json,
        "model": {
            "smooth_dim": model.smooth_dim,
            "t_params": list(model.t_params),
            "blocks": blocks_json,
            "unit_absorption": [list(x) for x in model.unit_absorption],
        },
        "residue_certificate": cert_json,
    }
    _emit(args, payload, lines)
    return 0


def cmd_deform(doc: AnalysisDocument, args) -> int:
    system = doc.system()
    assignment = doc.periods()
    requests = doc.deformation_requests()
    if assignment is None or not requests:
        _emit(
            args,
            {"command": "deform", "violations": ["document carries no periods or no deformations"]},
            ["nothing to do: document needs a periods block and a deformations list"],
        )
        return 1
    lines = []
    reports_json = []
    all_ok = True
    try:
        for edge, move in requests:
            cls = CylinderClass.from_edge(system, edge)
            report = check_preserved(system, assignment, cls, move)
            all_ok = all_ok and report.all_preserved
            lines.append(
                f"class {{{', '.join(cls.edges)}}} under r={move.r}, s={move.s}:"
            )
            rows_json = []
            for row in report.rows:
                note = f" ({row.note})" if row.note else ""
                lines.append(f"  row {row.index}: {row.status}, residual {row.residual}{note}")
                rows_json.append(
                    {
                        "row": row.index,
                        "status": row.status,
                        "residual": row.residual,
                        "note": row.note,
                    }
                )
            reports_json.append(
                {
                    "class": list(cls.edges),
                    "r": str(move.r),
                    "s": str(move.s),
                    "rows": rows_json,
                    "preserved": report.all_preserved,
                }
            )
    except DeformationError as exc:
        _emit(args, {"command": "deform", "error": str(exc)}, [f"hypothesis violation: {exc}"])
        return 4
    verdict = "preserved" if all_ok else "hypothesis-violation"
    lines.append(f"deformation: {verdict}")
    _emit(args, {"command": "deform", "reports": reports_json, "verdict": verdict}, lines)
    return 0 if all_ok else 4


def cmd_aim(doc: AnalysisDocument, args) -> int:
    system = doc.system()
    data = doc.symplectic()
    if data is None:
        _emit(args, {"command": "aim", "violations": ["document carries no symplectic data"]},
              ["nothing to do: document needs a symplectic block"])
        return 1
    lines = []
    payload: dict = {"command": "aim"}
    try:
        report = tangent_absolute(system, data)
        lines.append(
            f"tangent image in absolute homology: dim {report.dim},"
            f" restricted form rank {report.form_rank},"
            f" {'symplectic' if report.symplectic else 'NOT symplectic'}"
        )
        payload["tangent"] = {
            "dim": report.dim,
            "form_rank": report.form_rank,
            "symplectic": report.symplectic,
        }
        bounds_json = []
        for cls_edges in cross_equivalence_classes(system):
            label = "{" + ", ".join(sorted(cls_edges)) + "}"
            anchor = sorted(cls_edges)[0]
            try:
                cls = CylinderClass.from_edge(system, anchor)
                bound = lemma_bound(system, data, cls)
            except (AimError, DeformationError) as exc:
                lines.append(f"class {label}: parallel-deformation bound skipped ({exc})")
                bounds_json.append({"class": sorted(cls_edges), "skipped": str(exc)})
                continue
            lines.append(
                f"class {label}: parallel-deformation dimension {bound.dim},"
                f" bound {'satisfied' if bound.bound_satisfied else 'VIOLATED'}"
            )
            bounds_json.append(
                {
                    "class": sorted(cls_edges),
                    "dim": bound.dim,
                    "bound_satisfied": bound.bound_satisfied,
                }
            )
        payload["bounds"] = bounds_json

        if getattr(args, "pairwise_cross", None):
            e1, e2 = args.pairwise_cross
            result: CrossWitnessResult = pairwise_cross_witness(system, data, e1, e2)
            if result.witness is not None:
                lines.append(f"pairwise witness for ({e1}, {e2}): {result.witness.render()} = 0")
                payload["pairwise_cross"] = {"witness": cycle_to_json(result.witness)}
            else:
                lines.append(f"pairwise witness for ({e1}, {e2}): absent; {result.diagnostic}")
                payload["pairwise_cross"] = {"witness": None, "diagnostic": result.diagnostic}

        if getattr(args, "decompose", None) is not None:
            idx = args.decompose
            if not 0 <= idx < system.rank:
                raise AimError(f"row index {idx} out of range (rank {system.rank})")
            row = system.rref_rows[idx].cycle
            if row.is_lambda_only():
                parts = pairwise_circum_decompose(row, system, data)
                kind = "pairwise-circumference"
            else:
                parts = at_most_two_decompose(row, system, data, limit=args.limit)
                kind = "at-most-two-nodes"
            lines.append(f"decomposition of row {idx} ({kind}):")
            for part in parts:
                lines.append(f"  {part.render()} = 0")
            payload["decompose"] = {
                "row": idx,
                "kind": kind,
                "parts": [cycle_to_json(p) for p in parts],
            }
    except AimError as exc:
        _emit(args, {"command": "aim", "error": str(exc)}, [f"aim error: {exc}"])
        return 1
    _emit(args, payload, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
