"""Deterministic command-line front end.

Subcommands: validate, analyze, plumb, deform, aim.  Exit codes: 0 ok or
consistent, 1 invariant violation, 2 inconsistent certificate, 3 conversion
obstruction, 4 deformation hypothesis violation, 64 parse error.  Output is
byte-identical across runs for identical input: every collection printed here
is explicitly ordered and nothing is stamped with times or paths beyond the
input name.

Each ``cmd_*`` handler returns its exit code, its report (the ``--json``
payload, with cycles left as ``Cycle`` values) and a text renderer that reads
the report.  ``main`` runs only the requested rendering, inside its error
guard, and prints the finished output once.  The ``--json`` rendering is
``_json_text``, which writes the bytes of ``json.dumps(report, sort_keys=True,
indent=2)`` itself: no other JSON output path exists.
"""

from __future__ import annotations

import argparse
import json
import sys

from .document import AnalysisDocument, cycle_to_json, load_document
from .equations import (
    UndegClassification,
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
from .homology import Cycle
from .level_graph import codim, enumerate_undegenerations


# `aim`, `deformation` and `plumbing` are imported on use, so `import strata.cli` compiles none of
# them.  bench/tracing.py wraps these calls as bindings of this module, so they stay here.
def convert(*args, **kwargs):
    from . import plumbing
    return plumbing.convert(*args, **kwargs)


def local_model(*args, **kwargs):
    from . import plumbing
    return plumbing.local_model(*args, **kwargs)


def lattice_analysis(*args, **kwargs):
    from . import plumbing
    return plumbing.lattice_analysis(*args, **kwargs)


def hurwitz_rule(*args, **kwargs):
    from . import plumbing
    return plumbing.hurwitz_rule(*args, **kwargs)


def check_preserved(*args, **kwargs):
    from . import deformation
    return deformation.check_preserved(*args, **kwargs)


def tangent_absolute(*args, **kwargs):
    from . import aim
    return aim.tangent_absolute(*args, **kwargs)


def lemma_bound(*args, **kwargs):
    from . import aim
    return aim.lemma_bound(*args, **kwargs)


def pairwise_cross_witness(*args, **kwargs):
    from . import aim
    return aim.pairwise_cross_witness(*args, **kwargs)


def pairwise_circum_decompose(*args, **kwargs):
    from . import aim
    return aim.pairwise_circum_decompose(*args, **kwargs)


def at_most_two_decompose(*args, **kwargs):
    from . import aim
    return aim.at_most_two_decompose(*args, **kwargs)


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
        problems = [str(v) for v in doc.violations()]
        if problems and args.command != "validate":
            report = {"command": args.command, "violations": problems}
            code, text = 1, lambda r: ["invalid document:"] + [f"  {p}" for p in r["violations"]]
        else:
            code, report, text = args.handler(doc, args, problems)
        if args.json:
            output = _json_text(report)
        else:
            output = "\n".join(text(report))
    except StrataError as exc:
        print(f"error: {exc}")
        return 1
    print(output)
    return code


_quote = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, default=cycle_to_json)``, byte for byte,
    without the pure-Python encoder ``indent`` selects.  It takes what a report holds:
    str, int, bool, None, dicts with str keys, lists, tuples and NamedTuples (as
    arrays), ``Cycle`` values, and ``UndegClassification`` rows.  A row is written as
    the object of its seven table keys, from ``_ROW``, also where it is a list item.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return repr(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    if kind is Cycle:
        return _json_text(cycle_to_json(value), newline)
    if kind is UndegClassification:
        return _row_text(value, newline)
    inner = newline + "  "
    if kind is dict:
        items = [f"{_quote(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if kind is list or isinstance(value, tuple):
        return _array([
            _row_text(item, inner) if type(item) is UndegClassification else _json_text(item, inner)
            for item in value
        ], newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _array(items: list[str], newline: str) -> str:
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"


# An undegeneration row's keys, in sorted order: {0} opens a key's line, {8} closes.
_ROW = (
    '{{{0}"branch": {1},{0}"codim": {2},{0}"divisorial": {3},{0}"horizontal": {4},'
    '{0}"lost": {5},{0}"ordering_caveat": {6},{0}"passages": {7}{8}}}'
)


def _row_text(row: UndegClassification, newline: str) -> str:
    (passages, horizontal), codim_total, lost, divisorial, branch, caveat = row
    inner = newline + "  "
    return _ROW.format(
        inner, "null" if branch is None else _quote(branch), codim_total, _LITERALS[divisorial],
        _array([_quote(e) for e in horizontal], inner), lost, _LITERALS[caveat],
        _array([repr(i) for i in passages], inner), newline,
    )


def _says(line: str):
    """A text renderer that prints one fixed line."""
    return lambda report: [line]


def cmd_validate(doc: AnalysisDocument, args, problems: list[str]):
    return int(bool(problems)), {"command": "validate", "violations": problems}, _validate_text


def _validate_text(report) -> list[str]:
    problems = report["violations"]
    if not problems:
        return ["ok: graph, basis, system, and attached data satisfy all invariants"]
    return [f"violations: {len(problems)}"] + [f"  {p}" for p in problems]


def cmd_analyze(doc: AnalysisDocument, args, problems: list[str]):
    system = doc.system()
    graph = doc.graph
    certificate = consistency_report(system, assume_theorems=args.assume_theorems)
    classes = cross_equivalence_classes(system)
    residues = residue_forms(system)
    table = []
    n_choices = len(graph.passage_indices()) + len(graph.horizontal_edges)
    if n_choices <= args.limit:
        table = [classify_undegeneration(system, und) for und in enumerate_undegenerations(graph)]
    report = {
        "command": "analyze",
        "classes": [sorted(cls) for cls in classes],
        "obligations": certificate.obligations,
        "residues": [{"row": j, "passage": i, "form": form} for j, i, form in residues],
        "undegenerations": table,
        "undegenerations_skipped": n_choices > args.limit,
        "certificate": {
            "verdict": certificate.verdict, "rule": certificate.rule,
            "forced": certificate.forced, "trace": certificate.trace,
        },
    }
    code = 0 if certificate.consistent else 2
    return code, report, lambda r: _analyze_text(r, system, n_choices, args.limit)


def _listed(lines: list[str]) -> list[str]:
    return lines or ["  (none)"]


def _analyze_text(report, system, n_choices: int, limit: int) -> list[str]:
    graph = system.graph
    lines = [
        f"graph: {len(graph.vertices)} vertices, {len(graph.edges)} edges"
        f" ({len(graph.horizontal_edges)} horizontal), depth {graph.depth},"
        f" stratum codim {codim(graph)}",
        f"system: rank {system.rank} over {'R' if system.real else 'C'}"
        + (", minimal stratum" if system.minimal_stratum else ""),
        "",
        "cross-equivalence classes:",
        *_listed([f"  {{{', '.join(cls)}}}" for cls in report["classes"]]),
        "required proportionalities:",
        *_listed([f"  lambda[{a}] ~ lambda[{b}]" for a, b in report["obligations"]]),
        "residue relations:",
        *_listed([
            f"  row {r['row']}, passage {r['passage']}: {r['form'].render()} = 0"
            for r in report["residues"]
        ]),
    ]
    if report["undegenerations_skipped"]:
        lines.append(
            f"undegenerations: skipped ({n_choices} passage/edge choices exceed --limit {limit})"
        )
    else:
        lines.append("undegenerations:")
        lines += [_undegeneration_text(row) for row in report["undegenerations"]]
    certificate = report["certificate"]
    lines += ["", f"certificate: {certificate['verdict'].upper()}"]
    if certificate["rule"]:
        lines.append(f"  rule: {certificate['rule']}")
    if certificate["forced"] is not None:
        lines.append(f"  forced: {certificate['forced'].render()} = 0")
    return lines + [f"  trace: {step}" for step in certificate["trace"]]


def _undegeneration_text(row: UndegClassification) -> str:
    (passages, horizontal), codim_total, lost, divisorial, branch, caveat = row
    text = (
        f"  passages={{{','.join([str(i) for i in passages])}}}"
        f" horizontal={{{','.join(horizontal)}}} L'={len(passages)} H'={len(horizontal)}"
        f" lost={lost} codim={codim_total}"
    )
    if divisorial:
        text += f" divisorial[{branch}]"
    if caveat:
        text += " (non-adapted remap)"
    return text


def cmd_plumb(doc: AnalysisDocument, args, problems: list[str]):
    from .plumbing import Binomial
    system = doc.system()
    try:
        converted = convert(system, assume_theorems=args.assume_theorems)
    except ConversionError as exc:
        report = {"command": "plumb", "obstruction": str(exc), "missing": exc.missing}
        return 3, report, _obstruction_text
    model = local_model(converted, system)
    equations = []
    for item in converted:
        entry = {"source": item.source, "period": system.rref_rows[item.source].render()}
        if isinstance(item, Binomial):
            entry.update(type="binomial", unit=item.unit, I=dict(item.i_exp), J=dict(item.j_exp))
        else:
            entry.update(type="analytic", symbol=item.symbol, top_restriction=item.top_restriction)
        equations.append(entry)
    blocks = [
        {"variables": variables, **lattice_analysis(list(binomials))._asdict()}
        for variables, binomials in model.blocks
    ]
    certificate = hurwitz_rule(system)
    report = {
        "command": "plumb",
        "equations": equations,
        "model": {
            "smooth_dim": model.smooth_dim, "t_params": model.t_params,
            "blocks": blocks, "unit_absorption": model.unit_absorption,
        },
        "residue_certificate": None if certificate is None else certificate._asdict(),
    }
    return 0, report, _plumb_text


def _obstruction_text(report) -> list[str]:
    lines = [f"conversion obstruction: {report['obstruction']}"]
    if report["missing"]:
        lines.append(f"  required relation: {report['missing']}")
    return lines


def _plumb_text(report) -> list[str]:
    from .plumbing import Analytic, Binomial, LatticeReport
    rendered = {}  # source row -> the binomial's text, also listed under its block
    lines = ["period equation -> plumbing equation:"]
    for e in report["equations"]:
        if e["type"] == "binomial":
            binomial = Binomial(e["unit"], tuple(e["I"].items()), tuple(e["J"].items()), e["source"])
            plumb = rendered[e["source"]] = binomial.render()
        else:
            analytic = Analytic(e["symbol"], e["top_restriction"], e["source"])
            plumb = f"(extends to the boundary) {analytic.render()}"
        lines.append(f"  {e['period']}  |  {plumb}")
    model = report["model"]
    t_params = model["t_params"]
    lines += [
        "",
        f"local model: smooth factor of dimension {model['smooth_dim']}"
        + (f" with free passage parameters {', '.join(t_params)}" if t_params else ""),
    ]
    for block in model["blocks"]:
        members = set(block["variables"])
        lattice = LatticeReport(block["smooth"], block["saturated"], block["generators"])
        lines.append(
            f"  binomial factor on {{{', '.join(block['variables'])}}}: {lattice.label},"
            f" lattice {'saturated' if lattice.saturated else 'not saturated'}"
        )
        lines += [
            f"    {rendered[e['source']]}"
            for e in report["equations"]
            if e["type"] == "binomial" and e["I"].keys() | e["J"].keys() <= members
        ]
    if not model["blocks"]:
        lines.append("  no binomial factors: purely analytic local equations")
    certificate = report["residue_certificate"]
    if certificate is not None:
        lines.append(f"residue certificate: {certificate['kind']}: {certificate['detail']}")
    return lines


def cmd_deform(doc: AnalysisDocument, args, problems: list[str]):
    system = doc.system()
    assignment = doc.periods()
    requests = doc.deformation_requests()
    if assignment is None or not requests:
        violations = ["document carries no periods or no deformations"]
        text = _says("nothing to do: document needs a periods block and a deformations list")
        return 1, {"command": "deform", "violations": violations}, text
    from .deformation import CylinderClass
    reports = []
    try:
        for edge, move in requests:
            cls = CylinderClass.from_edge(system, edge)
            outcome = check_preserved(system, assignment, cls, move)
            rows = [
                {"row": row.index, "status": row.status, "residual": row.residual, "note": row.note}
                for row in outcome.rows
            ]
            reports.append({
                "class": cls.edges, "r": str(move.r), "s": str(move.s),
                "rows": rows, "preserved": outcome.all_preserved,
            })
    except DeformationError as exc:
        return 4, {"command": "deform", "error": str(exc)}, _says(f"hypothesis violation: {exc}")
    all_ok = all([r["preserved"] for r in reports])
    verdict = "preserved" if all_ok else "hypothesis-violation"
    report = {"command": "deform", "reports": reports, "verdict": verdict}
    return (0 if all_ok else 4), report, _deform_text


def _deform_text(report) -> list[str]:
    lines = []
    for r in report["reports"]:
        lines.append(f"class {{{', '.join(r['class'])}}} under r={r['r']}, s={r['s']}:")
        for row in r["rows"]:
            note = f" ({row['note']})" if row["note"] else ""
            lines.append(f"  row {row['row']}: {row['status']}, residual {row['residual']}{note}")
    return lines + [f"deformation: {report['verdict']}"]


def cmd_aim(doc: AnalysisDocument, args, problems: list[str]):
    system = doc.system()
    data = doc.symplectic()
    if data is None:
        report = {"command": "aim", "violations": ["document carries no symplectic data"]}
        return 1, report, _says("nothing to do: document needs a symplectic block")
    from .deformation import CylinderClass
    try:
        tangent = tangent_absolute(system, data)
        bounds = []
        for cls_edges in cross_equivalence_classes(system):
            edges = sorted(cls_edges)
            try:
                bound = lemma_bound(system, data, CylinderClass.from_edge(system, edges[0]))
            except (AimError, DeformationError) as exc:
                bounds.append({"class": edges, "skipped": str(exc)})
            else:
                bounds.append({"class": edges, **bound._asdict()})
        report = {
            "command": "aim",
            "tangent": {
                "dim": tangent.dim, "form_rank": tangent.form_rank, "symplectic": tangent.symplectic,
            },
            "bounds": bounds,
        }
        if args.pairwise_cross:
            result = pairwise_cross_witness(system, data, *args.pairwise_cross)
            report["pairwise_cross"] = {"witness": result.witness}
            if result.witness is None:
                report["pairwise_cross"]["diagnostic"] = result.diagnostic
        if args.decompose is not None:
            idx = args.decompose
            if not 0 <= idx < system.rank:
                raise AimError(f"row index {idx} out of range (rank {system.rank})")
            row = system.rref_rows[idx].cycle
            if row.is_lambda_only():
                kind, parts = "pairwise-circumference", pairwise_circum_decompose(row, system, data)
            else:
                kind = "at-most-two-nodes"
                parts = at_most_two_decompose(row, system, data, limit=args.limit)
            report["decompose"] = {"row": idx, "kind": kind, "parts": parts}
    except AimError as exc:
        return 1, {"command": "aim", "error": str(exc)}, _says(f"aim error: {exc}")
    return 0, report, lambda r: _aim_text(r, args.pairwise_cross)


def _aim_text(report, pair) -> list[str]:
    tangent = report["tangent"]
    lines = [
        f"tangent image in absolute homology: dim {tangent['dim']},"
        f" restricted form rank {tangent['form_rank']},"
        f" {'symplectic' if tangent['symplectic'] else 'NOT symplectic'}"
    ]
    for bound in report["bounds"]:
        label = "{" + ", ".join(bound["class"]) + "}"
        if "skipped" in bound:
            lines.append(f"class {label}: parallel-deformation bound skipped ({bound['skipped']})")
        else:
            lines.append(
                f"class {label}: parallel-deformation dimension {bound['dim']},"
                f" bound {'satisfied' if bound['bound_satisfied'] else 'VIOLATED'}"
            )
    if "pairwise_cross" in report:
        witness = report["pairwise_cross"]["witness"]
        found = (
            f"{witness.render()} = 0" if witness is not None
            else f"absent; {report['pairwise_cross']['diagnostic']}"
        )
        lines.append(f"pairwise witness for ({pair[0]}, {pair[1]}): {found}")
    if "decompose" in report:
        decompose = report["decompose"]
        lines.append(f"decomposition of row {decompose['row']} ({decompose['kind']}):")
        lines += [f"  {part.render()} = 0" for part in decompose["parts"]]
    return lines


if __name__ == "__main__":
    sys.exit(main())
