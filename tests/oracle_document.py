"""Reference implementations kept as oracles for the document parse.

``parse_symplectic_rows`` is how ``strata.document`` read the ``J``, ``iota``
and ``u_lambda`` rows of a symplectic block before it read each row in one
pass: one checked call per entry, each with its own JSON path.

``parse_equation`` and ``check_carriers`` are how it read an equation or
relation before it wrote each literal into its basis column as read: the two
coefficient maps as name-keyed dicts, checked against the basis names and
edge ids in a second pass.
"""

from __future__ import annotations

from strata.document import _expect, _get, _literal
from strata.errors import Violation


def parse_symplectic_rows(ydata: dict, yp: str, seen: dict) -> tuple:
    j_rows = []
    for a, row in enumerate(_get(ydata, "J", list, yp)):
        row = _expect(row, list, f"{yp}.J[{a}]")
        j_rows.append(tuple([_expect(x, int, f"{yp}.J[{a}][{b}]") for b, x in enumerate(row)]))
    iota_rows = []
    for a, row in enumerate(_get(ydata, "iota", list, yp)):
        row = _expect(row, list, f"{yp}.iota[{a}]")
        iota_rows.append(
            tuple([_literal(x, f"{yp}.iota[{a}][{b}]", seen) for b, x in enumerate(row)])
        )
    u_lambda = {}
    for eid, row in sorted(_get(ydata, "u_lambda", dict, yp).items()):
        row = _expect(row, list, f"{yp}.u_lambda.{eid}")
        u_lambda[eid] = tuple(
            [_literal(x, f"{yp}.u_lambda.{eid}[{b}]", seen) for b, x in enumerate(row)]
        )
    return tuple(j_rows), tuple(iota_rows), u_lambda


def _parse_gaussian_map(data: dict, path: str, seen: dict) -> dict:
    out = {}
    for key in sorted(data):
        out[key] = _literal(data[key], f"{path}.{key}", seen)
    return out


def parse_equation(item, path: str, seen: dict) -> tuple[dict, dict]:
    """The ``coeffs`` and ``lambda`` maps of an equation or relation, by name."""
    item = _expect(item, dict, path)
    return (
        _parse_gaussian_map(_get(item, "coeffs", dict, path, default={}), f"{path}.coeffs", seen),
        _parse_gaussian_map(_get(item, "lambda", dict, path, default={}), f"{path}.lambda", seen),
    )


def check_carriers(coeffs: dict, lam: dict, subject: str, names, edges) -> list[Violation]:
    """The reference violations of one parsed equation or relation."""
    out = []
    for name in sorted(coeffs):
        if name not in names:
            out.append(Violation(subject, "references", f"unknown basis element {name}"))
    for eid in sorted(lam):
        if eid not in edges:
            out.append(Violation(subject, "references", f"unknown edge {eid}"))
    return out
