"""Reference implementation kept as the oracle for the symplectic-row parse.

``parse_symplectic_rows`` is how ``strata.document`` read the ``J``, ``iota``
and ``u_lambda`` rows of a symplectic block before it read each row in one
pass: one checked call per entry, each with its own JSON path.
"""

from __future__ import annotations

from strata.document import _expect, _get, _literal


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
