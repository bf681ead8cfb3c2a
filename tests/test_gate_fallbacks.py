"""The gate's shape certificates and their fallbacks, pinned on the CLI.

``linalg.rank`` and ``linalg.int_singular`` read leading columns before they
eliminate, and the tangent image reads J^-1 off a monomial J.  Each mutation
below of ``minimal_stratum_parallel`` either fails one of those certificates,
so that the elimination decides, or breaks a check the gate reads on ints.
The exit code and stdout of ``validate`` (text and ``--json``) and ``aim`` on
each are recorded from the elimination-only gate and must not change.
"""

import json

import pytest

from strata import linalg
from strata.cli import main
from support import conjugated_document, write_cylinders_document


def _identity(n: int, **extra) -> list[list[int]]:
    """The n x n identity with ``extra`` entries, keyed ``"a_b"``, added."""
    u = [[int(a == b) for b in range(n)] for a in range(n)]
    for key, x in extra.items():
        a, b = map(int, key.split("_"))
        u[a][b] += x
    return u


def _iota_duplicate_row(raw):
    raw["symplectic"]["iota"][1] = raw["symplectic"]["iota"][0]


def _iota_zero_row(raw):
    raw["symplectic"]["iota"][1] = ["0"] * len(raw["symplectic"]["iota"][1])


def _j_zero_rows(raw):
    raw["symplectic"]["J"][0][1] = raw["symplectic"]["J"][1][0] = 0


def _j_singular_repeated_lead(raw):
    # Two 3 x 3 skew blocks: odd size, so singular, with no zero row.
    block = [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]
    raw["symplectic"]["J"] = [row + [0] * 3 for row in block] + [[0] * 3 + row for row in block]


def _j_repeated_lead(raw):
    return conjugated_document(raw, _identity(6, **{"0_2": 1}))


def _iota_repeated_lead(raw):
    return conjugated_document(raw, _identity(6, **{"0_0": 1, "2_0": 1}))


def _complex_coefficient(raw):
    raw["system"]["equations"][0]["coeffs"]["d1"] = "1+i"


def _extra_crossing_pairing(raw):
    raw["basis"][0]["pairings"]["e2"] = 1


def _crossing_pairing_two(raw):
    raw["basis"][1]["pairings"]["e2"] = 2


def _noncrossing_pairings(raw):
    raw["basis"][3]["pairings"] = {"e1": 1, "e3": -1}


def _conflicting_ratio(raw):
    raw["system"]["ratios"].append({"e": "e1", "e'": "e3", "q": "2"})


MUTATIONS = {
    "iota-duplicate-row": _iota_duplicate_row,
    "iota-zero-row": _iota_zero_row,
    "j-zero-rows": _j_zero_rows,
    "j-singular-repeated-lead": _j_singular_repeated_lead,
    "j-repeated-lead": _j_repeated_lead,
    "iota-repeated-lead": _iota_repeated_lead,
    "complex-coefficient": _complex_coefficient,
    "extra-crossing-pairing": _extra_crossing_pairing,
    "crossing-pairing-two": _crossing_pairing_two,
    "noncrossing-pairings": _noncrossing_pairings,
    "conflicting-ratio": _conflicting_ratio,
}


def write_mutation(name: str, fixture_dir, tmp_path) -> str:
    raw = json.loads((fixture_dir / "minimal_stratum_parallel.json").read_text())
    raw = MUTATIONS[name](raw) or raw
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


# Exit code and stdout of each (mutation, command), from the elimination-only gate.
EXPECTED = {
    ('iota-duplicate-row', 'validate'): (
        1, 'violations: 2\n  adjunction (1, e1): adjunction: <x_1, u(lambda)> = 0 but <iota(x_1), lambda> = 1\n  minimal: invertible: inclusion is not injective\n',
    ),
    ('iota-duplicate-row', 'validate --json'): (
        1, '{\n  "command": "validate",\n  "violations": [\n    "adjunction (1, e1): adjunction: <x_1, u(lambda)> = 0 but <iota(x_1), lambda> = 1",\n    "minimal: invertible: inclusion is not injective"\n  ]\n}\n',
    ),
    ('iota-duplicate-row', 'aim'): (
        1, 'invalid document:\n  adjunction (1, e1): adjunction: <x_1, u(lambda)> = 0 but <iota(x_1), lambda> = 1\n  minimal: invertible: inclusion is not injective\n',
    ),
    ('iota-zero-row', 'validate'): (
        1, 'violations: 1\n  minimal: invertible: inclusion is not injective\n',
    ),
    ('iota-zero-row', 'validate --json'): (
        1, '{\n  "command": "validate",\n  "violations": [\n    "minimal: invertible: inclusion is not injective"\n  ]\n}\n',
    ),
    ('iota-zero-row', 'aim'): (
        1, 'invalid document:\n  minimal: invertible: inclusion is not injective\n',
    ),
    ('j-zero-rows', 'validate'): (
        1, 'violations: 1\n  J: nondegenerate: intersection matrix is singular\n',
    ),
    ('j-zero-rows', 'validate --json'): (
        1, '{\n  "command": "validate",\n  "violations": [\n    "J: nondegenerate: intersection matrix is singular"\n  ]\n}\n',
    ),
    ('j-zero-rows', 'aim'): (
        1, 'invalid document:\n  J: nondegenerate: intersection matrix is singular\n',
    ),
    ('j-singular-repeated-lead', 'validate'): (
        1, 'violations: 1\n  J: nondegenerate: intersection matrix is singular\n',
    ),
    ('j-singular-repeated-lead', 'validate --json'): (
        1, '{\n  "command": "validate",\n  "violations": [\n    "J: nondegenerate: intersection matrix is singular"\n  ]\n}\n',
    ),
    ('j-singular-repeated-lead', 'aim'): (
        1, 'invalid document:\n  J: nondegenerate: intersection matrix is singular\n',
    ),
    ('j-repeated-lead', 'validate'): (
        0, 'ok: graph, basis, system, and attached data satisfy all invariants\n',
    ),
    ('j-repeated-lead', 'validate --json'): (
        0, '{\n  "command": "validate",\n  "violations": []\n}\n',
    ),
    ('j-repeated-lead', 'aim'): (
        0, 'tangent image in absolute homology: dim 2, restricted form rank 2, symplectic\nclass {e1, e2, e3}: parallel-deformation dimension 1, bound satisfied\n',
    ),
    ('iota-repeated-lead', 'validate'): (
        0, 'ok: graph, basis, system, and attached data satisfy all invariants\n',
    ),
    ('iota-repeated-lead', 'validate --json'): (
        0, '{\n  "command": "validate",\n  "violations": []\n}\n',
    ),
    ('iota-repeated-lead', 'aim'): (
        0, 'tangent image in absolute homology: dim 2, restricted form rank 2, symplectic\nclass {e1, e2, e3}: parallel-deformation dimension 1, bound satisfied\n',
    ),
    ('complex-coefficient', 'validate'): (
        1, 'violations: 1\n  equation 0: real-coefficients: complex coefficient in a real system\n',
    ),
    ('complex-coefficient', 'validate --json'): (
        1, '{\n  "command": "validate",\n  "violations": [\n    "equation 0: real-coefficients: complex coefficient in a real system"\n  ]\n}\n',
    ),
    ('complex-coefficient', 'aim'): (
        1, 'invalid document:\n  equation 0: real-coefficients: complex coefficient in a real system\n',
    ),
    ('extra-crossing-pairing', 'validate'): (
        1, 'violations: 1\n  basis element d1: crossing-pairings: pairing with e2 is 1, expected 0\n',
    ),
    ('extra-crossing-pairing', 'validate --json'): (
        1, '{\n  "command": "validate",\n  "violations": [\n    "basis element d1: crossing-pairings: pairing with e2 is 1, expected 0"\n  ]\n}\n',
    ),
    ('extra-crossing-pairing', 'aim'): (
        1, 'invalid document:\n  basis element d1: crossing-pairings: pairing with e2 is 1, expected 0\n',
    ),
    ('crossing-pairing-two', 'validate'): (
        1, 'violations: 1\n  basis element d2: crossing-pairings: pairing with e2 is 2, expected 1\n',
    ),
    ('crossing-pairing-two', 'validate --json'): (
        1, '{\n  "command": "validate",\n  "violations": [\n    "basis element d2: crossing-pairings: pairing with e2 is 2, expected 1"\n  ]\n}\n',
    ),
    ('crossing-pairing-two', 'aim'): (
        1, 'invalid document:\n  basis element d2: crossing-pairings: pairing with e2 is 2, expected 1\n',
    ),
    ('noncrossing-pairings', 'validate'): (
        1, 'violations: 2\n  basis element a1: noncrossing-pairings: nonzero pairing with horizontal edge e1\n  basis element a1: noncrossing-pairings: nonzero pairing with horizontal edge e3\n',
    ),
    ('noncrossing-pairings', 'validate --json'): (
        1, '{\n  "command": "validate",\n  "violations": [\n    "basis element a1: noncrossing-pairings: nonzero pairing with horizontal edge e1",\n    "basis element a1: noncrossing-pairings: nonzero pairing with horizontal edge e3"\n  ]\n}\n',
    ),
    ('noncrossing-pairings', 'aim'): (
        1, 'invalid document:\n  basis element a1: noncrossing-pairings: nonzero pairing with horizontal edge e1\n  basis element a1: noncrossing-pairings: nonzero pairing with horizontal edge e3\n',
    ),
    ('conflicting-ratio', 'validate'): (
        1, 'violations: 2\n  ratio e2~e3: ratio-consistency: chain gives 1, declared closure gives 1/2\n  ratio e1~e3: ratios-hold: declared ratio violated\n',
    ),
    ('conflicting-ratio', 'validate --json'): (
        1, '{\n  "command": "validate",\n  "violations": [\n    "ratio e2~e3: ratio-consistency: chain gives 1, declared closure gives 1/2",\n    "ratio e1~e3: ratios-hold: declared ratio violated"\n  ]\n}\n',
    ),
    ('conflicting-ratio', 'aim'): (
        1, 'invalid document:\n  ratio e2~e3: ratio-consistency: chain gives 1, declared closure gives 1/2\n  ratio e1~e3: ratios-hold: declared ratio violated\n',
    ),
}


@pytest.mark.parametrize("name, command", list(EXPECTED))
def test_gate_output_is_pinned(name, command, capsys, fixture_dir, tmp_path):
    path = write_mutation(name, fixture_dir, tmp_path)
    head, *flags = command.split()
    code = main([head, path, *flags])
    assert (code, capsys.readouterr().out) == EXPECTED[name, command]


@pytest.mark.parametrize("original", [linalg.rref])
def test_validate_on_cylinders_makes_no_elimination(original, monkeypatch, capsys, tmp_path):
    path = write_cylinders_document(tmp_path / "cylinders.json", 9)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, original.__name__, counting)
    assert main(["validate", path]) == 0
    capsys.readouterr()
    # J and iota arrive in a Darboux shape: their ranks are read off leading columns (2 rref calls before).
    assert calls == []
