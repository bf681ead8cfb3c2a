"""Known-answer and digest checks on verdicts.

Every verdict is checked three ways: its exit code, the construction-known
fields of its ``--json`` payload (or a marker line of its text output), and
the sha256 of its stdout against the digest recorded in ``digests.json``.
Any mismatch makes the verdict a failure.  Rational arithmetic here is the
standard library's, never the library's own.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(path: str = DIGESTS_PATH) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def verdict_problems(op, code: int, stdout: str, digests: dict[str, str] | None) -> list[str]:
    """Every way the verdict differs from its known answer; empty when correct.

    ``digests`` is None only while digests are being recorded.
    """
    problems = []
    if code != op.expect_exit:
        problems.append(f"exit {code}, expected {op.expect_exit}")
    if op.check is not None:
        try:
            problems += op.check(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    if digests is not None:
        want = digests.get(op.key)
        if want is None:
            problems.append("no recorded digest")
        elif stdout_digest(stdout) != want:
            problems.append("stdout digest mismatch")
    return problems


# -- literals -----------------------------------------------------------------


def parse_canonical(text: str) -> tuple[Fraction, Fraction]:
    """Real and imaginary parts of a canonical literal such as ``3/2-1/1 i``."""
    text = text.strip()
    if not text.endswith(" i"):
        return Fraction(text), Fraction(0)
    body = text[:-2]
    split = max(body.rfind("+"), body.rfind("-"))
    if split <= 0:
        raise ValueError(f"malformed canonical literal {text!r}")
    return Fraction(body[:split]), Fraction(body[split:])


def cycle_terms(cycle_json: dict) -> dict[tuple[str, str], tuple[Fraction, Fraction]]:
    """Nonzero terms of a ``cycle_to_json`` payload keyed by (kind, name)."""
    out = {}
    for kind, field in (("b", "coeffs"), ("l", "lambda")):
        for key, literal in cycle_json[field].items():
            value = parse_canonical(literal)
            if value != (0, 0):
                out[(kind, key)] = value
    return out


def sum_terms(parts: list[dict]) -> dict[tuple[str, str], tuple[Fraction, Fraction]]:
    total: dict[tuple[str, str], tuple[Fraction, Fraction]] = {}
    for part in parts:
        for key, (re, im) in cycle_terms(part).items():
            old_re, old_im = total.get(key, (Fraction(0), Fraction(0)))
            total[key] = (old_re + re, old_im + im)
    return {k: v for k, v in total.items() if v != (0, 0)}


# -- known answers per workload ------------------------------------------------


def _json(stdout: str) -> dict:
    return json.loads(stdout)


def expect_no_violations(stdout: str) -> list[str]:
    payload = _json(stdout)
    return [] if payload["violations"] == [] else [f"violations {payload['violations']}"]


def expect_witness_line(stdout: str) -> list[str]:
    lines = [line for line in stdout.splitlines() if line.startswith("pairwise witness")]
    if len(lines) != 1 or "absent" in lines[0]:
        return [f"pairwise witness line {lines}"]
    return []


def dense_analyze(stdout: str) -> list[str]:
    payload = _json(stdout)
    problems = []
    if payload["certificate"]["verdict"] != "consistent":
        problems.append(f"certificate {payload['certificate']['verdict']}")
    # One level passage and no horizontal node: 2^1 undegenerations.
    if len(payload["undegenerations"]) != 2 or payload["undegenerations_skipped"]:
        problems.append("undegeneration table is not 2 rows")
    if payload["classes"] != []:
        problems.append("cross-equivalence classes without horizontal nodes")
    return problems


def dense_plumb(rank: int):
    def check(stdout: str) -> list[str]:
        payload = _json(stdout)
        problems = []
        kinds = [e["type"] for e in payload["equations"]]
        if kinds != ["analytic"] * rank:
            problems.append(f"plumbing equations {kinds}, expected {rank} analytic")
        if payload["model"]["blocks"] != []:
            problems.append("binomial blocks without horizontal nodes")
        cert = payload["residue_certificate"]
        if cert is None or cert["kind"] != "smooth-normal-crossing":
            problems.append(f"residue certificate {cert}")
        return problems

    return check


def cylinders_analyze(g: int):
    def check(stdout: str) -> list[str]:
        payload = _json(stdout)
        problems = []
        if payload["certificate"]["verdict"] != "consistent":
            problems.append(f"certificate {payload['certificate']['verdict']}")
        if len(payload["undegenerations"]) != 2**g or payload["undegenerations_skipped"]:
            problems.append(f"undegeneration table is not 2^{g} rows")
        if len(payload["classes"]) != 1 or len(payload["classes"][0]) != g:
            problems.append(f"classes {payload['classes']}")
        return problems

    return check


def cylinders_plumb(g: int):
    def check(stdout: str) -> list[str]:
        payload = _json(stdout)
        problems = []
        kinds = [e["type"] for e in payload["equations"]]
        if kinds.count("binomial") != g - 1 or kinds.count("analytic") != g - 1:
            problems.append(f"plumbing equations {kinds}")
        if len(payload["model"]["blocks"]) != 1:
            problems.append(f"{len(payload['model']['blocks'])} binomial blocks, expected 1")
        return problems

    return check


def _aim_common(payload: dict) -> list[str]:
    problems = []
    if not payload["tangent"]["symplectic"]:
        problems.append("tangent image not symplectic")
    bounds = payload["bounds"]
    if not bounds or not all(b.get("bound_satisfied") is True for b in bounds):
        problems.append(f"lemma bounds {bounds}")
    return problems


def cylinders_pairwise(stdout: str) -> list[str]:
    payload = _json(stdout)
    problems = _aim_common(payload)
    if payload["pairwise_cross"]["witness"] is None:
        problems.append("pairwise witness absent")
    return problems


def cylinders_decompose(row_terms: dict[tuple[str, str], tuple[Fraction, Fraction]]):
    """Parts are two-node period forms that sum back exactly to the row."""

    def check(stdout: str) -> list[str]:
        payload = _json(stdout)
        problems = _aim_common(payload)
        parts = payload["decompose"]["parts"]
        if payload["decompose"]["kind"] != "pairwise-circumference":
            problems.append(f"decomposition kind {payload['decompose']['kind']}")
        for part in parts:
            if part["coeffs"] or len(part["lambda"]) > 2:
                problems.append(f"part with more than two lambda terms: {part}")
        if sum_terms(parts) != row_terms:
            problems.append("decomposition parts do not sum to the row")
        return problems

    return check
