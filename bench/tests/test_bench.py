"""Self-tests of the benchmark harness (not of strata itself)."""

from __future__ import annotations

import dataclasses

import pytest

import checks
import generators as gen
import harness
import tracing
import workloads
from run import ROOT, import_strata

MAIN = import_strata()


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("name", ["dense-complex", "parallel-cylinders"])
def test_same_seed_gives_byte_identical_documents(name, tmp_path):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    docs_a = workloads.build(name, ROOT, str(first), 7).documents
    docs_b = workloads.build(name, ROOT, str(second), 7).documents
    docs_c = workloads.build(name, ROOT, str(other), 8).documents
    assert [_read(p) for p in docs_a] == [_read(p) for p in docs_b]
    assert [_read(p) for p in docs_a] != [_read(p) for p in docs_c]


def test_dense_matrices_have_full_rank_modulo_p():
    for n in gen.DENSE_SIZES:
        _, rows = gen.dense_matrix(n, 0)
        assert gen.rank_mod_p(rows) == n + 2
    # i maps to a square root of -1, so (i, 1) and (1, -i) are dependent.
    assert gen.rank_mod_p([[(0, 1), (1, 0)], [(1, 0), (0, -1)]]) == 1


def _fixture_op():
    return next(op for op in workloads.fixtures_cli(ROOT).ops if op.key.endswith("intro_two_level|analyze|text"))


def test_correct_verdict_passes():
    tally = harness.Tally()
    harness.check_in_process(MAIN, _fixture_op(), checks.load_digests(), tally)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_wrong_exit_code_is_a_failure():
    op = dataclasses.replace(_fixture_op(), expect_exit=0)
    tally = harness.Tally()
    harness.check_in_process(MAIN, op, checks.load_digests(), tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exit 2, expected 0" in tally.reasons[0]


def test_wrong_digest_is_a_failure():
    op = _fixture_op()
    digests = dict(checks.load_digests())
    digests[op.key] = "0" * 64
    tally = harness.Tally()
    harness.check_in_process(MAIN, op, digests, tally)
    assert tally.failed == 1 and "digest mismatch" in tally.reasons[0]


def test_uncaught_exit_is_a_failure():
    op = dataclasses.replace(_fixture_op(), argv=("analyze", "--no-such-flag"))
    tally = harness.Tally()
    harness.check_in_process(MAIN, op, checks.load_digests(), tally)
    assert tally.failed == 1 and "uncaught SystemExit" in tally.reasons[0]


def test_wrong_known_answer_is_a_failure(tmp_path):
    wl = workloads.build("parallel-cylinders", ROOT, str(tmp_path), 0)
    op = next(op for op in wl.ops if op.key.endswith("aim-decompose"))
    wrong = {("l", "e01"): (1, 0)}
    bad = dataclasses.replace(op, check=checks.cylinders_decompose(wrong))
    tally = harness.Tally()
    harness.check_in_process(MAIN, bad, None, tally)
    assert tally.failed == 1 and "do not sum to the row" in tally.reasons[0]


def test_canonical_literals_parse_exactly():
    from fractions import Fraction

    assert checks.parse_canonical("3/2-1/1 i") == (Fraction(3, 2), Fraction(-1))
    assert checks.parse_canonical("-3/2+5/7 i") == (Fraction(-3, 2), Fraction(5, 7))
    assert checks.parse_canonical("-4/1") == (Fraction(-4), Fraction(0))


def test_wrappers_cover_every_binding_and_are_removed():
    import strata.aim
    import strata.cli
    from strata import document, equations, linalg

    originals = (linalg.rref, linalg.bareiss_det, equations.is_correlated)
    before = {
        "violations": document.AnalysisDocument.__dict__["violations"],
        "rref_rows": equations.EquationSystem.__dict__["rref_rows"],
        "convert": strata.cli.convert,
    }
    wrappers = tracing.Wrappers(tracing.Tracer())
    with wrappers.installed():
        for original in originals:
            assert list(tracing.Wrappers.bindings(original)) == []
        assert strata.aim.is_correlated.__wrapped__ is originals[2]
        assert document.AnalysisDocument.__dict__["violations"] is not before["violations"]
        assert strata.cli.convert is not before["convert"]
    assert (linalg.rref, linalg.bareiss_det, equations.is_correlated) == originals
    assert strata.aim.is_correlated is originals[2]
    assert document.AnalysisDocument.__dict__["violations"] is before["violations"]
    assert equations.EquationSystem.__dict__["rref_rows"] is before["rref_rows"]
    assert strata.cli.convert is before["convert"]


def test_self_times_count_each_nanosecond_once():
    spans = [
        ("plumbing.convert", 0, 100, None, 1),
        ("equations.rref", 10, 40, 0, 1),
        ("linalg.rref", 15, 35, 1, 1),
        ("equations.is_correlated", 50, 80, 0, 1),
        ("linalg.rref", 55, 75, 3, 1),
        ("document.load", 100, 110, None, 1),
    ]
    owned, top = tracing.self_times(spans, 0)
    assert owned == {"plumbing.convert": 50, "equations.rref": 10, "linalg.rref": 40, "document.load": 10}
    assert top == 110 == sum(owned.values())


def _smallest(workload):
    """Only the operations on the workload's smallest document."""
    if not workload.documents:
        return workload
    first = workload.documents[0]
    ops = [op for op in workload.ops if op.path == first]
    return dataclasses.replace(workload, ops=ops, documents=[first])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_smoke(name, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "MIN_SAMPLES", 1)
    digests = checks.load_digests()
    wl = _smallest(workloads.build(name, ROOT, str(tmp_path), 3))
    tally = harness.Tally()
    loop = harness.closed_loop(MAIN, ROOT, wl, digests, 0, tally)
    gated, raw = harness.end_to_end(loop, [0.1])
    assert len(loop.verdict_ms) == 1 and tally.failed == 0, tally.reasons
    assert all(value > 0 for value, _ in [*gated.values(), *raw.values()])

    from strata import equations, linalg

    originals = (linalg.rref, equations.is_correlated)
    rounds, spans = tracing.traced_run(MAIN, wl, digests, 0, tally)
    assert (linalg.rref, equations.is_correlated) == originals
    assert tally.failed == 0, tally.reasons
    layer_metrics, problems = tracing.per_layer(rounds, {})
    assert problems == [] and spans
    assert all(name in layer_metrics for name in tracing.COUNTS)
    total, traced = tracing.accounting_ms(rounds)
    assert total == pytest.approx(traced)
    assert layer_metrics["cli.self_ms"][0] > 0
