"""Byte-identical CLI output, pinned by the recorded stdout digests.

Every fixture command line of the benchmark, and every command line on the
pool documents of every bench size (parallel-cylinders g = 5..9, dense-complex
n = 8..14), runs in-process through ``strata.cli.main``; each exit code, known
answer and stdout sha256 must match ``bench/digests.json``.  The benchmark's
own modules build the command lines and check the verdicts; nothing under
``bench/`` is written.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import generators  # noqa: E402
import workloads  # noqa: E402
from strata.cli import main  # noqa: E402

CYLINDER_GENERA = generators.CYLINDER_GENERA
DENSE_SIZES = generators.DENSE_SIZES


def _problems(ops) -> list[str]:
    digests = checks.load_digests()
    out = []
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(op.argv))
        out += [f"{op.key}: {p}" for p in checks.verdict_problems(op, code, buf.getvalue(), digests)]
    return out


def test_fixture_command_lines_match_their_digests():
    ops = workloads.fixtures_cli(str(ROOT)).ops
    assert len(ops) == 71
    assert _problems(ops) == []


@pytest.mark.parametrize("g", CYLINDER_GENERA)
def test_cylinder_pool_command_lines_match_their_digests(g, tmp_path):
    ops = []
    for index in range(generators.POOL_SIZE):
        path = tmp_path / f"{index:02d}-cylinders-g{g}.json"
        generators.write_document(generators.cylinders_document(g, index), str(path))
        ops += workloads.cylinder_ops(str(path), g, index)
    assert len(ops) == 5 * generators.POOL_SIZE
    assert _problems(ops) == []


@pytest.mark.parametrize("n", DENSE_SIZES)
def test_dense_pool_command_lines_match_their_digests(n, tmp_path):
    ops = []
    for index in range(generators.POOL_SIZE):
        path = tmp_path / f"{index:02d}-dense-n{n:02d}.json"
        generators.write_document(generators.dense_document(n, index), str(path))
        ops += workloads.dense_ops(str(path), n, index)
    assert len(ops) == 3 * generators.POOL_SIZE
    assert _problems(ops) == []
