"""Time ``strata.linalg.rref`` against the Gauss-Jordan eliminator it replaced.

One in-process round of each benchmark workload runs through
``strata.cli.main`` while every ``strata`` binding of ``linalg.rref`` records
its input.  Each recorded matrix is then reduced by
``oracle_linalg.rref_gauss_jordan`` (two pivots per pass, finished rows
updated at every step), ``oracle_linalg.rref_one_step`` (one pivot per pass)
and ``linalg.rref``, alternately, and the script prints, per workload and
document size, the sum over matrices of the minimum of ``--repeats`` runs,
and how many inputs were already in reduced echelon form (up to row order and
zero rows), which ``rref`` returns without eliminating.  All three
eliminators must return the same form on every input.  The benchmark's own
modules build the documents and command lines; nothing under ``bench/`` is
written.  Pytest does not collect this file.

    PYTHONPATH=src python tests/time_rref.py [--seed 7] [--repeats 5]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(Path(__file__).resolve().parent)]

import oracle_linalg  # noqa: E402
import workloads  # noqa: E402
import strata.aim  # noqa: E402,F401  (loaded now so that its bindings are recorded too)
import strata.deformation  # noqa: E402,F401
import strata.plumbing  # noqa: E402,F401
from strata import linalg  # noqa: E402
from strata.cli import main  # noqa: E402


def _bindings(original):
    for name, module in sorted(sys.modules.items()):
        if name == "strata" or name.startswith("strata."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr


def recorded_inputs(seed: int) -> dict[tuple[str, str], list]:
    """Every ``linalg.rref`` input of one round of each workload, by (workload, size)."""
    original = linalg.rref
    inputs: dict[tuple[str, str], list] = defaultdict(list)
    group: list = []

    def recorder(rows):
        rows = [list(row) for row in rows]
        group.append(rows)
        return original(rows)

    bindings = list(_bindings(original))
    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, str(ROOT), workdir, seed).ops:
                size = op.key.split("|")[1].split("-")[0]
                group = inputs[(name, size)]
                for module, attr in bindings:
                    setattr(module, attr, recorder)
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        main(list(op.argv))
                finally:
                    for module, attr in bindings:
                        setattr(module, attr, original)
    return inputs


def best_ns(functions, rows, repeats: int) -> tuple[list[int], list]:
    """The least time of each function over ``repeats`` alternating runs, and its outputs."""
    best = [None] * len(functions)
    outs = [None] * len(functions)
    for _ in range(repeats):
        for k, function in enumerate(functions):
            start = time.perf_counter_ns()
            outs[k] = function(rows)
            elapsed = time.perf_counter_ns() - start
            best[k] = elapsed if best[k] is None else min(best[k], elapsed)
    return best, outs


def already_reduced(rows, reduced) -> bool:
    """Whether the nonzero input rows are the reduced rows in some order."""
    nonzero = [list(row) for row in rows if any(x.a or x.b for x in row)]
    return len(nonzero) == len(reduced) and all(row in nonzero for row in reduced)


def main_(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    functions = (oracle_linalg.rref_gauss_jordan, oracle_linalg.rref_one_step, linalg.rref)
    print(
        f"{'workload':20s} {'size':24s} {'inputs':>6s} {'reduced':>7s} {'cells':>7s}"
        f" {'gauss-jordan ms':>15s} {'one-step ms':>11s} {'rref ms':>9s} {'ratio':>6s}"
    )
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0, 0.0, 0.0, 0.0])
    for (name, size), matrices in recorded_inputs(args.seed).items():
        ms = [0.0] * len(functions)
        reduced = 0
        for rows in matrices:
            best, outs = best_ns(functions, rows, args.repeats)
            if not outs[0] == outs[1] == outs[2]:
                raise SystemExit(f"{name} {size}: rref, rref_one_step and rref_gauss_jordan differ")
            ms = [total + t / 1e6 for total, t in zip(ms, best)]
            reduced += already_reduced(rows, outs[2][0])
        cells = sum(len(rows) * (len(rows[0]) if rows else 0) for rows in matrices)
        total = totals[name]
        total[:] = [total[0] + len(matrices), total[1] + reduced, *(a + b for a, b in zip(total[2:], ms))]
        print(
            f"{name:20s} {size:24s} {len(matrices):6d} {reduced:7d} {cells:7d}"
            f" {ms[0]:15.3f} {ms[1]:11.3f} {ms[2]:9.3f} {ms[2] / ms[0] if ms[0] else 1.0:6.3f}"
        )
    for name, (inputs, reduced, old, one_step, new) in totals.items():
        print(
            f"{name:20s} {'total':24s} {inputs:6d} {reduced:7d} {'':7s}"
            f" {old:15.3f} {one_step:11.3f} {new:9.3f} {new / old if old else 1.0:6.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main_())
