"""Time ``strata.linalg.rref`` against the one-step eliminator it replaced.

One in-process round of each benchmark workload runs through
``strata.cli.main`` while every ``strata`` binding of ``linalg.rref`` records
its input.  Each recorded matrix is then reduced by ``linalg.rref`` and by
``oracle_linalg.rref_one_step``, alternately, and the script prints, per
workload and document size, the sum over matrices of the minimum of
``--repeats`` runs.  Both eliminators must return the same form on every
input.  The benchmark's own modules build the documents and command lines;
nothing under ``bench/`` is written.  Pytest does not collect this file.

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


def main_(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"{'workload':20s} {'size':24s} {'inputs':>6s} {'cells':>7s} {'one-step ms':>12s} {'rref ms':>9s} {'ratio':>6s}")
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for (name, size), matrices in recorded_inputs(args.seed).items():
        old = new = 0
        for rows in matrices:
            (t_old, t_new), (out_old, out_new) = best_ns(
                (oracle_linalg.rref_one_step, linalg.rref), rows, args.repeats
            )
            if out_old != out_new:
                raise SystemExit(f"{name} {size}: rref differs from rref_one_step")
            old, new = old + t_old, new + t_new
        cells = sum(len(rows) * (len(rows[0]) if rows else 0) for rows in matrices)
        totals[name][0] += old / 1e6
        totals[name][1] += new / 1e6
        ratio = new / old if old else 1.0
        print(f"{name:20s} {size:24s} {len(matrices):6d} {cells:7d} {old / 1e6:12.3f} {new / 1e6:9.3f} {ratio:6.3f}")
    for name, (old, new) in totals.items():
        print(f"{name:20s} {'total':24s} {'':6s} {'':7s} {old:12.3f} {new:9.3f} {new / old if old else 1.0:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
