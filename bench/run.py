"""strata benchmark: time to an exact verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fixtures-cli --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the untraced closed loop and prints the end-to-end
metrics; ``--trace 1`` runs the traced loop and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
run exits non-zero without a result if the program under test cannot be
imported from ``src/`` or a generated document does not validate.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench")


class Abort(Exception):
    """The run cannot produce a trustworthy result."""


def import_strata():
    """``strata.cli.main`` from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "strata", "cli.py")):
        raise Abort(f"no strata sources under {src}")
    sys.path.insert(0, src)
    import strata.cli

    if not os.path.abspath(strata.cli.__file__).startswith(src + os.sep):
        raise Abort(f"strata imported from {strata.cli.__file__}, not from {src}")
    return strata.cli.main


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def validate_documents(main, workload) -> None:
    from harness import run_in_process

    for path in workload.documents:
        code, out, _, error = run_in_process(main, ("validate", path))
        if code != 0 or error:
            raise Abort(f"generated document {os.path.basename(path)} does not validate: {error or out}")


def report(metrics: dict[str, tuple[float, str]], tally, extra_lines=()) -> dict:
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_ratio':40s} {ratio:14.6f} ({tally.failed} of {tally.attempted} verdicts)")
    for reason in tally.reasons:
        print(f"failure: {reason}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(args) -> dict:
    import checks
    import harness
    import tracing
    import workloads

    main = import_strata()
    digests = checks.load_digests()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.build(args.workload, ROOT, workdir, args.seed)
        random.Random(f"order:{args.seed}").shuffle(workload.ops)
        validate_documents(main, workload)
        tally = harness.Tally()
        for op in workload.ops:  # warm-up round: fills caches, checks every verdict
            harness.check_in_process(main, op, digests, tally)
        if args.trace:
            rounds, spans = tracing.traced_run(main, workload, digests, args.seconds, tally)
            gaussian = tracing.gaussian_ns(tracing.workload_coefficients(workload), args.seed)
            metrics, problems = tracing.per_layer(rounds, gaussian)
            span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
            tracing.write_spans(span_path, args.workload, args.seed, spans)
            total_ms, traced_ms = tracing.accounting_ms(rounds)
            lines = [
                f"traced rounds: {len(rounds)}; spans written to {os.path.relpath(span_path, ROOT)}",
                "wait time: none; a verdict has no queue or lock to wait on",
                f"accounting, mean ms per round: layers + linalg.rref + cli.self = {total_ms:.3f}"
                f" = traced verdicts {traced_ms:.3f}"
                f" = untraced {metrics['verdict.untraced_ms'][0]:.3f}"
                f" + overhead {metrics['trace.overhead_ms'][0]:.3f}",
            ] + [f"determinism: {p}" for p in problems]
        else:
            setup = harness.setup_seconds(ROOT)
            loop = harness.closed_loop(main, ROOT, workload, digests, args.seconds, tally)
            metrics, raw = harness.end_to_end(loop, setup)
            problems = []
            lines = [
                f"closed loop: 1 client, {len(loop.verdict_ms)} rounds of {len(workload.ops)} verdicts;"
                f" {len(loop.samples)} verdict samples, {len(loop.cold_ms)} cold samples,"
                f" {len(setup)} setup samples",
                "raw wall times (follow the machine's load; reported, not gated):",
            ] + [f"  {name:38s} {value:14.6f} {unit}" for name, (value, unit) in raw.items()]
        result_metrics = report(metrics, tally, lines)
        return {
            "correct": tally.failed == 0 and not problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": result_metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main_cli(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except Abort as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
