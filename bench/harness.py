"""The untraced closed loop and its end-to-end metrics.

One process, one client, no threads: each verdict is one
``strata.cli.main(argv)`` call with stdout captured, and the next starts only
after it returns.  A round runs every operation of the workload once, so
machine drift lands evenly on all of them.  Calibration points are taken
between verdicts (see ``calib.Segments``) and cold-process samples after
each round.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import calib
import checks

CHILD_TIMEOUT_S = 120
SETUP_CHILDREN = 7
# p90 needs ten samples beyond it.
MIN_SAMPLES = 100

SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import strata.cli\n"
    "strata.cli.build_parser()\n"
    "print(repr(time.perf_counter() - start))\n"
)


@dataclass
class Tally:
    """Verdicts attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{op.key}: {'; '.join(problems)}")


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_in_process(main, argv) -> tuple[int | None, str, float, str | None]:
    """One verdict: (exit code, stdout, wall ms, uncaught error or None)."""
    buf = io.StringIO()
    error = None
    code = None
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        error = f"SystemExit({exc.code})"
    except Exception as exc:  # any traceback is a failed verdict, not a crash
        error = repr(exc)
    elapsed = time.perf_counter_ns() - start
    return code, buf.getvalue(), elapsed / 1e6, error


def verdict(main, op, digests) -> tuple[float, str, list[str]]:
    """One checked in-process verdict: (wall ms, stdout, problems)."""
    code, out, ms, error = run_in_process(main, op.argv)
    problems = [f"uncaught {error}"] if error else checks.verdict_problems(op, code, out, digests)
    return ms, out, problems


def check_in_process(main, op, digests, tally: Tally) -> float:
    ms, _, problems = verdict(main, op, digests)
    tally.record(op, problems)
    return ms


def run_cold(root: str, op, digests, tally: Tally) -> float:
    """``python -m strata.cli <argv>`` as a fresh process; wall ms."""
    start = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, "-m", "strata.cli", *op.argv],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter_ns() - start
    problems = checks.verdict_problems(op, proc.returncode, proc.stdout, digests)
    if proc.stderr:
        problems.append(f"stderr: {proc.stderr.strip()[:200]}")
    tally.record(op, problems)
    return elapsed / 1e6


def setup_seconds(root: str) -> list[float]:
    """Import-and-build-parser time in fresh interpreters, after one warm-up."""
    samples = []
    for k in range(SETUP_CHILDREN + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=root,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        if k:  # the first child compiles bytecode caches; users pay that once
            samples.append(float(proc.stdout.strip()))
    return samples


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile, as ``statistics.quantiles`` computes it."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class LoopResult:
    verdict_ms: list[list[float]]  # per round, in operation order
    verdict_cal: list[float]
    cold_ms: list[float]
    cold_cal: list[float]
    calib_ms: list[float]

    @property
    def samples(self) -> list[float]:
        return [ms for round_ms in self.verdict_ms for ms in round_ms]


def closed_loop(main, root, workload, digests, seconds: float, tally) -> LoopResult:
    """Whole rounds of every operation until the next would end after ``seconds``.

    At least enough rounds run for ``MIN_SAMPLES`` verdicts.
    """
    verdict_ms, cold_ms, cold_cal = [], [], []
    segments = calib.Segments()
    cold_turn = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        round_ms = []
        for op in workload.ops:
            ms = check_in_process(main, op, digests, tally)
            round_ms.append(ms)
            segments.add(ms)
        verdict_ms.append(round_ms)
        segments.close()
        for _ in range(workload.cold_per_round):
            op = workload.cold_ops[cold_turn % len(workload.cold_ops)]
            ms = run_cold(root, op, digests, tally)
            cold_ms.append(ms)
            cold_cal.append(segments.bracket(ms))
            cold_turn += 1
        now = time.perf_counter()
        enough = len(verdict_ms) * len(workload.ops) >= MIN_SAMPLES
        if enough and now + (now - round_start) > start + seconds:
            return LoopResult(verdict_ms, segments.ratios, cold_ms, cold_cal, segments.points)


def end_to_end(loop: LoopResult, setup: list[float]) -> tuple[dict, dict]:
    """(gated metrics, raw timings).

    Raw wall times follow the machine's load: on a shared two-core box they
    moved by 40% between runs minutes apart while the calibrated ratios held
    within a few percent.  So the gated metrics are the calibrated forms, and
    the raw forms, which are what a user feels, are printed beside them.
    """
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = loop.samples
    n = len(loop.verdict_ms[0])
    rounds_cal = [loop.verdict_cal[k:k + n] for k in range(0, len(loop.verdict_cal), n)]
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_cal_p50": (statistics.median(loop.verdict_cal), "ratio"),
        # A round's p90 falls between the same two operations every round;
        # pooled over rounds, a few slow samples of lighter operations would
        # move it across the gap between them.
        "verdict_cal_p90": (statistics.median(percentile(r, 90) for r in rounds_cal), "ratio"),
        "verdict_cal_mean": (statistics.fmean(loop.verdict_cal), "ratio"),
        "cold_verdict_cal_p50": (statistics.median(loop.cold_cal), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    raw = {
        "verdict_ms_p50": (statistics.median(samples), "ms"),
        "verdicts_per_s": (len(samples) / (sum(samples) / 1000), "1/s"),
        "cold_verdict_ms_p50": (statistics.median(loop.cold_ms), "ms"),
        "calib_ms": (statistics.median(loop.calib_ms), "ms"),
    }
    return gated, raw
