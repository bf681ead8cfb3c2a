"""Machine calibration kernel.

A fixed exact-rational workload built from the standard library alone.  The
library's hot paths are ``Fraction`` arithmetic in pure Python, so on a shared
machine this kernel slows down and speeds up with them; dividing a verdict's
time by the kernel's time taken around it removes most of that drift.
Nothing here imports ``strata``.
"""

from __future__ import annotations

import time
from fractions import Fraction

SIZE = 7
SAMPLES_PER_POINT = 3
# The machine's speed changes phase every second or two, faster than a round
# of the larger workloads lasts, so calibration points are taken this often
# between verdicts rather than once per round.
INTERVAL_S = 0.1


def _matrix() -> list[list[Fraction]]:
    # Hilbert matrix plus a skewed integer part: dense, nonsingular, and its
    # elimination grows numerators and denominators the way rref does.
    return [
        [Fraction(1, i + j + 1) + ((i * 7 + j * 3) % 5 - 2) for j in range(SIZE)]
        for i in range(SIZE)
    ]


def kernel() -> Fraction:
    """Determinant by Gauss-Jordan elimination over Q."""
    m = _matrix()
    det = Fraction(1)
    for c in range(SIZE):
        pivot = next(r for r in range(c, SIZE) if m[r][c])
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        p = m[c][c]
        det *= p
        inv = 1 / p
        row_c = [x * inv for x in m[c]]
        m[c] = row_c
        for r in range(SIZE):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], row_c)]
    return det


EXPECTED = kernel()


def sample_ms() -> float:
    """Wall time of one kernel run, in milliseconds; checks its result."""
    start = time.perf_counter_ns()
    value = kernel()
    elapsed = time.perf_counter_ns() - start
    if value != EXPECTED:
        raise RuntimeError("calibration kernel returned a different determinant")
    return elapsed / 1e6


def point() -> float:
    """One calibration point: the median of a few back-to-back samples."""
    samples = sorted(sample_ms() for _ in range(SAMPLES_PER_POINT))
    return samples[len(samples) // 2]


class Segments:
    """Calibrated verdict times.

    A calibration point is taken at the start and then after the first
    verdict that ends ``INTERVAL_S`` or more after the previous point.  Each
    verdict is divided by the mean of the two points that bracket it.
    """

    def __init__(self):
        self.points = [point()]
        self.ratios: list[float] = []
        self._pending: list[float] = []
        self._next_at = time.perf_counter() + INTERVAL_S

    def add(self, ms: float) -> None:
        self._pending.append(ms)
        if time.perf_counter() >= self._next_at:
            self.close()

    def bracket(self, ms: float) -> float:
        """Calibrate one measurement taken since the last point, on its own."""
        p = point()
        ratio = ms / ((self.points[-1] + p) / 2)
        self.points.append(p)
        self._next_at = time.perf_counter() + INTERVAL_S
        return ratio

    def close(self) -> None:
        """Take a point and calibrate the verdicts since the previous one."""
        if not self._pending:
            return
        p = point()
        scale = (self.points[-1] + p) / 2
        self.ratios += [ms / scale for ms in self._pending]
        self._pending.clear()
        self.points.append(p)
        self._next_at = time.perf_counter() + INTERVAL_S
