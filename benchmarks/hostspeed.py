"""Job times at a reference host speed.

On the shared 2-vCPU host this benchmark was built on, the speed of one
process swings by up to 2x within seconds and drifts over minutes; CPU time
tracks wall time and steal stays at zero, so it is the core, not the
scheduler.  Wall times of the same job therefore spread by tens of percent
between runs.  To compare code rather than host moments, every timed
interval is also measured in reference seconds: a fixed calibration kernel,
which does not use ptwalk, runs right before and right after the interval and,
for jobs, every ``SAMPLE_INTERVAL_S`` inside it from a ``SIGALRM`` handler
(a set-up probe runs in a child process on the same CPU, which an in-process
kernel would slow down, so it has the two ends only).
Each stretch between two kernel runs counts as

    stretch seconds * REFERENCE_KERNEL_S / (mean kernel seconds at its ends),

the time it would have taken on a host where the kernel takes
``REFERENCE_KERNEL_S``.  The kernel's own time is part of neither the wall
nor the reference time of the interval.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

REFERENCE_KERNEL_S = 1.0e-3  # a round figure near the kernel's median on that host
KERNEL_REPEATS = 2
SAMPLE_INTERVAL_S = 0.1
_MATRICES = np.random.default_rng(0).standard_normal((32, 2, 2))
_FLOATS = [float(i) for i in range(10_000)]


def kernel_seconds() -> float:
    """Seconds the calibration kernel takes now: the faster of two repeats.

    The kernel mixes what the jobs do: batched 2x2 LAPACK eigen-solves, a
    walk over 10 000 boxed floats (pointer chasing, as the interpreter does
    over its objects) and interpreted integer arithmetic.  It allocates
    nothing beyond small arrays and numbers.
    """
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        for _ in range(3):
            np.linalg.eig(_MATRICES)
        total = 0.0
        for x in _FLOATS:
            total += x
        count = 0
        for i in range(2_500):
            count += i * i
        best = min(best, perf_counter() - t0)
    return best


def to_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Reference seconds of a stretch between two kernel runs."""
    return seconds * REFERENCE_KERNEL_S / (0.5 * (kernel_before + kernel_after))


class Interval:
    """Context manager timing its body (a job) in wall and in reference seconds.

    Inside the body the kernel runs every ``SAMPLE_INTERVAL_S``, between two
    bytecodes of whatever the body executes.
    """

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []  # (start, kernel s, end)
        self.wall = self.reference = 0.0

    def _mark(self, *_signal_args) -> None:
        start = perf_counter()
        kernel = kernel_seconds()
        self.marks.append((start, kernel, perf_counter()))

    def __enter__(self) -> "Interval":
        self.marks = []
        self._mark()
        self._previous = signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._mark()
        self.wall = self.reference = 0.0
        for (_, kernel0, end0), (start1, kernel1, _) in zip(self.marks, self.marks[1:]):
            stretch = start1 - end0
            self.wall += stretch
            self.reference += to_reference(stretch, kernel0, kernel1)

    def kernels(self) -> list[float]:
        return [kernel for _, kernel, _ in self.marks]
