"""The CPU-speed probe behind the benchmark's speed-normalized times.

The benchmark's host is a shared virtual machine whose CPU speed swings by
up to ±30% over seconds to minutes, the same for every kind of code.  A
fixed kernel, timed right next to the work it calibrates and on the same
CPU, cancels that swing: a time ``t`` measured while the kernel takes
``c`` seconds is reported as ``t * REFERENCE_S / c`` (with ``1 / c``
averaged over the interval), the time the work would take on a CPU where
the kernel takes ``REFERENCE_S``.

The kernel mixes text formatting and small-matrix numpy updates, as the
program's own code does.  Of the kernels tried on the baseline machine, this
mix tracked the workloads best; a memory-bound kernel (sums over an 8 MB
array) tracked them worst.  It does not import ``segrls``, so the code under
test cannot change it.

``Sampler`` times the kernel every ``interval`` seconds of wall time from a
``SIGALRM`` handler while the work runs, and takes the time spent in the
handler out of the measured time.  Set-up times, which are process start
and imports, are rescaled the same way by the start of a bare interpreter
instead of the kernel.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

# The kernel's time on the baseline machine at its usual speed (2-vCPU
# x86_64, Python 3.11, numpy 2.4, OpenBLAS, one BLAS thread).  The choice
# only sets the scale of the normalized times, not their steadiness.
REFERENCE_S = 0.003
# A start of a bare interpreter (``python -c pass``), the probe for set-up
# times: the kernel tracks process start and import poorly.
START_REFERENCE_S = 0.05
INTERVAL_S = 0.1
KERNEL_ROWS = 1500
KERNEL_UPDATES = 60

# not from numpy.random: importing it would add ~6 MB to the program's peak memory
_MATRIX = np.cos(np.arange(35.0 * 35.0)).reshape(35, 35) + 35.0 * np.eye(35)


def kernel() -> int:
    """A few milliseconds of fixed work: text formatting into a dict and a list,
    then small-matrix updates."""
    fields, rows = {}, []
    for i in range(KERNEL_ROWS):
        fields[i % 53] = f"{i * 0.37:.6g},{i}"
        rows.append(fields[i % 53])
    x, p = _MATRIX[:, 0].copy(), np.eye(35)
    for _ in range(KERNEL_UPDATES):
        g = p @ x
        p = p - np.outer(g, g) * 1e-4
        x = g / float(np.abs(g).max())
    return len(",".join(rows)) + int(x.argmax())


def time_kernel(times: int) -> list[float]:
    """Durations of ``times`` back-to-back kernel calls."""
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def factor(durations: list[float], reference: float = REFERENCE_S) -> float:
    """Multiply a time by this to normalize it: the mean of ``reference / c`` over
    probe times ``c`` sampled evenly in wall time, which is the CPU's mean
    speed over the interval relative to the reference speed.

    A probe that was preempted adds little to the mean, as the work it
    calibrates made no progress then either.
    """
    return reference * statistics.fmean(1.0 / c for c in durations)


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so that the probe and the
    work it calibrates run on the same one; returns the CPU, or None."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Sampler:
    """Times the kernel every ``interval`` seconds while the ``with`` block runs."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.durations: list[float] = []
        self.spent = 0.0            # seconds inside the handler, kernel included
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.durations.extend(time_kernel(1))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
