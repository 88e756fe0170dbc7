"""Machine-speed calibration for the end-to-end timings.

The machine the benchmark was built on is a shared virtual machine whose
speed wanders by up to 2x, over seconds and over minutes, so raw wall times
of the same code spread past any useful bound.  A ``Sampler`` runs a fixed
pure-Python chunk on a wall-clock timer (SIGALRM) while the timed code runs,
and records how long each chunk took.  ``ref_seconds(t0, t1)`` then restates
the interval's wall time at the reference speed: the time spent in chunks is
taken out, and the rest is scaled by the mean of ``REF_S / chunk time`` over
the chunks that ran inside the interval.  Since the timer fires uniformly in
wall time, that mean estimates the machine's average speed over the interval
relative to the reference.

The chunk runs no ternalg code, so a change to ternalg moves these
reference seconds exactly as it moves wall seconds on a steady machine.
Python runs the handler between bytecodes; a long call into C code delays
the chunks that fall inside it until the call returns.
"""

from __future__ import annotations

import bisect
import signal
import time

# Duration of one chunk at the reference speed: roughly its duration on the
# build machine (an "Intel(R) Xeon(R) Processor" vCPU, CPython 3.11) at its
# faster times.  It scales every reference time by the same factor.
REF_S = 0.0011
INTERVAL_S = 0.02

_TABLE = {(i, j): (i * 31 + j) % 7 - 3 for i in range(16) for j in range(16)}


def chunk() -> int:
    """Dict lookups, small-int products and a gcd loop on mid-sized ints:
    the operations that dominate the library's scans and rational
    arithmetic.  Uses no module that ternalg imports, so that a set-up
    timed under a sampler still pays for all of ternalg's imports."""
    acc = 0
    for _ in range(12):
        for i in range(16):
            for j in range(16):
                v = _TABLE.get((i, j), 0)
                if v:
                    acc += v * (i + 1) * (j - 2)
        for k in range(1, 40):
            a, b = 7919 * k * k + 104729, 65537 * k + 3 * acc
            while b:
                a, b = b, a % b
            acc += a
    return acc


class Sampler:
    """Context manager that samples the machine's speed on a timer.

    perf_counter reads CLOCK_MONOTONIC on Linux, which all processes share,
    so samples taken in one process can restate an interval measured in
    another (see ``sample_until_exit``)."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float] = []
        self._busy = False
        self._old = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        chunk()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.factors.append(REF_S / (t1 - t0))
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def ref_seconds(self, t0: float, t1: float) -> float:
        """The wall interval [t0, t1] (perf_counter readings) without the
        chunks run inside it, restated at the reference speed.  An interval
        too short to hold a chunk uses the nearest chunks before and after."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        if hi > lo:
            sampling = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
            factors = self.factors[lo:hi]
        else:
            sampling = 0.0
            factors = self.factors[max(lo - 1, 0):lo + 1]
        if not factors:
            raise RuntimeError("no calibration samples were taken")
        return (t1 - t0 - sampling) * sum(factors) / len(factors)


def sample_until_exit(path_var: str = "PERFBENCH_SAMPLES",
                      interval_s: float = INTERVAL_S) -> None:
    """Sample this process until it exits, then write the samples as JSON to
    the file named by environment variable ``path_var``; ``load`` reads it."""
    import atexit
    import os

    sampler = Sampler(interval_s).__enter__()

    def write() -> None:
        import json

        sampler.__exit__()
        with open(os.environ[path_var], "w", encoding="utf-8") as fh:
            json.dump([sampler.starts, sampler.ends, sampler.factors], fh)

    atexit.register(write)


def load(path: str) -> Sampler:
    import json

    sampler = Sampler()
    with open(path, encoding="utf-8") as fh:
        sampler.starts, sampler.ends, sampler.factors = json.load(fh)
    return sampler
