"""Interpreter-speed sampling, to take host contention out of the timings.

On a shared host the same pure-Python loop runs up to twice as fast in one
minute as in the next, and all interpreted code slows together.  While a
workload is timed, a SIGALRM handler runs a fixed reference kernel every
``INTERVAL_S`` and records how long it took.  A timed span is then scaled to
the speed at which the kernel takes ``KERNEL_REF_NS``: its duration is
multiplied by the mean of ``KERNEL_REF_NS / kernel time`` over the samples
taken inside it.  Time spent in the handler is subtracted first.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.005
KERNEL_REF_NS = 150_000  # the kernel's median time inside the handler on the reference machine
_KERNEL_ROUNDS = 400


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def kernel() -> int:
    """Calls, object construction, attribute reads, tuples, shifts and a
    dict store: the mix of interpreter work the library does."""
    acc = 0
    table = {}
    for i in range(_KERNEL_ROUNDS):
        p = _Pair(i, i >> 1)
        t = (p.a, p.b, i & 7)
        acc += (t[0] ^ t[1]) << t[2]
        table[i & 63] = acc & 0xFFFF
    return acc


class SpeedSampler:
    """Samples kernel time from a timer signal; one per process."""

    def __init__(self) -> None:
        self.starts: list[int] = []  # perf_counter_ns at each sample
        self.cum = [0.0]  # running sum of KERNEL_REF_NS / kernel time
        self.spent_ns = 0  # total time inside the handler

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
        self.starts.append(t0)
        self.cum.append(self.cum[-1] + KERNEL_REF_NS / (t1 - t0))
        self.spent_ns += time.perf_counter_ns() - t0

    def work_clock(self) -> int:
        """perf_counter_ns that stands still while the handler runs."""
        while True:
            spent = self.spent_ns
            now = time.perf_counter_ns()
            if self.spent_ns == spent:  # no sample landed between the two reads
                return now - spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t_from: int, t_to: int, default: float = 1.0) -> float:
        """Factor that converts a duration measured in [t_from, t_to)
        (perf_counter_ns) to reference speed; ``default`` without samples."""
        i = bisect.bisect_left(self.starts, t_from)
        j = bisect.bisect_left(self.starts, t_to)
        return (self.cum[j] - self.cum[i]) / (j - i) if j > i else default
