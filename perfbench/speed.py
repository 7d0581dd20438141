"""CPU speed probe: scales measured times to a reference CPU speed.

The benchmark's host, a virtual machine on a shared machine, changes speed by
up to 2x from one second to the next while the benchmark is its only load
(process CPU time tracks wall time, so the process is not descheduled; the
CPU runs slower).  Over a run that lasts a minute, medians cannot absorb such
phases.  So while a task runs, a SIGALRM timer times a small fixed kernel of
exact arithmetic every ``INTERVAL_S`` of wall time.  Each probe's duration is
the host's slowness at that moment; their mean over the task is its mean
slowness.  A task's time is reported as its wall time, less the time spent in
probes, times ``REF_PROBE_S`` over the mean probe duration: the seconds the
task would take on a host where the kernel takes ``REF_PROBE_S``.

The kernel belongs to the benchmark, not to quotbilin, so a change to the
program does not change it: a program that is twice as slow reports twice
the time.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

# Kernel duration at the reference speed: about its time between the
# program's own steps (whose work evicts the kernel from the caches) on the
# 2-vCPU Xeon virtual machine the benchmark was tuned on, in a quiet phase;
# so scaled times read close to that machine's wall times then.
REF_PROBE_S = 0.0006
INTERVAL_S = 0.02
WARMUP_CALLS = 30


def _rref(rows: list[list], inverse, reduce) -> list[list]:
    m = [r[:] for r in rows]
    piv = 0
    for c in range(len(m[0])):
        p = next((i for i in range(piv, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[piv], m[p] = m[p], m[piv]
        inv = inverse(m[piv][c])
        m[piv] = [reduce(v * inv) for v in m[piv]]
        for i in range(len(m)):
            if i != piv and m[i][c]:
                f = m[i][c]
                m[i] = [reduce(a - f * b) for a, b in zip(m[i], m[piv])]
        piv += 1
    return m


_RNG = random.Random(12345)
_Q_ROWS = [[Fraction(_RNG.randint(-9, 9)) for _ in range(5)] for _ in range(4)]
_P_ROWS = [[_RNG.randrange(101) for _ in range(10)] for _ in range(8)]


def kernel() -> None:
    """Row-reduce a fixed 4x5 matrix over Q and a fixed 8x10 one over F_101."""
    _rref(_Q_ROWS, lambda x: 1 / x, lambda x: x)
    _rref(_P_ROWS, lambda x: pow(x, -1, 101), lambda x: x % 101)


def scale(busy_s: float, mean_probe_s: float) -> float:
    """Seconds at the reference speed for ``busy_s`` seconds measured while
    the kernel took ``mean_probe_s`` on average."""
    return busy_s * REF_PROBE_S / mean_probe_s


class SpeedProbe:
    """Times the kernel every ``INTERVAL_S`` of wall time between start() and
    stop(), and once just before and once just after, so a short interval
    has two probes.  Only one may be running in a process."""

    def __init__(self) -> None:
        for _ in range(WARMUP_CALLS):
            kernel()
        self.probes: list[float] = []
        self.spent = 0.0  # time spent in probes since start()
        self.means: list[float] = []  # mean kernel duration of each interval
        self._t0 = 0.0
        self._old_handler = None

    def _probe(self, _signum=None, _frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.probes.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.probes = []
        self._probe()
        self.spent = 0.0
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        """Stop probing; return the wall time since start() less the probes."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        busy = time.perf_counter() - self._t0 - self.spent
        signal.signal(signal.SIGALRM, self._old_handler)
        self._probe()
        self.means.append(statistics.fmean(self.probes))
        return busy

    def mean(self) -> float:
        """Mean kernel duration over the last start()/stop() interval."""
        return self.means[-1]
