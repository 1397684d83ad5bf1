"""Machine-speed calibration.

On a shared machine the speed of one core drifts by a factor of up to 1.7
over seconds to minutes, as other tenants load the same physical cores;
CPU time drifts with it, so neither wall nor CPU time alone is steady.
The benchmark therefore times a fixed calibration kernel alongside the
program and reports times in calibrated seconds:

    calibrated = measured * K_ref / K

where K is the kernel's time measured at the same moment and K_ref is its
time on the reference machine (Intel Xeon, 2 vCPUs, Python 3.11.7) at full
speed, so a calibrated second is a second on that machine when no other
tenant is busy.  Kinds of work slow down by different amounts, so each
workload uses the kernel that resembles its own work.  The kernels are
the benchmark's own code and never change with the program under test;
the raw times are reported beside the calibrated ones.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.25    # sampling period inside a worker
WINDOW_S = 1.0       # samples this close to an operation calibrate it


def kernel_numeric():
    """Float tuples, dicts and Fraction rendering, like the integrator
    and the compiled fields."""
    u = (0.1, 0.2)
    acc = 0.0
    for _ in range(800):
        u = (u[1] * 0.5 + 1.0, u[0] * 0.25 - 0.5)
        acc += u[0] * u[1]
    d = {}
    for i in range(20):
        for j in range(25):
            e = (i % 7, j % 5, (i + j) % 3, 0, 0, 0, 0, 0)
            d[e] = d.get(e, Fraction(0)) + Fraction(i * j + 1, j + 1)
    return acc, [str(v) for v in d.values()]


_PAD = (0,) * 30


def kernel_exact():
    """A sparse product of two Fraction polynomials keyed by long exponent
    tuples, like the exact kernel."""
    p = {(i, j, (i * j) % 4) + _PAD: Fraction(i + 1, j + 2)
         for i in range(5) for j in range(5)}
    q = {(j, i, 1) + _PAD: Fraction(2 * i - 3, i + 1)
         for i in range(4) for j in range(4)}
    r = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            r[e] = r.get(e, 0) + c1 * c2
    return r


# name -> (kernel, its time on the reference machine at full speed)
KERNELS = {
    "numeric": (kernel_numeric, 0.0018),
    "exact": (kernel_exact, 0.0026),
}

# Set-up time is calibrated against a reference start-up instead: a fresh
# interpreter that imports the standard modules p2lab needs and runs the
# numeric kernel, timed from process start to its "ready" line.  Start-up
# work (exec, imports, page faults) slows less than a kernel alone does.
STARTUP_REF_S = 0.155   # its time on the reference machine at full speed
STARTUP_REF_CODE = """\
import argparse, dataclasses, json, random, typing
import calib
for _ in range(40):
    calib.kernel_numeric()
print("ready", flush=True)
"""


class Sampler:
    """Times a kernel every INTERVAL_S from a SIGALRM handler, so that
    samples land inside long operations too.  The handler's own time is
    subtracted from any operation it interrupts."""

    def __init__(self, kernel: str, on_sample=None):
        self.kernel, self.k_ref = KERNELS[kernel]
        self.starts: list = []
        self.ends: list = []
        self.on_sample = on_sample

    def _sample(self, *_):
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        if self.on_sample is not None:
            self.on_sample(t0, t1)

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def stolen(self, t0: float, t1: float) -> float:
        """Time in [t0, t1] spent in the handler."""
        i = bisect.bisect_left(self.ends, t0)
        total = 0.0
        while i < len(self.starts) and self.starts[i] < t1:
            total += min(self.ends[i], t1) - max(self.starts[i], t0)
            i += 1
        return total

    def factor(self, t0: float, t1: float) -> float:
        """Mean of K_ref / K over the samples taken within WINDOW_S of
        [t0, t1]: the samples are evenly spaced, so this is the machine's
        mean speed over the operation, also when it drifts during a long
        one."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo >= hi:   # no sample that close: use the nearest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        return statistics.fmean(
            self.k_ref / (e - s)
            for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
