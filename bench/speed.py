"""Rescaling wall times to a fixed reference speed of the interpreter.

On a shared host the same Python work can take twice as long, in phases
that switch within a tenth of a second and last up to half a minute, and CPU
time follows wall time, so raw timings of one run say as much about the
neighbours as about the program.  The benchmark therefore times a short
fixed yardstick (stdlib Fraction arithmetic and dict stores, the kind of
work metriclogic does) right before every operation and once after the
last, and multiplies each operation's wall time by the yardstick's
reference time over the mean of the two yardstick times before it and the
two after it.  A timing then reads as the wall time the operation would
take where the yardstick takes its reference time.  Operations that are
child processes are measured against the same loop run in a fresh
interpreter, since process start-up does not slow down in step with work
inside a running one.  The yardstick is benchmark code: no change to the
program moves it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

LOOP = """
from fractions import Fraction
total, seen = Fraction(0), {}
for i in range(1, 500):
    total += Fraction(i % 7, i % 97 + 1)
    seen[i % 61] = total
"""
Y_REF = 0.0015       # seconds the yardstick takes at the reference speed
Y_REF_CHILD = 0.03   # the same for the loop in a fresh `python -S`
CODE = compile(LOOP, "<yardstick>", "exec")


def yardstick():
    exec(CODE, {})


def child_yardstick():
    """The same loop in a fresh interpreter, for operations that are processes."""
    subprocess.run([sys.executable, "-S", "-c", LOOP], check=True)


class Speed:
    def __init__(self, stick=yardstick, reference=Y_REF):
        self.stick, self.reference = stick, reference
        self.times = []             # start of each yardstick sample
        self.took = []              # its duration

    def sample(self):
        start = time.perf_counter()
        self.stick()
        self.times.append(start)
        self.took.append(time.perf_counter() - start)

    def factor(self, start: float, end: float) -> float:
        """Speed ratio from the two samples before start and the two after end."""
        before = bisect_right(self.times, start)
        after = bisect_left(self.times, end)
        near = self.took[max(0, before - 2):before] + self.took[after:after + 2]
        return self.reference / statistics.fmean(near or self.took)

    def scaled(self, start: float, took: float) -> float:
        return took * self.factor(start, start + took)

    def overall(self) -> float:
        return self.reference / statistics.median(self.took)
