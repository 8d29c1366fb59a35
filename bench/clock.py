"""Machine-speed normalisation of benchmark timings.

A shared VM runs the same code at different speeds from one process to the
next, and stolen time is counted as CPU time, so neither wall time nor
``time.process_time`` compares across runs.  Every timed call is therefore
bracketed by a short, fixed, stdlib-only reference loop, and its wall time is
scaled to a nominal machine speed:

    normalised = wall * NOMINAL_REF_S / reference time

The reference loop never imports ``momentpoly``, so a change to the library
cannot move it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

#: median ``reference_loop`` time on the machine the README figures come
#: from (2-core Intel Xeon VM, Python 3.11); see README.md for how it was taken
NOMINAL_REF_S = 0.0020

_HILBERT = 8
_BIG = (Fraction(3**400, 7**300), Fraction(5**300, 11**250))
_BIG_STEPS = 6
_FLOAT_STEPS = 12000


def reference_loop() -> float:
    """Fixed work: exact elimination of a Hilbert matrix, a few products of
    Fractions with thousand-bit terms, then a float loop.

    The mix is chosen so that the loop slows down about as much as the
    workloads' jobs do when the VM's CPU is contended.  Returns a checksum
    so that the work cannot be skipped.
    """
    a = [[Fraction(1, i + j + 1) for j in range(_HILBERT)] for i in range(_HILBERT)]
    det = Fraction(1)
    for k in range(_HILBERT):
        det *= a[k][k]
        for i in range(k + 1, _HILBERT):
            f = a[i][k] / a[k][k]
            for j in range(k, _HILBERT):
                a[i][j] -= f * a[k][j]
    big, step = _BIG
    for _ in range(_BIG_STEPS):
        big = big * step + det
    x = 0.0
    for i in range(_FLOAT_STEPS):
        x = x * 0.5 + i
    return float(det) + x + big.numerator % 7


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Timing:
    """Raw wall time of one call and the mean of the reference samples around it."""

    wall: float
    ref: float

    @property
    def factor(self) -> float:
        return NOMINAL_REF_S / self.ref

    @property
    def norm(self) -> float:
        return self.wall * self.factor


class Clock:
    """Times calls between reference samples.

    Calls made back to back share the sample between them: the sample taken
    after one call is the sample before the next.  Call :meth:`resync` after
    untimed work, so that the next call again gets a sample taken right
    before it.
    """

    def __init__(self):
        self._last = time_reference()

    def resync(self) -> None:
        self._last = time_reference()

    def call(self, fn, *args):
        before = self._last
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        self._last = time_reference()
        return out, Timing(wall, (before + self._last) / 2)
