"""A fixed stdlib workload that measures how fast the machine runs right now.

On a shared machine the speed of one core drifts by up to two thirds for
minutes at a time, as neighbours load the host; within a run this moves
every wall time together.  Each timed call is bracketed by two probes, and
its time is scaled by REFERENCE_S / (mean probe time).  The probe runs only
the standard library (Fraction arithmetic and a dict, the same kind of work
as the package), so no change to the package can move it.  On an idle core
of a 2-vCPU x86-64 VM under CPython 3.11 the probe takes about REFERENCE_S,
so normalised times read close to wall times there.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Probe time on an idle core of a 2-vCPU x86-64 VM under CPython 3.11.  It
# only sets the scale of reported times; it is the same for every commit.
REFERENCE_S = 0.3e-3


def probe() -> float:
    """Wall time of one run of the probe workload, in seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
        table[(i, i % 7)] = acc
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two probes into a
    normalised time."""
    return 2 * REFERENCE_S / (before + after)


def normalised(fn) -> float:
    """Normalised time of one call of fn()."""
    before = probe()
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return elapsed * scale(before, probe())
