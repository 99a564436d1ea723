"""A fixed calibration loop that measures how fast the host runs right now.

On a shared virtual machine the speed of the cores drifts: the same command
can take 1.9 times as long from one second to the next, and whole minutes run
slow or fast, with no stolen time reported.  A run of the benchmark is too
short to average such phases out, so run.py times this loop next to every
command it measures and divides the command's time by it.

The loop exercises what the workloads spend their time on, without calling
nbcwalk, so that no change to the package can change it: exact ``Fraction``
arithmetic, a depth-first enumeration over frozensets and tuples, and a dense
symmetric eigensolve through the same BLAS.  Its inputs are fixed.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

# Seconds the loop takes on the reference host: a 2-vCPU VM with Python
# 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31, in a quiet spell.  Calibrated times
# are quoted in seconds of that host.
REFERENCE_S = 0.080

_GROUND = 20
_CONFLICTS = frozenset(
    frozenset((i, j % _GROUND)) for i in range(_GROUND) for j in (i + 1, i * 5 + 3))


def _fractions():
    total, rows = Fraction(0), []
    for i in range(1, 2500):
        total += Fraction(1, i)
    for i in range(40):
        row = [Fraction((i * j) % 7 + 1, (i + j) % 5 + 1) for j in range(40)]
        norm = sum(row)
        rows.append([x / norm for x in row])
    return total, rows


def _enumerate():
    """Number of conflict-free subsets of the ground set, by depth-first search."""
    count = 0
    stack = [(0, ())]
    while stack:
        start, chosen = stack.pop()
        count += 1
        for j in range(start, _GROUND):
            if all(frozenset((j, c)) not in _CONFLICTS for c in chosen):
                stack.append((j + 1, chosen + (j,)))
    return count


@functools.cache
def _matrix():
    # numpy loads on first use, after run.py has capped the BLAS threads.
    import numpy

    m = numpy.random.default_rng(0).standard_normal((600, 600))
    return m + m.T


def _eigensolve():
    import numpy

    return numpy.linalg.eigvalsh(_matrix())


def calibration_s() -> float:
    """Wall seconds of one run of the calibration loop."""
    start = time.perf_counter()
    _fractions()
    _enumerate()
    _eigensolve()
    return time.perf_counter() - start


def calibrated_s(seconds, cal_before, cal_after):
    """Seconds on the reference host for work that took `seconds` here, with
    the calibration loop timed just before and just after it."""
    return seconds * REFERENCE_S * 2 / (cal_before + cal_after)
