"""A reference loop that gauges the speed of the machine during a run.

The benchmark runs on shared cores whose speed drifts by up to a factor
of two over minutes, and the drift hits every process on the core, so
no statistic taken over the tasks alone can remove it.  This loop does
a fixed amount of work of the same kind as lefcert's: exact Fraction
arithmetic in pure Python (Gaussian elimination of a fixed 8x8 rational
matrix).  It uses no lefcert code, so no change to lefcert moves it.

run.py times one sample of the loop at a steady rate between tasks and
scales every end-to-end time by REFERENCE_S over the median sample.
A time is then reported as it would read on a machine where one sample
takes REFERENCE_S seconds.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Seconds one sample takes at the reference speed.  A fast period of the
# 2-vCPU x86-64 VM the benchmark was built on, CPython 3.11, gives
# 2.4-2.7 ms; a slow period gives up to 5 ms.
REFERENCE_S = 0.003
REPS = 4
SIZE = 8


def _matrix(size, seed):
    """A fixed size x size matrix of small Fractions from a 64-bit LCG."""
    x = seed
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            row.append(Fraction((x >> 40) % 2001 - 1000, (x >> 20) % 97 + 1))
        rows.append(row)
    return rows


def det(rows):
    """Determinant by Gaussian elimination over Q."""
    m = [list(r) for r in rows]
    n = len(m)
    d = Fraction(1)
    for k in range(n):
        p = next(i for i in range(k, n) if m[i][k])
        if p != k:
            m[k], m[p] = m[p], m[k]
            d = -d
        pivot = m[k][k]
        d *= pivot
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
    return d


_MATRIX = _matrix(SIZE, 12345)
_EXPECTED = det(_MATRIX)


def sample():
    """Seconds taken by REPS determinants of the fixed matrix."""
    t0 = perf_counter()
    for _ in range(REPS):
        value = det(_MATRIX)
    dt = perf_counter() - t0
    if value != _EXPECTED:
        raise AssertionError("reference loop computed a different determinant")
    return dt
