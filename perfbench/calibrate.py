"""Fixed calibration kernel that tracks the speed of a shared machine.

The machine this benchmark was tuned on changes speed by up to 2x in phases
of seconds to minutes, and a process's CPU time tracks its wall time through
those phases: the slowdown is the processor's, not the scheduler's.  A
latency measured raw therefore reads the machine's phase as much as the
program's speed.  ``run.py`` times this kernel between requests and rescales
every request time to the speed at which the kernel takes ``REFERENCE_S``.

The kernel is the benchmark's own code and never calls ``fhpt``, so a change
to the program does not move it.  It mixes the kinds of work ``fhpt``'s
requests do: a scalar power series, like the special-function layer; numpy
arithmetic on a quadrature-sized grid and a small dense matrix; float
formatting and json, like the command-line emitters.  Its arrays are small,
so it does not move ``peak_rss_mb``.

The series runs on one of two scalar types.  Most requests hand the special
functions Python floats, and there the ``float`` kernel (series about 55 %
of its time, arrays 35 %, text 10 %) followed warm ``verify`` and the table
commands best of the mixes tried.  A cold K-grid calls ``bessel_k`` on the
numpy float64 nodes of its grid, so its arithmetic runs on numpy scalars;
the ``numpy`` kernel (series about 60 %, arrays 30 %, text 10 %) followed
cold ``verify`` twice as closely as the ``float`` one: over four minutes of
repeated cold requests, medians of 16 rescaled request times spread by 0.021
of their median against 0.043.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# fixed round figures near the seconds one kernel call takes, per scalar type,
# on the machine the benchmark was tuned on; request times are reported as if
# the kernel took this long
REFERENCE_S = {"float": 0.0015, "numpy": 0.0023}
# kernel calls per calibration; their median is the calibration
REPEATS = 3

_X = {"float": [0.02 + 0.02 * i for i in range(144)]}
_X["numpy"] = list(np.array(_X["float"]))
_GRID = np.linspace(1e-3, 30.0, 6400)
_WEIGHTS = np.full(_GRID.size, _GRID[1] - _GRID[0])
_MAT = np.add.outer(np.arange(21.0), np.arange(21.0)) / 41.0 + np.eye(21)


def _series(xs: list) -> float:
    s = 0.0
    for x in xs:
        q = 0.25 * x * x
        term = acc = 1.0
        for k in range(1, 25):
            term *= q / (k * (k + 2.5))
            acc += term
        s += acc * math.exp(-x) * math.sqrt(x)
    return s


def _arrays() -> float:
    s = 0.0
    for j in range(3):
        v = np.exp(-_GRID) * _GRID ** (1.5 + j) * np.cos(0.3 * _GRID)
        m = _MAT @ _MAT
        s += float(np.dot(_WEIGHTS, v)) + float(np.trace(m)) + float(np.abs(m - m.T).max())
    return s


def _text(s: float) -> int:
    rows = [[n, s * (n + 0.5) ** 2, f"{s:.6f}"] for n in range(60)]
    return len(json.dumps(rows)) + len(",".join(f"{r[1]:.17g}" for r in rows))


def kernel(scalars: str = "float") -> float:
    """One pass of the fixed work; returns a value so nothing is skipped."""
    s = _series(_X[scalars]) + _arrays()
    return s + _text(s)


def calibrate(scalars: str = "float") -> float:
    """Median seconds of REPEATS kernel calls, timed now."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel(scalars)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
