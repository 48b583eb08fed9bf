"""Host-speed reference for timing on a shared, noisy machine.

On a small shared host the instruction rate drifts by ±30% over seconds
to minutes, with the neighbours' load, and the drift moves every timing
of a run together. Each timed interval is therefore bracketed by a
fixed reference run just before and just after it, in the same
process, and the benchmark reports the interval rescaled to the
reference's nominal speed::

    value = measured_s / mean(factor_before, factor_after)

A factor is the mean of two parts, each relative to its nominal time: a
pure-Python loop (interpreter speed) and a numpy sort plus sqrt over
200,000 floats (native code and memory). Together they track the
program's mix of DES, numpy and I/O work better than either part alone.
The reference is benchmark code that the program cannot change. The raw
host seconds are kept beside every rescaled value in the result file.
"""

import statistics
import time

#: Median times of the two parts on a quiet 2-vCPU x86-64 host (Python 3.11).
PYTHON_NOMINAL_S = 0.010
NUMPY_NOMINAL_S = 0.003


def _python_part() -> float:
    t0 = time.perf_counter()
    total = 0
    table = {}
    for i in range(40_000):
        total += (i * i) % 7
        table[i & 1023] = str(i)
    return time.perf_counter() - t0


def _numpy_part() -> float:
    import numpy as np

    t0 = time.perf_counter()
    x = np.random.default_rng(0).random(200_000)
    x.sort()
    np.sqrt(x, out=x)
    x.sum()
    return time.perf_counter() - t0


def reference() -> float:
    """The host's current slowness factor (1.0 = nominal speed)."""
    python_s = statistics.median(_python_part() for _ in range(5))
    numpy_s = statistics.median(_numpy_part() for _ in range(5))
    return (python_s / PYTHON_NOMINAL_S + numpy_s / NUMPY_NOMINAL_S) / 2


def rescale(measured_s: float, *factors: float) -> float:
    """``measured_s`` at the nominal reference speed."""
    return measured_s / statistics.mean(factors)
