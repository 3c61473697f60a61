"""Host-speed calibration for timings taken on a shared machine.

On a shared virtual machine the host's speed drifts with other tenants'
load: a fixed loop takes up to 1.8x longer from one minute to the next,
in every process alike, and no estimator over one run's raw times (not
the median, not the fastest repeat) holds still across runs.  So every
timed unit is bracketed by a fixed kernel of the same kind of work the
program does (interpreter-bound dict churn plus small numpy operations),
and the unit's time is rescaled by how much slower than
:data:`REFERENCE_S` the kernel ran next to it.  The result is in host
seconds at the speed the kernel had on a quiet host; program changes
move it exactly as they move raw host time, since the kernel never runs
program code.
"""

from __future__ import annotations

import time

import numpy as np

#: Median time of :func:`kernel` on the quiet 2-vCPU Sapphire Rapids KVM
#: host the benchmark was tuned on.  Any constant works for comparing two
#: commits on one host; this one keeps the rescaled times near raw ones.
REFERENCE_S = 0.002

_ITERATIONS = 12_000


def kernel() -> float:
    """A fixed slice of interpreter and small-array work."""
    table: dict[int, int] = {}
    values = np.arange(32.0)
    total = 0.0
    for i in range(_ITERATIONS):
        table[i & 511] = i * 3
        if i % 30 == 0:
            values = values * 1.0001 + 0.25
            total += float(values[3])
    return total


def kernel_s() -> float:
    """Wall time of one :func:`kernel` run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def rescale(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_seconds``,
    expressed at the reference host speed."""
    return seconds * REFERENCE_S / kernel_seconds
