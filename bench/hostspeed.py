"""A fixed reference kernel that measures how fast the host runs right now.

A shared virtual machine can run a process up to two times slower for seconds
to minutes at a time, when other tenants load the host (CPU time slows with
wall time, so the process is not waiting).  On such a host no statistic of
raw wall times over a 25 s run stays within the bounds of BENCHMARK.json.
So every timed operation is bracketed by runs of this kernel, and the
benchmark reports its times scaled to a fixed host speed:

    scaled = measured / kernel time measured around it * NOMINAL_S

The kernel does the same kinds of work as the program: interpreted Python
loops, numpy calls on 3x3 arrays, and `einsum` rotations over arrays too
large for the CPU caches.  It never calls `carscid`, and its inputs are fixed,
so a change to the program cannot change it.  Raw times are printed beside
the scaled ones.
"""
from __future__ import annotations

from functools import cache
from time import perf_counter

import numpy as np

#: The kernel's time at the host's full speed (2-vCPU Linux VM, Python
#: 3.11, numpy 2.4 with one OpenBLAS thread); a scaled time is the time the
#: operation would take on a host where the kernel takes this long.
NOMINAL_S = 0.13



@cache
def _inputs() -> tuple:
    """The kernel's fixed inputs, made on first use so that importing this
    module allocates nothing."""
    rng = np.random.default_rng(20190102)
    return (rng.normal(size=(4000, 3, 3)), rng.normal(size=(60000, 3, 3)),
            rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3)))


def kernel_seconds() -> float:
    """Run the reference kernel once and return its wall time."""
    small, large, rank3, rank2 = _inputs()
    start = perf_counter()
    buckets: dict = {}
    for i in range(100000):
        key = i % 97
        buckets[key] = buckets.get(key, 0.0) + i * 0.5
    for _ in range(2):
        np.einsum("nia,njb,nkc,abc->nijk", small, small, small, rank3,
                  optimize=False)
        np.einsum("nia,njb,ab->nij", large, large, rank2, optimize=False)
    for _ in range(2):
        for r in small[:2000]:
            (r @ rank2 @ r.T).trace()
    return perf_counter() - start


class Scaler:
    """Scales the times of a sequence of operations to the nominal host speed.

    Call `scale(measured)` right after each operation; the kernel runs before
    the first operation and after every one, and each operation is scaled by
    the mean of the two kernel times around it."""

    def __init__(self):
        kernel_seconds()  # warm-up: first numpy calls, page faults
        self.before = kernel_seconds()
        self.kernels = [self.before]

    def scale(self, measured: float) -> float:
        after = kernel_seconds()
        self.kernels.append(after)
        scaled = measured / (0.5 * (self.before + after)) * NOMINAL_S
        self.before = after
        return scaled
