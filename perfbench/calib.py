"""Machine-speed reference: fixed pure-Python/NumPy work timed beside
each closed-loop operation.

On a shared machine the host's speed drifts by tens of percent over
seconds to minutes (and the two cores of a 2-core guest can differ by
as much), moving every timing of a run together.  The reference work
below uses none of the program's code, so a change to the program cannot
move it.  Timing it right before and right after an operation measures
how fast the machine was meanwhile, and ``op_seconds * REF_S / ref``
expresses the operation in *reference seconds*: seconds on a machine
where the reference work takes :data:`REF_S`.  Raw host seconds stay in
every run's record.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Nominal duration of :func:`reference_work` (seconds): one reference
#: second is one host second on a machine where it takes this long.
REF_S = 0.010


async def _stage(items, out):
    for item in items:
        out.append(item)
        await _yield()


class _Yield:
    def __await__(self):
        yield


def _yield():
    return _Yield()


def reference_work() -> float:
    """Run the fixed reference work once; return the calling thread's
    CPU seconds.

    Its mix resembles the simulator's hot path: coroutine switches,
    small-object and dict churn, list traffic, small NumPy calls and
    block-sized complex arithmetic.
    """
    t0 = time.thread_time()
    out: list = []
    coros = [_stage(range(i, i + 1200), out) for i in range(8)]
    live = list(coros)
    while live:
        for c in list(live):
            try:
                c.send(None)
            except StopIteration:
                live.remove(c)
    table: dict = {}
    for i, x in enumerate(out):
        table[x & 255] = (x, i * 0.5)
    a = np.arange(64, dtype=np.float32)
    for _ in range(500):
        a = np.sort(a[::-1]) + np.float32(1.0)
    z = np.arange(2048, dtype=np.complex128)
    for _ in range(150):
        z = (z * (0.5 + 0.5j) + z[::-1]).round()
    return time.thread_time() - t0


def reference_on_each_core() -> float:
    """Mean of :func:`reference_work` pinned in turn to each of the (at
    most two) cores a workload may use.  The calling thread's affinity
    is restored before returning, so processes forked afterwards inherit
    the full set."""
    cores = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for core in cores[:2]:
            os.sched_setaffinity(0, {core})
            times.append(reference_work())
    finally:
        os.sched_setaffinity(0, cores)
    return sum(times) / len(times)


class Speed:
    """Reference-work samples of one run, one between every two
    operations.  Single-process workloads sample the core they run on;
    ``farm``, spread over both cores (``each_core=True``), samples each."""

    def __init__(self, each_core: bool = False):
        self.work = reference_on_each_core if each_core else reference_work
        self.samples = [self.work()]

    def timed(self, op):
        """Run ``op()``, which returns ``(host seconds, ...)``, between
        two reference samples; return ``(reference seconds, host seconds,
        ...)`` scaled by the mean of the samples either side of it."""
        out = op()
        self.samples.append(self.work())
        speed = (self.samples[-2] + self.samples[-1]) / 2
        return (out[0] * REF_S / speed,) + tuple(out)
