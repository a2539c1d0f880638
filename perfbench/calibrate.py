"""Host throughput that repeats on a host that does not.

On the shared two-core sandbox the same rep takes 1.0x to 1.6x as long
from one run to the next, in phases that last seconds to minutes, so no
statistic of raw wall time repeats within a tenth.  What does repeat is
wall time *relative to a fixed piece of interpreter work done at the same
moment*: every ``slice_ticks`` ticks of a timed rep (10-15 ms) the harness
ends a slice of the workload and times :func:`calibrate`, a small fixed
kernel (~2.7 ms).  A slice is worth ``work seconds / kernel seconds``
kernel units.  Every rep of a run does the same work in the same order, so
slice *j* is the same work in each; its cost is taken from the rep that
ran it fastest, when the host disturbed it least, as the units of that
rep's slice and the kernel right after it, and the run's cost is the sum
over *j*.  Undisturbed is one state of the host and disturbed is many, in
some of which the kernel slows more than the simulator and in others
less, so the fastest pair repeats where the median pair does not: over 33
sets of ten runs the interquartile spread of this figure was 0.026 of its
median on average (0.039 with the median over reps, 0.16 for the raw
median rep rate), and above 0.05 in one set (in seven; in all 33).

``ops_per_ref_s`` scales the units by :data:`REF_CALIB_S`, so it reads as
ops per second on a host that runs the kernel in exactly that time (the
dev sandbox in a quiet moment).  The raw rate is printed beside it.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Sequence, Tuple

#: seconds :func:`calibrate` takes on the reference host
REF_CALIB_S = 0.003

_KERNEL_STEPS = 4000


class _Node:
    __slots__ = ("hits",)

    def __init__(self) -> None:
        self.hits = 0

    def touch(self, by: int) -> int:
        self.hits += by
        return self.hits


def _accumulate(steps: int):
    total = 0
    for _ in range(steps):
        total += (yield total) or 0


def calibrate() -> int:
    """A fixed mix of what the simulator does: heap, dict, method, generator."""
    heap: List[Tuple[int, int]] = []
    table = {}
    nodes = [_Node() for _ in range(16)]
    push, pop = heapq.heappush, heapq.heappop
    resume = _accumulate(_KERNEL_STEPS + 1)
    next(resume)
    total = 0
    for i in range(_KERNEL_STEPS):
        push(heap, ((i * 7919) % 1000, i))
        if len(heap) > 32:
            total += pop(heap)[1]
        table[i & 63] = i
        total += table.get((i * 31) & 63, 0)
        total += nodes[i & 15].touch(i & 3)
        total += resume.send(i & 7)
    return total


class Slicer:
    """Cuts a timed rep into slices, a kernel after each; workloads tick it."""

    def __init__(self, every: int, calibrated: bool):
        #: per slice: (seconds of workload, seconds of calibration kernel)
        self.slices: List[Tuple[float, float]] = []
        self._every = self._left = every
        self._calibrated = calibrated
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def tick(self) -> None:
        """One unit of the workload's progress; every rep ticks the same."""
        self._left -= 1
        if not self._left:
            self._left = self._every
            self.cut()

    def cut(self) -> None:
        """End a slice here; the harness ends the last one with the rep."""
        now = time.perf_counter()
        if self._calibrated:
            calibrate()
        after = time.perf_counter()
        self.slices.append((now - self._last, after - now))
        self._last = after


def ops_per_ref_s(ops: int, reps: Sequence[Slicer]) -> float:
    """The calibrated rate of a run whose timed reps were ``reps``."""
    if len({len(rep.slices) for rep in reps}) != 1:
        raise ValueError("reps of one run ticked differently: not the same work")
    units = 0.0
    for column in zip(*(rep.slices for rep in reps)):
        work, kernel = min(column)      # the rep that ran this slice fastest
        units += work / kernel
    return ops / (units * REF_CALIB_S)
