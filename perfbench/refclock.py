"""A host clock that reads in reference seconds, steady on a shared host.

On a shared machine the host's speed moves by tens of percent, in level
shifts that last seconds to minutes: a neighbour's load on a sibling
hyperthread, the shared cache or the clock frequency slows every
instruction, and no time is stolen that CPU-time clocks could exclude.
Wall time of the same work then differs between runs far more than any
change worth measuring.

``RefClock`` measures the host's current speed next to the work.  Each
reading closes the wall-time *segment* since the previous reading and
runs a short calibration *slice*: a fixed pure-Python discrete-event
loop (a heap of timestamps resuming generator processes, as the
simulator's kernel does) that uses no code of the program under test.
The segment is scaled by ``(SLICE_REF_S / slice wall) ** SENSITIVITY``.
Slices are not part of any segment.  ``SLICE_REF_S`` is the slice's
wall time on a quiet 2-vCPU VM, so reference seconds read close to the
wall seconds of a quiet host of that class.

``SENSITIVITY`` is how strongly the simulator's host time follows the
slice's.  The slice is a tight loop and suffers more from a loaded host
than the simulator does: in recordings of grid points and fresh-content
loads, each next to a slice, over 4-5 minutes on a shared 2-vCPU VM,
slow spells that stretched the slice 1.6-1.85x stretched the ops
1.37-1.48x.  Scaling by the slice to the power 0.8 left the median op
time of 10 s windows with a quartile spread of 1.5-2.0 %, where raw
wall time spread 6-22 %.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

__all__ = ["RefClock", "SLICE_REF_S", "calibration_slice"]

#: Kernel steps of one calibration slice.
SLICE_STEPS = 6000
#: Reference seconds one slice stands for (its quiet-host wall time).
SLICE_REF_S = 0.0037
#: Exponent of the slice's speed in the scaling (1 = fully proportional).
SENSITIVITY = 0.8
_PROCESSES = 64


def calibration_slice() -> float:
    """Run the fixed calibration loop once; return its wall seconds.

    The collector is paused so that garbage the program left behind is
    not collected here, which would read as a slow host.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        state = {}

        def process(pid):
            count = 0
            while True:
                count += 1
                state[pid] = count
                yield (count * 7 + pid) % 13 + 1

        processes = [process(pid) for pid in range(_PROCESSES)]
        heap = [(next(proc), pid, pid) for pid, proc in enumerate(processes)]
        heapq.heapify(heap)
        seq = _PROCESSES
        for _ in range(SLICE_STEPS):
            now, _seq, pid = heapq.heappop(heap)
            seq += 1
            heapq.heappush(heap, (now + processes[pid].send(None), seq, pid))
        return perf_counter() - start
    finally:
        if paused:
            gc.enable()


class RefClock:
    """Reference seconds and wall seconds of the work between readings."""

    def __init__(self) -> None:
        #: Reference seconds of every closed segment.
        self.ref_s = 0.0
        #: Wall seconds of the same segments (slices excluded).
        self.wall_s = 0.0
        #: Wall seconds of every slice run, in order.
        self.slices: list = []
        self._mark = perf_counter()

    def now(self) -> float:
        """Close the segment since the last reading; return total ref seconds."""
        segment = perf_counter() - self._mark
        slice_s = calibration_slice()
        self.slices.append(slice_s)
        self.wall_s += segment
        self.ref_s += segment * (SLICE_REF_S / slice_s) ** SENSITIVITY
        self._mark = perf_counter()
        return self.ref_s
