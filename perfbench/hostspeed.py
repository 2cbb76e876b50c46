"""Host-speed reference for the end-to-end timings.

On a shared host the CPU the benchmark runs on can be slowed 1.4-2.4x for
tens of minutes by work outside the benchmark's own machine: a sibling
hardware thread or the shared caches kept busy by a neighbour.  The process
still reads its CPU time as equal to its wall time, so the slowdown cannot
be told apart from a slower program by timing the program alone.

:func:`slowdown` times a fixed loop that shares none of the program's code
(heap pushes and pops of small objects, dictionary updates and a few small
numpy reductions, as in the simulator's kernel and data plane) and divides
it by :data:`REFERENCE_S`.  Dividing a wall time taken just before or after
by that factor gives the time on a host that runs the loop in
``REFERENCE_S``; a change to the program moves the result exactly as it
moves the wall time, a slower host does not.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

import numpy as np

# Seconds the loop takes on the reference host: a round value just under
# the fastest pass seen on a 2.1 GHz Xeon VM with 2 vCPUs.  It only scales
# the reported metrics; every run uses the same value.
REFERENCE_S = 0.06

_ITEMS = 40_000
_HEAP_LIMIT = 2048
_KEYS = np.arange(50_000) % 1013


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_loop() -> float:
    """Wall seconds of one pass of the fixed reference work."""
    start = perf_counter()
    heap = []
    table = {}
    seq = 12345
    for i in range(_ITEMS):
        seq = (seq * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (seq, i, _Item(seq % 4099, i)))
        if len(heap) > _HEAP_LIMIT:
            old = heapq.heappop(heap)[2]
            table[old.key] = table.get(old.key, 0.0) + old.value * 0.5
    for _ in range(20):
        np.bincount(_KEYS)
        np.argsort(_KEYS, kind="stable")
    return perf_counter() - start


def slowdown(passes: int = 1) -> float:
    """This host's current slowdown against the reference host (median of
    ``passes`` loops)."""
    return statistics.median(reference_loop() for _ in range(passes)) / REFERENCE_S
