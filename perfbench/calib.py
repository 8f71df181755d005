"""How fast the host core runs right now, from a fixed pure-Python loop.

On a shared 2-core VM the core's speed swings by up to 2x for seconds
to minutes at a time as co-tenants come and go: the loop below takes
33 ms on a quiet core and up to 110 ms on a busy one.  A time measured
on the simulator alone therefore moves more with the neighbours than
with the code.  The benchmark runs this loop before and after each
timed call, and before each seed the call simulates, and divides the
call's time by the mean slowdown the loop showed.

The loop imitates the simulator's hot path (a heap of timestamped
events, small slotted objects, dict counters, bytes slicing).  How much
contention slows the simulator relative to the loop varies with the
kind of contention and the workload, so the plain ratio narrows the
run-to-run spread (about halves it on the tuning machine) but does not
remove it.  Changing the loop or REFERENCE_S changes every scaled
number, so they stay fixed.
"""

from __future__ import annotations

import heapq
import random
import time

# seconds the loop takes on a quiet core of the machine the benchmark
# was tuned on (KVM Xeon, 2 vCPUs, CPython 3.11); scaled times read as
# seconds on that core
REFERENCE_S = 0.033


class _Event:
    __slots__ = ("t", "kind", "payload")

    def __init__(self, t, kind, payload):
        self.t, self.kind, self.payload = t, kind, payload


def _loop() -> int:
    rng = random.Random(1)
    heap: list = []
    counts: dict[int, int] = {}
    n = 0
    for i in range(20000):
        heapq.heappush(heap, (rng.randrange(1 << 30), i, _Event(i, "x", b"ab" * 8)))
        if len(heap) > 300:
            _, _, ev = heapq.heappop(heap)
            counts[ev.t % 101] = counts.get(ev.t % 101, 0) + len(ev.payload[2:])
            n += isinstance(ev, _Event)
    return n


def slowdown() -> float:
    """How many times slower than on the reference core the loop runs now."""
    t0 = time.perf_counter()
    _loop()
    return (time.perf_counter() - t0) / REFERENCE_S
