"""The host-speed probe every reported timing is scaled by.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes: on a 2-vCPU host, 51 back-to-back repetitions of the same
``city-sharded`` world (seed 0, five minutes) took 2.58-4.81 s wall
(IQR/median 0.19).  CPU and wall time drift alike, so the slowdown is
per instruction (other tenants' cache and memory traffic, clock
changes), not time taken away from the process.

The probe is a fixed, seeded piece of discrete-event work over 20k
small Python objects -- an event heap, attribute reads, float
arithmetic and dict writes -- because the simulator's slowdown follows
that kind of work most closely: over 54 back-to-back repetitions of one
``rwp-dissemination`` world on that host (raw IQR/median 0.27), the
world's time grew as the probe's to the power 1.03, and the
interquartile means of seven repetitions each, divided by those of
their probes, spread 0.045 (0.325 raw).  A CPU loop plus random reads
of a 32 MiB buffer, tried first, grew with exponent 1.17 and spread
0.082.

The probe is benchmark code that does not touch the program, and it
runs between the measured executions, never beside them, so a change to
the program moves the scaled timings exactly as it moves the raw ones.
A timing is reported in *reference seconds*: the mean of the middle
half of the seconds measured times ``REFERENCE_PROBE_S`` over the same
mean of the probe times beside them (each the mean of the probes just
before and just after one execution).

``python3 perfbench/hostspeed.py`` prints one probe time.  The probe's
objects raise the peak memory of the process that runs it, and a child
process starts from its parent's peak, so a process that starts
measured children runs the probe this way, in a child of its own.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: The probe's time on a quiet 2-vCPU host (Python 3.11); a scaled
#: timing is what the measured one would have taken there.
REFERENCE_PROBE_S = 0.30

_NODES = 20_000
_STEPS = 35_000


class _Node:
    def __init__(self, ident: int, rng: random.Random):
        self.ident = ident
        self.x = rng.random() * 1000.0
        self.y = rng.random() * 1000.0
        self.neighbours: list = []
        self.table: dict = {}
        self.received = 0


def probe_s() -> float:
    """Seconds taken to build ``_NODES`` objects with six random
    neighbours each, then pop ``_STEPS`` events off a heap, each one
    touching its node's neighbours within range and scheduling the
    next."""
    rng = random.Random(12345)
    started = time.perf_counter()
    nodes = [_Node(i, rng) for i in range(_NODES)]
    for node in nodes:
        node.neighbours = [nodes[rng.randrange(_NODES)] for _ in range(6)]
    queue = [(rng.random(), k, rng.randrange(_NODES)) for k in range(2_000)]
    heapq.heapify(queue)
    seq = len(queue)
    for _ in range(_STEPS):
        at, _, index = heapq.heappop(queue)
        node = nodes[index]
        for other in node.neighbours:
            if (other.x - node.x) ** 2 + (other.y - node.y) ** 2 < 250_000.0:
                other.received += 1
                other.table[seq & 1023] = at
        seq += 1
        heapq.heappush(queue, (at + rng.random(), seq,
                               node.neighbours[seq % 6].ident))
    elapsed = time.perf_counter() - started
    # The nodes form reference cycles: free them now, not in the
    # collections of whatever runs next in this process.
    del nodes, node, other, queue
    gc.collect()
    return elapsed


def factor(probe: float) -> float:
    """What a timing measured beside ``probe`` is multiplied by."""
    return REFERENCE_PROBE_S / probe


if __name__ == "__main__":
    print(repr(probe_s()))
