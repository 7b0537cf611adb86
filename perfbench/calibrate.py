"""Host-speed calibration: fixed reference work, independent of ``repro``.

The benchmark's host is shared, and its speed drifts by tens of percent
over minutes as neighbours' load comes and goes.  Executions of the
simulator slow down with it, so a run's raw timings say as much about the
host as about the code.  Each run therefore also times this reference
work, interleaved with the executions, and reports timings rescaled to a
host on which the reference work takes :data:`REFERENCE_S`.

The reference work imitates the simulator's host profile: generator
processes resumed from a heap-ordered event queue, each doing dictionary
lookups in a table larger than the per-core caches.  The table stays a
few MB, well under any workload's own footprint, so the reference work
never sets the measuring process's peak RSS.  It imports nothing from
``repro``, so no change to the simulator can change it.
"""

from __future__ import annotations

import heapq
import time

# Seconds :func:`reference_work` takes on a 2.1 GHz Xeon VM with no
# neighbour load; a rescaled timing is in seconds on that host.
REFERENCE_S = 0.18

_TABLE_SIZE = 100_000
_PROCESSES = 2000
_STEPS = 80


def reference_work() -> int:
    """Run the fixed reference work; returns a checksum."""
    table = {i: 3 * i + 1 for i in range(_TABLE_SIZE)}

    def process(i):
        acc = 0
        for k in range(_STEPS):
            acc += table[(i * 7919 + k * 104729) % _TABLE_SIZE]
            yield (i + k) % 13 + 1
        return acc

    queue, seq, total = [], 0, 0
    for i in range(_PROCESSES):
        seq += 1
        heapq.heappush(queue, (0, seq, process(i)))
    while queue:
        t, _, proc = heapq.heappop(queue)
        try:
            delay = next(proc)
        except StopIteration as done:
            total += done.value
            continue
        seq += 1
        heapq.heappush(queue, (t + delay, seq, proc))
    return total


def time_reference() -> float:
    """Host seconds one :func:`reference_work` takes right now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
