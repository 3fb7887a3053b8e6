"""The machine's current speed, from a fixed pure-Python reference loop.

The reference machine shares its host with other tenants, and its CPUs run
up to 1.7 times slower in phases that last from a few seconds to a few
minutes.  The benchmark therefore times this loop right before and right
after every child it measures, and scales the child's times by
``REFERENCE_S`` over the loop's time around it: a time then reads in seconds
at the speed at which the loop takes ``REFERENCE_S``.  This follows the
slower phases; changes of speed within one child, and the difference in how
much the loop and the program slow, are left to the medians over a run.

The loop does what the program mostly does (integer arithmetic, dict and
set updates, a sort of tuples) but calls none of its code, so a change to
the program never changes the loop.
"""

from __future__ import annotations

import time

# The loop's usual time on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11.7).
REFERENCE_S = 0.14
LOOP_N = 100_000


def reference_loop(n=LOOP_N):
    table = {}
    acc = 0
    for i in range(n):
        key = (i * 7919) % 65521
        table[key] = table.get(key, 0) ^ (i * i)
        acc += (i * 31) % 7
    pairs = sorted(table.items(), key=lambda kv: (kv[1] % 1009, kv[0]))
    seen = set()
    for k, _ in pairs:
        seen ^= {k % 4093}
    return acc + len(seen)


def measure():
    """(wall, cpu) seconds of one pass of the reference loop."""
    wall, cpu = time.perf_counter(), time.process_time()
    reference_loop()
    return time.perf_counter() - wall, time.process_time() - cpu
