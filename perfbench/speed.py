"""A fixed pure-Python reference loop that gauges the CPU speed a job ran at.

The CPU speed this benchmark gets from its shared host swings by up to 2x
within seconds, with the load of other tenants, and slow and fast phases last
from a second to minutes. Raw wall times of one commit then spread by 15-30%
between runs, wider than any bound a regression check can use. So every job
is timed between two runs of this loop, and its wall time is rescaled to the
speed at which the loop takes REF_S seconds:

    scaled = wall * REF_S / (mean of the two loop times)

A change to the program moves the scaled time as it moves the wall time; a
change in the host's speed moves both the job and the loop and cancels out.
The loop uses the interpreter the way the library does (integer arithmetic,
gcd, tuple keys, dict updates) and no module outside the standard library.
"""

from __future__ import annotations

import time
from math import gcd

REF_S = 0.018   # median loop time on the 2-vCPU, 2.1 GHz Xeon host the bounds were set on


def reference():
    table = {}
    s = 1
    for i in range(1, 30000):
        k = (i * 7919) % 251
        s = (s * 31 + k) % 1000003
        key = (k, i & 7)
        table[key] = gcd(s, i) + table.get(key, 0)
    return s


def time_reference():
    """Seconds one run of the reference loop takes now."""
    a = time.perf_counter()
    reference()
    return time.perf_counter() - a


def scaled(wall_s, ref_s):
    """A wall time rescaled to the speed at which the loop takes REF_S."""
    return wall_s * REF_S / ref_s
