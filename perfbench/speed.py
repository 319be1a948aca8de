"""The machine's current speed, from fixed reference work.

On a shared 2-vCPU Intel Xeon VM (Python 3.11) the same Python code runs
up to a third slower or faster from one second or minute to the next.
Two references, run outside the queries' timing, scale measured seconds
to nominal seconds, the seconds at the speed where the reference takes
its nominal time:

- a burst, a fixed loop of Python work, tracks compute-bound code.  The
  sweep runs one after every tenth group; a CLI query runs one every
  IN_QUERY_PERIOD_S seconds from a timer signal, with its time taken off
  the query's.  With bursts only before and after it, the half-minute
  large query's quartile spread over ten runs was near 14% on that VM and
  above 25% on a busier host.
- a spawn, the wall time of starting and ending a bare interpreter,
  tracks what a short CLI query mostly is: process start-up and imports.
  On that VM a burst did not track short queries at all (correlation near
  0), while scaling each by the spawn right before it cut the coefficient
  of variation of the median of 24 short queries from 13% to 2%.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

NOMINAL_S = 0.02         # one burst on an Intel Xeon vCPU, Python 3.11
SPAWN_NOMINAL_S = 0.07   # one spawn there
IN_QUERY_PERIOD_S = 0.25


def burst() -> float:
    """Seconds taken by a fixed loop of the kind of work the engine does:
    list indexing, int arithmetic and bitset updates."""
    start = time.perf_counter()
    table = list(range(1024))
    mask = acc = 0
    for i in range(60000):
        j = table[(i * 7) & 1023]
        mask |= 1 << (j & 511)
        acc += j ^ i
    return time.perf_counter() - start


def spawn() -> float:
    """Seconds from starting `python3 -c pass` to its end."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def factor(bursts: list[float]) -> float:
    """Multiply seconds measured while these bursts ran by this to get
    nominal seconds.

    The mean speed, not the median: the host switches between a normal
    and a third-faster mode for seconds at a time, and a median picks one
    mode where a long query ran partly in both.  A burst slowed by
    preemption only lowers its speed towards 0, so the mean stays robust.
    """
    return statistics.fmean(NOMINAL_S / b for b in bursts)


def spawn_factor(spawns: list[float]) -> float:
    """The same, from spawns."""
    return statistics.fmean(SPAWN_NOMINAL_S / s for s in spawns)
