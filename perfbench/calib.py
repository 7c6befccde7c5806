"""Machine-speed calibration: a fixed task timed next to the requests, so
that their times can be given at a reference speed.

The machine this benchmark is meant for is two cores of a shared host,
and its speed drifts by 20-30% over minutes with the load of its
neighbours.  The load slows faultkit in two ways, and not always both at
once: it takes compute from the core, and it takes the memory system,
which faultkit's walks over large graphs of Python objects wait on.  The
task therefore does one of each, for about the same time: a search over
pairs of states held in a core's own cache (tuples, dict look-ups, set
membership, as the twin plant, the beliefs and the TFPG checks do), and a
walk through a list of 2**21 Python ints (about 72 MB), each step two
reads at scattered addresses.  It does not depend on faultkit, so a
request's wall time times REF_S over the task's time nearby is its time
at the speed the task ran REF_S in, and a change to faultkit still moves
it.
"""

from __future__ import annotations

import time

# Seconds the task takes at the reference speed.  A round value near its
# median on a 2-core Linux machine (Python 3.11.7).  Every time metric is
# given at this speed; the constant only scales them.
REF_S = 0.0080

_STATES = 64
_LINKS = 1 << 21
_STEPS = 7_500
_ring: list[int] | None = None


def _search() -> int:
    succ = {i: ((i * 7 + 1) % _STATES, (i * 13 + 5) % _STATES, (i + 1) % _STATES)
            for i in range(_STATES)}
    seen = {(0, 0)}
    todo = [(0, 0)]
    while todo:
        a, b = todo.pop()
        for x in succ[a]:
            for y in succ[b]:
                if (x, y) not in seen:
                    seen.add((x, y))
                    todo.append((x, y))
    return len(seen)


def _build() -> list[int]:
    """slot i holds the next slot, (a*i + c) mod 2**21: a full-period
    linear congruential step (a = 1 mod 4, c odd), so one cycle through
    every slot in a scattered order."""
    return [(i * 1664525 + 1013904223) % _LINKS for i in range(_LINKS)]


def calibrate() -> float:
    """Wall time of one search and one walk of _STEPS links (the list is
    built on the first call, outside the timed interval)."""
    global _ring
    if _ring is None:
        _ring = _build()
    ring, j = _ring, 0
    t0 = time.perf_counter()
    _search()
    for _ in range(_STEPS):
        j = ring[j]
    return time.perf_counter() - t0
