"""The host's speed, measured by a fixed reference loop.

The benchmark runs on a few cores of a shared machine whose speed
drifts by 10-35% for minutes at a time.  No amount of repetition inside
one run removes a drift that lasts longer than the run, so every run
also times :func:`reference_pass`, a fixed pure-Python event loop with
the simulator's mix of heap operations, method calls and dict lookups,
and reports its times scaled by :func:`speed_factor`: seconds at the
speed the reference loop ran at when the benchmark was defined.  The
scaling removes most of the drift from the simulation times; set-up,
which allocates far more, slows more than the reference does and keeps
part of it.

The reference loop belongs to the benchmark, not to the program, so a
change to the program moves the scaled times by the same proportion as
the raw ones.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Iterable

#: Fastest :func:`reference_pass` measured on the host the benchmark
#: was defined on (a 2-vCPU Intel Xeon virtual machine, CPython 3.11).
REFERENCE_S = 0.0066

#: Events one reference pass executes (about 7 ms on that host).
REFERENCE_EVENTS = 10_000


class _Unit:
    """A simulated component: a little state keyed by address."""

    __slots__ = ("lines", "hits")

    def __init__(self) -> None:
        self.lines: dict = {}
        self.hits = 0

    def access(self, address: int, now: int) -> int:
        if self.lines.get(address) is None:
            self.lines[address] = now
        else:
            self.hits += 1
        return (address * 2654435761 + now) & 0xFFFFF


def reference_pass(events: int = REFERENCE_EVENTS) -> float:
    """Wall time of one pass of the reference event loop.

    The collector is off during the pass: a collection would traverse
    every object the program left alive, so the pass would time the
    program's heap instead of the host.  The loop makes no cycles.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        units = [_Unit() for _ in range(16)]
        queue = [(t, t, t & 15) for t in range(64)]
        seq = len(queue)
        for _ in range(events):
            now, _, unit = heapq.heappop(queue)
            nxt = units[unit].access(now & 4095, now)
            seq += 1
            heapq.heappush(queue, (now + (nxt & 31) + 1, seq, nxt & 15))
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def speed_factor(samples: Iterable[float]) -> float:
    """What to multiply this run's times by to express them at the
    reference speed: the reference time over the fastest pass seen."""
    return REFERENCE_S / min(samples)
