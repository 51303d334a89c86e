"""Reusable timed-resource models.

Three resource idioms cover almost every shared structure in the
simulated machine:

``BandwidthPort``
    A link or bus that serially transfers packets: the crossbar ports,
    the DRAM data bus, the L2 fill path.  Modeled with a *busy-until*
    timestamp — a request arriving while the port is busy queues behind
    it.

``PipelinedResource``
    A structure with an initiation interval and a latency (a cache tag
    pipeline, an ECC checker): one new operation may start every
    ``interval`` cycles and completes ``latency`` cycles after it
    starts.

``OccupancyLimiter``
    A structure with a fixed number of slots held for a duration (MSHR
    files, craft-buffer entries).  Callers acquire/release explicitly;
    the limiter tracks high-water marks and stall statistics.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.stats import Counter, StatGroup


class BandwidthPort:
    """A serially-shared link with a fixed per-byte service time.

    Parameters
    ----------
    name:
        Used for statistics.
    cycles_per_packet:
        Service time of one packet in core cycles.  Fractional rates are
        supported by accumulating a fixed-point remainder so that, e.g.,
        a port serving a 32 B packet every 1.5 cycles alternates 1- and
        2-cycle service times and averages exactly 1.5.
    """

    def __init__(self, name: str, cycles_per_packet: float, stats: Optional[StatGroup] = None):
        if cycles_per_packet <= 0:
            raise ValueError("cycles_per_packet must be positive")
        self.name = name
        # Fixed point with 1/256 cycle resolution.
        self._service_fp = max(1, int(round(cycles_per_packet * 256)))
        self._busy_until_fp = 0
        self.packets = Counter("packets")
        self.busy_cycles = Counter("busy_cycles")
        self.queue_cycles = Counter("queue_cycles")
        if stats is not None:
            stats.child(name).add(self.packets, self.busy_cycles,
                                  self.queue_cycles)

    def request(self, now: int, packets: int = 1) -> int:
        """Occupy the port for ``packets`` back-to-back packets.

        Returns the cycle at which the transfer completes.  The caller
        is responsible for scheduling whatever happens at that time.
        """
        now_fp = now * 256
        start_fp = max(now_fp, self._busy_until_fp)
        end_fp = start_fp + self._service_fp * packets
        self._busy_until_fp = end_fp
        self.packets.value += packets
        self.busy_cycles.value += (end_fp - start_fp) // 256
        self.queue_cycles.value += (start_fp - now_fp) // 256
        # Round completion up to a whole cycle.
        return -(-end_fp // 256)

    def next_free(self, now: int) -> int:
        """Earliest cycle a new packet could start service."""
        return max(now, -(-self._busy_until_fp // 256))


class PipelinedResource:
    """A pipeline with an initiation interval and a fixed latency."""

    def __init__(self, name: str, interval: int = 1, latency: int = 1,
                 stats: Optional[StatGroup] = None):
        if interval < 1 or latency < 0:
            raise ValueError("interval must be >=1 and latency >=0")
        self.name = name
        self.interval = interval
        self.latency = latency
        self._last_issue = -interval
        self.operations = Counter("operations")
        if stats is not None:
            stats.child(name).add(self.operations)

    def issue(self, now: int) -> int:
        """Issue one operation; returns its completion time."""
        start = max(now, self._last_issue + self.interval)
        self._last_issue = start
        self.operations.add(1)
        return start + self.latency


class OccupancyLimiter:
    """A pool of identical slots (e.g. an MSHR file).

    The limiter does not itself block callers — the event-driven
    components check :meth:`available` and park themselves; this class
    just does the accounting and exposes stall statistics.  ``epoch``
    moves on every acquire and release, so a retry parked on a full
    limiter (:class:`~repro.sim.engine.Poll`) knows when to run again.
    """

    def __init__(self, name: str, capacity: int, stats: Optional[StatGroup] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self.peak = 0
        self.acquires = Counter("acquires")
        self.full_rejections = Counter("full_rejections")
        #: What a rejected :meth:`try_acquire` adds to the counters.
        self.rejection_counts = ((self.full_rejections, 1),)
        self.epoch = 0
        if stats is not None:
            stats.child(name).add(self.acquires, self.full_rejections)

    @property
    def in_use(self) -> int:
        return self._in_use

    def available(self) -> int:
        return self.capacity - self._in_use

    def try_acquire(self, count: int = 1) -> bool:
        """Acquire ``count`` slots if available; returns success."""
        in_use = self._in_use + count
        if in_use > self.capacity:
            self.full_rejections.value += 1
            return False
        self._in_use = in_use
        if in_use > self.peak:
            self.peak = in_use
        self.acquires.value += count
        self.epoch += 1
        return True

    def release(self, count: int = 1) -> None:
        if count > self._in_use:
            raise RuntimeError(
                f"{self.name}: releasing {count} slots with only {self._in_use} in use"
            )
        self._in_use -= count
        self.epoch += 1
