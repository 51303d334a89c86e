"""Discrete-event simulation kernel.

This package is the engine underneath every timed component in the
reproduction: the event queue (:mod:`repro.sim.engine`), bandwidth- and
occupancy-limited resources (:mod:`repro.sim.resources`), and the
statistics registry every component reports into
(:mod:`repro.sim.stats`).

The kernel is deliberately minimal: a monotonic clock measured in GPU
core cycles, a calendar event queue with deterministic FIFO order
within a cycle, and a handful of reusable resource models.  Components
schedule plain callables; there is no process/coroutine machinery to
keep the hot path cheap (the simulator executes hundreds of thousands
of events per run).
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.resources import BandwidthPort, OccupancyLimiter, PipelinedResource
from repro.sim.stats import Counter, Histogram, StatGroup, StatsRegistry

__all__ = [
    "Simulator",
    "SimulationError",
    "BandwidthPort",
    "OccupancyLimiter",
    "PipelinedResource",
    "Counter",
    "Histogram",
    "StatGroup",
    "StatsRegistry",
]
