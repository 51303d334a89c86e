"""SM <-> L2-slice interconnect.

A slice-buffered crossbar: each L2 slice has one request input port and
one response output port, both bandwidth-limited; every transfer also
pays a fixed traversal latency.  SMs contend for a slice's ports, which
is how hot-slice imbalance and response-bandwidth saturation show up.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthPort
from repro.sim.stats import StatGroup


class Crossbar:
    """Per-slice ported crossbar with fixed traversal latency."""

    def __init__(self, sim: Simulator, num_slices: int,
                 latency: int = 20, cycles_per_request: float = 1.0,
                 cycles_per_sector: float = 1.0,
                 stats: Optional[StatGroup] = None):
        if num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        self.sim = sim
        self.latency = latency
        group = stats.child("xbar") if stats is not None else StatGroup("xbar")
        self.stats = group
        self._req_ports = [
            BandwidthPort(f"req{i}", cycles_per_request, group)
            for i in range(num_slices)
        ]
        self._rsp_ports = [
            BandwidthPort(f"rsp{i}", cycles_per_sector, group)
            for i in range(num_slices)
        ]

    def send_request(self, slice_id: int, payload_sectors: int,
                     deliver: Callable[..., None], *args: Any) -> None:
        """SM -> slice.  ``payload_sectors`` > 0 models store data.
        ``deliver(*args)`` runs when the request reaches the slice."""
        done = self._req_ports[slice_id].request(
            self.sim.now, payload_sectors or 1)
        self.sim.schedule_at(done + self.latency, deliver, *args)

    def send_response(self, slice_id: int, payload_sectors: int,
                      deliver: Callable[..., None], *args: Any) -> None:
        """Slice -> SM with ``payload_sectors`` of data.
        ``deliver(*args)`` runs when the response reaches the SM."""
        done = self._rsp_ports[slice_id].request(
            self.sim.now, payload_sectors or 1)
        self.sim.schedule_at(done + self.latency, deliver, *args)
