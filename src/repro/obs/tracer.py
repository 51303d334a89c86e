"""Structured event tracing in Chrome trace format.

Components emit *spans* (``ph="X"`` complete events) and *instants*
(``ph="i"``) into a bounded ring buffer; the buffer serializes to the
Chrome/Perfetto ``traceEvents`` JSON schema, so a run can be inspected
in ``chrome://tracing`` or https://ui.perfetto.dev.  Timestamps are
simulated core cycles written into the ``ts``/``dur`` microsecond
fields (1 cycle == 1 "µs"), which keeps the viewer's zoom and duration
arithmetic meaningful.

Design constraints, in order:

1. **The disabled path costs nothing.**  A component's ``_tracer`` is
   ``None`` unless :meth:`repro.obs.hub.Observability.attach` handed it
   a tracer that wants the component's category, so an untraced run
   pays one ``is not None`` test per *potential* event site and
   allocates no event objects at all.
2. **Bounded memory.**  The ring buffer keeps the most recent
   ``capacity`` events and counts what it dropped; a long run cannot
   OOM the host through tracing.
3. **Category filtering.** ``ChromeTracer(categories={"dram", "l2"})``
   records only those categories; ``None`` records everything.

Trace categories used by the simulator:

=========  ====================================================
category   events
=========  ====================================================
``sm``     per-warp memory-op spans (issue -> all data returned)
``l2``     L2 slice misses and metadata installs
``mdcache``  dedicated metadata-cache misses and fills
``dram``   per-request DRAM spans (enqueue -> data end)
``resilience``  fault injections, DUEs, recovery retries, poisoning
=========  ====================================================
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Deque, Iterable, List, Optional, Union


class ChromeTracer:
    """A recording tracer with a bounded ring buffer.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are dropped first and
        counted in :attr:`dropped`.
    categories:
        Iterable of category names to record, or ``None`` for all.
    """

    def __init__(self, capacity: int = 1_000_000,
                 categories: Optional[Iterable[str]] = None):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.categories = frozenset(categories) if categories is not None \
            else None
        self._events: Deque[dict] = deque(maxlen=capacity)
        self.dropped = 0

    def wants(self, category: str) -> bool:
        return self.categories is None or category in self.categories

    def _push(self, event: dict) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def instant(self, category: str, name: str, ts: int,
                args: Optional[dict] = None, tid: int = 0) -> None:
        if not self.wants(category):
            return
        event = {"name": name, "cat": category, "ph": "i", "ts": ts,
                 "pid": 0, "tid": tid, "s": "t"}
        if args:
            event["args"] = args
        self._push(event)

    def complete(self, category: str, name: str, ts: int, dur: int,
                 args: Optional[dict] = None, tid: int = 0) -> None:
        if not self.wants(category):
            return
        event = {"name": name, "cat": category, "ph": "X", "ts": ts,
                 "dur": dur, "pid": 0, "tid": tid}
        if args:
            event["args"] = args
        self._push(event)

    # -- export ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[dict]:
        """A copy of the retained events, oldest first."""
        return list(self._events)

    def to_dict(self) -> dict:
        """The Chrome trace JSON object."""
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "cachecraft-sim",
                "clock": "core-cycles (1 cycle = 1us in the viewer)",
                "dropped_events": self.dropped,
            },
        }

    def export(self, destination: Union[str, IO[str]]) -> int:
        """Write Chrome trace JSON to a path or file object.

        Returns the number of events written.
        """
        payload = self.to_dict()
        if hasattr(destination, "write"):
            json.dump(payload, destination)
        else:
            with open(destination, "w") as fh:
                json.dump(payload, fh)
        return len(self._events)
