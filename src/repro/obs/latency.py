"""Per-request latency attribution.

Every L2-bound load transaction (an L1 miss) can carry a
:class:`LoadToken` that is stamped as it crosses pipeline boundaries:

* ``t_issue``   — the SM puts the coalesced transaction on the crossbar;
* ``t_arrive``  — the L2 slice receives it;
* ``t_fetch``   — the slice hands the miss to the protection scheme
  (only for the transaction that *triggers* the fetch; merged requests
  wait on someone else's fetch);
* ``t_data``    — the last DATA / VERIFY_FILL DRAM read issued on this
  token's behalf returned;
* ``t_meta``    — the last METADATA DRAM read returned;
* ``t_respond`` — the slice's response callback (the SM's
  ``_queue_response``) fired;
* ``t_complete``— the response crossed the crossbar back into the SM.

:meth:`LatencyAttributor.complete` folds the stamps into three
components that **sum to the total latency exactly**:

``data``
    DRAM time spent fetching data for this request
    (``t_data - t_fetch``), overfetch/verify fills included.
``metadata``
    The *extra* stall protection metadata added beyond the data fetch:
    ``max(0, t_meta - max(t_data, t_fetch))``.  Metadata that arrives
    under the shadow of the data fetch costs nothing and is correctly
    attributed as zero.
``queue``
    Everything else: crossbar transit both ways, L2 service/check
    latency, MSHR merge waits, craft-buffer scheduling.  Computed as
    the remainder, which is what makes the decomposition exact.

DRAM reads are linked to a token through a *current-token* scope: the
L2 slice brackets its synchronous ``protection.fetch(...)`` call with
:meth:`begin_fetch` / :meth:`end_fetch`, and the protection context
wraps any DRAM read callback it enqueues inside that scope.  Reads a
scheme defers to a later event (craft-buffer overflow retries, merged
metadata fetches) fall outside the scope and land in ``queue``.

:meth:`repro.obs.hub.Observability.attach` hands the attributor to the
SMs, the L2 slices and the protection context as their ``_attributor``;
without attribution it stays ``None`` and every call site guards with
one ``is not None`` check — no tokens, no stamps, no overhead.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.stats import StatGroup

#: Histogram edges (cycles) shared by the attribution histograms.
LATENCY_EDGES = [50, 100, 200, 400, 800, 1600, 3200]


class LoadToken:
    """Boundary timestamps for one L2-bound load transaction."""

    __slots__ = ("t_issue", "t_arrive", "t_fetch", "t_data", "t_meta",
                 "t_respond", "hit")

    def __init__(self, t_issue: int):
        self.t_issue = t_issue
        self.t_arrive: Optional[int] = None
        self.t_fetch: Optional[int] = None
        self.t_data: Optional[int] = None
        self.t_meta: Optional[int] = None
        self.t_respond: Optional[int] = None
        self.hit = False


class LatencyAttributor:
    """Creates, links and retires :class:`LoadToken` objects.

    Owns a ``latency`` stat group: histograms for the total and each
    component, plus exact cycle-sum counters the profile report uses
    (the counters, unlike bucketed histograms, preserve the sum
    identity ``data + metadata + queue == total`` to the cycle).
    """

    def __init__(self, sim: Simulator, stats: StatGroup):
        self.sim = sim
        self.stats = stats
        self.current: Optional[LoadToken] = None
        self._h_total = stats.histogram("total", LATENCY_EDGES)
        self._h_data = stats.histogram("data_stall", LATENCY_EDGES)
        self._h_meta = stats.histogram("metadata_stall", LATENCY_EDGES)
        self._h_queue = stats.histogram("queue_stall", LATENCY_EDGES)
        self._requests = stats.counter("requests")
        self._l2_hits = stats.counter("l2_hit_requests")
        self._total_cycles = stats.counter("total_cycles")
        self._data_cycles = stats.counter("data_cycles")
        self._meta_cycles = stats.counter("metadata_cycles")
        self._queue_cycles = stats.counter("queue_cycles")

    # -- token lifecycle ------------------------------------------------------

    def issue(self) -> LoadToken:
        """New token stamped at the current cycle (SM -> crossbar)."""
        return LoadToken(self.sim.now)

    # -- fetch scope ----------------------------------------------------------

    def begin_fetch(self, token: LoadToken) -> None:
        """Open the current-token scope around ``protection.fetch``."""
        token.t_fetch = self.sim.now
        self.current = token

    def end_fetch(self) -> None:
        self.current = None

    def link_read(self, is_metadata: bool,
                  callback: Callable[[], None]) -> Callable[[], None]:
        """Wrap a DRAM read callback to stamp the in-scope token."""
        token = self.current
        assert token is not None

        def stamped() -> None:
            now = self.sim.now
            if is_metadata:
                if token.t_meta is None or now > token.t_meta:
                    token.t_meta = now
            else:
                if token.t_data is None or now > token.t_data:
                    token.t_data = now
            callback()

        return stamped

    # -- retirement -----------------------------------------------------------

    def complete(self, token: LoadToken) -> None:
        """Final stamp (response delivered to the SM); record components."""
        now = self.sim.now
        total = now - token.t_issue
        data = meta = 0
        if token.t_fetch is not None:
            if token.t_data is not None:
                data = max(0, token.t_data - token.t_fetch)
            shadow = token.t_fetch if token.t_data is None else token.t_data
            if token.t_meta is not None:
                meta = max(0, token.t_meta - shadow)
        queue = total - data - meta
        self._requests.add(1)
        if token.hit:
            self._l2_hits.add(1)
        self._total_cycles.add(total)
        self._data_cycles.add(data)
        self._meta_cycles.add(meta)
        self._queue_cycles.add(queue)
        self._h_total.record(total)
        self._h_data.record(data)
        self._h_meta.record(meta)
        self._h_queue.record(queue)

    # -- summaries ------------------------------------------------------------

    def breakdown(self) -> Dict[str, float]:
        """Aggregate attribution; components sum to ``total_cycles``."""
        n = self._requests.value
        return {
            "requests": n,
            "l2_hit_requests": self._l2_hits.value,
            "total_cycles": self._total_cycles.value,
            "data_cycles": self._data_cycles.value,
            "metadata_cycles": self._meta_cycles.value,
            "queue_cycles": self._queue_cycles.value,
            "total_mean": self._h_total.mean,
            "total_p50": self._h_total.percentile(0.50),
            "total_p95": self._h_total.percentile(0.95),
            "data_mean": self._h_data.mean,
            "metadata_mean": self._h_meta.mean,
            "queue_mean": self._h_queue.mean,
        }
