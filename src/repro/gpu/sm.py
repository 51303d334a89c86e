"""The streaming multiprocessor model.

Execution model (deliberately simple, occupancy-centric):

* each SM runs ``W`` warps, each an op range of a compiled trace
  (:class:`~repro.gpu.columnar.CompiledTrace`), whose memory ops come
  already coalesced into (line, sector-mask) transactions;
* one warp-op issues per cycle, round-robin over *ready* warps;
* a compute op sleeps its warp; a load blocks its warp until every
  coalesced transaction has data in the L1; stores are fire-and-forget
  through a bounded store buffer;
* the L1 is sectored, write-through no-allocate, with an MSHR file
  whose exhaustion stalls the issuing warp (the main backpressure).

This reproduces the first-order GPU behavior that matters for a memory
-protection study: when outstanding-miss capacity or DRAM bandwidth is
exhausted, added protection latency/traffic turns into lost cycles;
when occupancy can hide it, it does not.
"""

from __future__ import annotations

import enum
from collections import deque
from functools import partial
from typing import Callable, Deque, List, Optional

from repro.cache.l1 import L1Cache
from repro.cache.mshr import MshrFile
from repro.gpu.columnar import (OP_ATOMIC, OP_COMPUTE, OP_LOAD, OP_STORE,
                                CompiledTrace)
from repro.gpu.crossbar import Crossbar
from repro.sim.engine import Poll, Simulator
from repro.sim.resources import OccupancyLimiter
from repro.sim.stats import StatGroup


class _WarpState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"    # waiting on loads or a structural stall
    SLEEPING = "sleeping"  # compute delay
    DONE = "done"


class _Warp:
    """One warp: ops ``next_op .. end_op`` of ``trace``; while a
    memory op is in flight, its transactions ``next_txn .. txn_end``
    are still to issue."""

    __slots__ = ("warp_id", "trace", "next_op", "end_op", "state", "kind",
                 "next_txn", "txn_end", "outstanding", "mem_start")

    def __init__(self, warp_id: int, trace: CompiledTrace, warp: int):
        self.warp_id = warp_id
        self.trace = trace
        self.next_op = trace.warp_ptr[warp]
        self.end_op = trace.warp_ptr[warp + 1]
        self.state = _WarpState.READY
        self.kind = OP_COMPUTE
        self.next_txn = self.txn_end = self.outstanding = 0
        #: Trace-only: issue time of the in-flight memory op (None when
        #: tracing is off or no memory op is in flight).
        self.mem_start: Optional[int] = None


class StreamingMultiprocessor:
    """One SM: warps, L1, store buffer, crossbar port.

    The functional tier builds its SMs with ``crossbar=None`` and never
    starts them; its replay adds to their statistics tree (see
    :mod:`repro.sim.functional`).
    """

    RETRY_CYCLES = 4

    def __init__(self, sm_id: int, sim: Simulator,
                 crossbar: Optional[Crossbar],
                 slices: List, route: Callable[[int], int],
                 l1_size: int = 32 * 1024, l1_ways: int = 4,
                 line_bytes: int = 128, l1_latency: int = 28,
                 l1_mshr_entries: int = 64, store_buffer: int = 64,
                 stats: Optional[StatGroup] = None,
                 scheduler: str = "rr",
                 blocking_stores: bool = False):
        if scheduler not in ("rr", "gto"):
            raise ValueError("scheduler must be 'rr' or 'gto'")
        self.sm_id = sm_id
        self.sim = sim
        self.crossbar = crossbar
        self.slices = slices
        self.route = route
        self.l1_latency = l1_latency
        #: Warps wait for store/atomic acks before retiring the op
        #: (serializes the memory stream; see GpuConfig.blocking_stores).
        self.blocking_stores = blocking_stores
        #: Observers, set by :meth:`repro.obs.hub.Observability.attach`:
        #: the ``sm``-category tracer and the latency attributor.
        self._tracer = None
        self._attributor = None

        group = stats.child(f"sm{sm_id}") if stats is not None \
            else StatGroup(f"sm{sm_id}")
        self.stats = group
        self.l1 = L1Cache(l1_size, l1_ways, line_bytes, stats=group)
        self.l1_mshrs = MshrFile("l1mshr", l1_mshr_entries, max_merges=32,
                                 stats=group)
        self.store_credits = OccupancyLimiter("storebuf", store_buffer,
                                              stats=group)
        self._instructions = group.counter("instructions")
        self._loads = group.counter("loads")
        self._stores = group.counter("stores")
        self._atomics = group.counter("atomics")
        self._load_txns = group.counter("load_transactions")
        self._store_txns = group.counter("store_transactions")
        self._stall_retries = group.counter("stall_retries")
        #: Bumped on every change to the L1 or its MSHR file: the
        #: source a parked load retry watches (see :meth:`_stall`).
        self.epoch = 0

        #: Warps added since the last :meth:`start`.
        self._unlaunched: List[_Warp] = []
        self._ready: Deque[_Warp] = deque()
        self._issue_scheduled = False
        self._last_issue_time = -1
        self._active_warps = 0
        self.finish_time: Optional[int] = None
        #: "rr" rotates over ready warps; "gto" (greedy-then-oldest)
        #: keeps issuing the same warp until it stalls, then falls back
        #: to the oldest ready warp — fewer live access streams at a
        #: time, friendlier to DRAM row locality.
        self.scheduler = scheduler
        self._greedy_warp: Optional[_Warp] = None

    # -- setup ---------------------------------------------------------------

    def add_warp(self, trace: CompiledTrace, warp: int) -> None:
        """Add warp ``warp`` of ``trace`` (coalesced for this SM's line
        and sector sizes); it runs from the next :meth:`start`."""
        self._unlaunched.append(_Warp(len(self._unlaunched), trace, warp))
        self._active_warps += 1

    def start(self) -> None:
        """Launch the warps added since the last start, with a small
        deterministic stagger.

        Perfectly lock-stepped warps form DRAM-bank convoys that make
        results chaotically sensitive to a few cycles of protection
        latency; real warps launch a few cycles apart, which
        decorrelates them.
        """
        for warp in self._unlaunched:
            delay = (warp.warp_id * 11 + self.sm_id * 7) % 64
            self.sim.schedule(delay, self._warp_ready, warp)
        self._unlaunched = []

    @property
    def done(self) -> bool:
        return self._active_warps == 0

    # -- issue loop ---------------------------------------------------------------

    def _wake_issue(self, delay: int = 0) -> None:
        """Schedule the next issue slot, never exceeding 1 op/cycle —
        a warp that re-readies in the same cycle (fire-and-forget
        stores) must not let the SM issue twice in one cycle."""
        if self._issue_scheduled or not self._ready:
            return
        when = max(self.sim.now + delay, self._last_issue_time + 1)
        self._issue_scheduled = True
        self.sim.schedule_at(when, self._issue)

    def _issue(self) -> None:
        self._issue_scheduled = False
        if not self._ready:
            return
        self._last_issue_time = self.sim.now
        warp = self._pick_warp()
        self._dispatch(warp)
        self._wake_issue()

    def _pick_warp(self) -> _Warp:
        if self.scheduler == "gto" and self._greedy_warp is not None:
            greedy = self._greedy_warp
            try:
                self._ready.remove(greedy)
            except ValueError:
                pass  # greedy warp stalled/slept: fall through to oldest
            else:
                return greedy
        warp = self._ready.popleft()
        self._greedy_warp = warp
        return warp

    def _dispatch(self, warp: _Warp) -> None:
        op = warp.next_op
        if op == warp.end_op:
            warp.state = _WarpState.DONE
            self._active_warps -= 1
            if self._active_warps == 0:
                self.finish_time = self.sim.now
            return
        warp.next_op = op + 1
        self._instructions.value += 1
        trace = warp.trace
        kind = trace.op_kind[op]
        if kind == OP_COMPUTE:
            warp.state = _WarpState.SLEEPING
            self.sim.schedule(trace.op_arg[op], self._warp_ready, warp)
            return
        warp.kind = kind
        warp.next_txn = trace.op_txn_ptr[op]
        warp.txn_end = trace.op_txn_ptr[op + 1]
        warp.outstanding = 0
        if self._tracer is not None:
            warp.mem_start = self.sim.now
        if kind == OP_ATOMIC:
            self._atomics.value += 1
        elif kind == OP_STORE:
            self._stores.value += 1
        else:
            self._loads.value += 1
        warp.state = _WarpState.BLOCKED
        self._advance_mem_op(warp)

    def _warp_ready(self, warp: _Warp) -> None:
        if warp.mem_start is not None:
            # The op's line and sector counts quantify its divergence:
            # 1 line / 4 sectors is fully coalesced, 32 / 32 divergent.
            first = warp.trace.op_txn_ptr[warp.next_op - 1]
            masks = warp.trace.txn_mask
            kind = ("atomic" if warp.kind == OP_ATOMIC
                    else "store" if warp.kind == OP_STORE else "load")
            args = {"lines": warp.txn_end - first,
                    "sectors": sum(masks[t].bit_count()
                                   for t in range(first, warp.txn_end)),
                    "warp": warp.warp_id}
            self._tracer.complete(
                "sm", f"mem_{kind}", warp.mem_start,
                self.sim.now - warp.mem_start, tid=self.sm_id, args=args)
            warp.mem_start = None
        warp.state = _WarpState.READY
        self._ready.append(warp)
        self._wake_issue()

    # -- memory op progression ------------------------------------------------------

    def _advance_mem_op(self, warp: _Warp) -> None:
        """Issue remaining transactions; retry later on structural
        stalls (the issue path that stalled queues the retry)."""
        lines = warp.trace.txn_line
        masks = warp.trace.txn_mask
        while warp.next_txn < warp.txn_end:
            txn = warp.next_txn
            if warp.kind == OP_ATOMIC:
                issued = self._issue_atomic_txn(warp, lines[txn], masks[txn])
            elif warp.kind == OP_STORE:
                issued = self._issue_store_txn(warp, lines[txn], masks[txn])
            else:
                issued = self._issue_load_txn(warp, lines[txn], masks[txn])
            if not issued:
                return
            warp.next_txn = txn + 1
        if (warp.kind != OP_LOAD and not self.blocking_stores) \
                or warp.outstanding == 0:
            # Stores retire immediately (unless blocking); loads only if
            # everything hit.
            self._warp_ready(warp)

    def _stall(self, warp: _Warp, source=None, counts=()) -> None:
        """Retry ``warp``'s stalled transaction ``RETRY_CYCLES`` from now.

        With a ``source`` (this SM for loads, the store buffer for
        stores and atomics) the retry is parked: until ``source.epoch``
        moves, each turn replays ``counts``, the failed attempt's counter
        increments, instead of re-running an attempt that would fail the
        same way.
        """
        self._stall_retries.value += 1
        if source is None:
            self.sim.schedule(self.RETRY_CYCLES, self._advance_mem_op, warp)
            return
        self.sim.park(self.RETRY_CYCLES, Poll(
            source, self.RETRY_CYCLES, counts + ((self._stall_retries, 1),),
            self._advance_mem_op, warp))

    # -- loads ------------------------------------------------------------------------

    def _issue_load_txn(self, warp: _Warp, line_addr: int, mask: int) -> bool:
        hit_mask = self.l1.lookup(line_addr, mask)
        miss_mask = mask & ~hit_mask
        load_txns = self._load_txns
        load_txns.value += 1
        if not miss_mask:
            warp.outstanding += 1
            self.sim.schedule(self.l1_latency, self._load_credit, warp)
            return True
        # The warp itself waits in the MSHR entry: the fill credits it.
        new_sectors = self.l1_mshrs.allocate(line_addr, miss_mask, warp)
        if new_sectors is None:
            load_txns.value -= 1
            # A lookup that hit moved LRU order, so only a miss-only
            # lookup can be replayed by its counts.
            if hit_mask:
                self._stall(warp)
            else:
                self._stall(warp, self,
                            self.l1.miss_counts(line_addr, mask)
                            + self.l1_mshrs.stall_counts(line_addr))
            return False
        self.epoch += 1
        warp.outstanding += 1
        if new_sectors:
            self._send_load(line_addr, new_sectors)
        return True

    def _send_load(self, line_addr: int, mask: int) -> None:
        slice_id = self.route(line_addr)
        attributor = self._attributor
        token = attributor.issue() if attributor is not None else None
        self.crossbar.send_request(
            slice_id, 0, self.slices[slice_id].receive_load, line_addr, mask,
            partial(self._queue_response, slice_id, line_addr, token), token)

    def _queue_response(self, slice_id: int, line_addr: int, token,
                        mask: int) -> None:
        if token is not None:
            token.t_respond = self.sim.now
        self.crossbar.send_response(slice_id, mask.bit_count(),
                                    self._on_l2_response, line_addr, mask,
                                    token)

    def _on_l2_response(self, line_addr: int, mask: int, token=None) -> None:
        if token is not None:
            self._attributor.complete(token)
        self.epoch += 1
        # The L1 is write-through: an eviction writes nothing back.
        self.l1.fill(line_addr, mask)
        warps = self.l1_mshrs.fill(line_addr, mask)
        if warps is None:
            return
        for warp in warps:
            self._load_credit(warp)

    def _load_credit(self, warp: _Warp) -> None:
        warp.outstanding -= 1
        if (warp.outstanding == 0 and warp.next_txn >= warp.txn_end
                and warp.state is _WarpState.BLOCKED):
            self._warp_ready(warp)

    # -- stores ------------------------------------------------------------------------

    def _store_ack(self, warp: _Warp) -> None:
        """Blocking-store acknowledgment: free the store-buffer credit
        and retire the op once every transaction has been acked."""
        self.store_credits.release()
        self._load_credit(warp)

    def _store_ack_cb(self, warp: _Warp) -> Callable[[], None]:
        if not self.blocking_stores:
            return self.store_credits.release
        warp.outstanding += 1
        return lambda: self._store_ack(warp)

    def _issue_atomic_txn(self, warp: _Warp, line_addr: int,
                          mask: int) -> bool:
        """Atomics bypass the L1 (they execute at the L2's atomic unit)
        and invalidate any stale L1 copy of the touched sectors."""
        credits = self.store_credits
        if not credits.try_acquire():
            self._stall(warp, credits, credits.rejection_counts)
            return False
        self._store_txns.value += 1
        if self.l1.clear(line_addr, mask):  # the L1 copy is now stale
            self.epoch += 1
        slice_id = self.route(line_addr)
        self.crossbar.send_request(
            slice_id, mask.bit_count(), self.slices[slice_id].receive_atomic,
            line_addr, mask, self._store_ack_cb(warp))
        return True

    def _issue_store_txn(self, warp: _Warp, line_addr: int,
                         mask: int) -> bool:
        credits = self.store_credits
        if not credits.try_acquire():
            self._stall(warp, credits, credits.rejection_counts)
            return False
        # Write-through, no-allocate: a resident L1 copy is updated in
        # place, which changes no modelled state.
        self._store_txns.value += 1
        slice_id = self.route(line_addr)
        self.crossbar.send_request(
            slice_id, mask.bit_count(), self.slices[slice_id].receive_store,
            line_addr, mask, self._store_ack_cb(warp))
        return True
