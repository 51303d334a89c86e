"""The functional fidelity tier: event-free traffic simulation.

``SystemConfig(fidelity="functional")`` replays the same materialized
warp traces through the *same* L2 / MSHR-merge / ``mdcache`` /
protection-scheme state machines as the discrete-event tier — but with
no event heap, no cycle clock and no per-event dispatch overhead.

The replay runs in stages.  **Stage 1** (:func:`compile_l2_stream`)
replays a compiled trace through the SMs' L1s alone —
:class:`~repro.cache.l1.L1Cache`, the event SM's L1 class — and
yields the stream of requests the L1s send the L2 (kind, slice, line
and sector mask of each), the points where the queue drains, and each
SM's L1, L1-MSHR and store-buffer tallies.  An L1 fill is installed at
its drain point in the order its request was issued, never in the
order the L2 answers, so the L1 — and with it the stream — depends
only on the trace and the L1 geometry, never on the protection scheme;
it is memoized per trace and geometry
(:func:`repro.workloads.base.materialize_l2_stream`), so a sweep over
schemes runs the L1s once.

What comes after depends on the scheme.  The L2 changes state only
while a drain segment's requests arrive (the same under every scheme)
and inside the grants of its fetches.  A scheme that declares
:attr:`~repro.protection.base.ProtectionScheme.l2_transparent` never
touches the L2 and grants exactly the sectors asked, in issue order,
so under it the L2 makes the same calls at the same queue points as
under any other such scheme.  For those schemes **stage 2**
(:func:`record_l2`) replays the stream once through L2 slices driven
by a stand-in scheme and records what the L2 asked (an
:class:`L2Record`, memoized per trace and machine shape by
:func:`repro.workloads.base.materialize_l2_record`), and **stage 3**
(:func:`replay_record`) replays only the run's own scheme against that
record.  A recording costs about one fused replay, so it is made only
where it is reused: for a trace the process has replayed before (a
later cell of a sweep), or by a grid runner for the workers it forks
(:func:`repro.core.system.materialize_l2_replay`).  A process's first
replay of a trace, every other scheme, an observed run (a flame
profiler or an inspector watches the L2 and its micro-tasks), and a
stream the recording declines (atomics, MSHR-full retries) take the
fused replay (:func:`replay_columnar`), which drives the run's own L2
slices over the stream.  Both paths drain the queue at the same points
and add each SM's tallies to the statistics tree of its
:class:`~repro.gpu.sm.StreamingMultiprocessor`: the tier builds the
event tier's SM class, never starts it and gives it no crossbar, so
one class registers the ``sm{i}`` keys on both tiers.  Every stage is
plain Python over the artifact's columns and the stream's tuples.
The tier replays only the artifact
:meth:`repro.core.system.GpuSystem.load_workload` compiled.  The
pieces:

``ImmediateQueue``
    Duck-types the :class:`~repro.sim.engine.Simulator` scheduling
    surface (``now`` / ``schedule`` / ``schedule_at`` /
    ``schedule_daemon``) as a plain FIFO micro-task queue.  The L2
    slices, every protection scheme, the dedicated metadata caches and
    CacheCraft's reconstruction buffer touch the engine *only* through
    that surface, so they run **verbatim** — zero functional-mode
    reimplementation of the layer the paper is about.  Delays are
    dropped; completion *order* is preserved (FIFO), which is exactly
    event order when the memory stream is serialized (below).

``FunctionalChannel``
    Mirrors :class:`~repro.dram.channel.MemoryChannel`'s enqueue-time
    accounting (bytes by :class:`~repro.dram.channel.RequestKind`,
    read/write atom counters, posted-write acks) and fires read
    callbacks through the queue instead of the FR-FCFS timing model.

**Parity contract** (enforced by ``tests/test_fidelity_parity.py``):
on a *serialized memory stream* — one SM, one warp, one lane,
``blocking_stores=True`` — every traffic, hit/miss,
eviction/writeback and metadata counter matches the event tier
bit-for-bit.  Timing-only statistics (cycles, DRAM row/bus/queue
figures, crossbar ports, latency attribution) are absent; the
explicit list is :data:`TIMING_ONLY_STAT_PATTERNS`.  On *concurrent*
configurations the functional tier is still deterministic and its
counters remain valid hit/miss accounting, but concurrency-window
effects (MSHR merge timing, reconstruction-buffer merging, FR-FCFS
install order, the L1 fill order) make event-vs-functional deviations
expected — see docs/PERFORMANCE.md ("Fidelity tiers").
"""

from __future__ import annotations

import re
import time
from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.cache.l1 import L1Cache
from repro.dram.channel import RequestKind
from repro.gpu.columnar import (OP_ATOMIC, OP_COMPUTE, OP_LOAD,
                                CompiledTrace, round_robin_order)
from repro.gpu.l2slice import L2Slice
from repro.sim.engine import SimulationError
from repro.sim.stats import StatGroup

if TYPE_CHECKING:
    from repro.gpu.sm import StreamingMultiprocessor
    from repro.protection.base import ProtectionScheme


class ImmediateQueue:
    """A FIFO micro-task queue duck-typing the Simulator surface.

    ``schedule``/``schedule_at`` append; ``drain`` pops and calls in
    order.  ``now`` is always 0 (there is no clock) and daemons never
    fire (they exist to sample timing).  Because every component above
    DRAM schedules its own continuations through this surface, FIFO
    drain order equals event order whenever at most one memory op is
    in flight — the serialized-stream parity condition.
    """

    #: There is no clock; components may read ``sim.now`` freely.
    now = 0

    def __init__(self) -> None:
        self._q: deque = deque()
        self.events_executed = 0
        #: Optional budgets (mirroring Simulator.run's safety valves).
        self.max_events: Optional[int] = None
        self._deadline: Optional[float] = None

    # -- Simulator surface ---------------------------------------------------

    def schedule(self, _delay: int, fn: Callable, *args) -> None:
        self._q.append((fn, args))

    def schedule_at(self, _when: int, fn: Callable, *args) -> None:
        self._q.append((fn, args))

    def schedule_daemon(self, _interval: int, _fn: Callable, *args) -> None:
        """Daemons sample timing; there is none to sample."""

    def pending(self) -> int:
        return len(self._q)

    # -- budgets -------------------------------------------------------------

    def set_budget(self, max_events: Optional[int] = None,
                   max_wall_seconds: Optional[float] = None) -> None:
        self.max_events = max_events
        self._deadline = (time.monotonic() + max_wall_seconds
                          if max_wall_seconds is not None else None)

    # -- execution -----------------------------------------------------------

    def drain(self) -> None:
        """Run queued micro-tasks (and whatever they enqueue) to
        exhaustion, honoring the optional budgets.

        The budget check runs *before* each pop: with
        ``max_events=N``, at most ``N`` micro-tasks execute across the
        whole run — a run whose total work fits the budget completes,
        and a (N+1)-th pending task raises without running.  (The
        historical comparison ran budget+1 tasks before noticing,
        off-by-one against the documented safety-valve contract.)
        """
        q = self._q
        popleft = q.popleft
        executed = self.events_executed
        budget = self.max_events
        deadline = self._deadline
        while q:
            if budget is not None and executed >= budget:
                self.events_executed = executed
                raise SimulationError(
                    f"functional run exceeded max_events={budget}")
            fn, args = popleft()
            fn(*args)
            executed += 1
            if deadline is not None and not executed % 65536 \
                    and time.monotonic() > deadline:
                self.events_executed = executed
                raise SimulationError(
                    "functional run exceeded the wall-clock budget")
        self.events_executed = executed

    def account(self, tasks: int) -> None:
        """Count ``tasks`` micro-tasks that a recording stood in for
        (stage 3's completions) against the budget: a run raises iff
        its micro-tasks, these included, exceed ``max_events``."""
        self.events_executed += tasks
        if self.max_events is not None \
                and self.events_executed > self.max_events:
            raise SimulationError(
                f"functional run exceeded max_events={self.max_events}")


class FunctionalChannel:
    """Enqueue-time DRAM accounting with no timing model.

    Byte/atom accounting matches
    :meth:`repro.dram.channel.MemoryChannel.enqueue` exactly (it all
    happens at enqueue there too); reads complete through the queue,
    writes are posted.  The FR-FCFS machinery's statistics (row
    hits/misses, refreshes, bus busy, queue depths, read-latency
    histogram) are timing-only and deliberately absent.
    """

    #: No request waits in a queue (see :meth:`enqueue`).
    queue_depth = 0

    def __init__(self, name: str, sim: ImmediateQueue,
                 stats: Optional[StatGroup] = None, atom_bytes: int = 32):
        self.name = name
        self.sim = sim
        self.atom_bytes = atom_bytes
        group = stats.child(name) if stats is not None else StatGroup(name)
        self.stats = group
        self._reads = group.counter("reads")
        self._writes = group.counter("writes")
        self._bytes_by_kind: Dict[RequestKind, int] = \
            {k: 0 for k in RequestKind}

    def enqueue(self, addr: int, is_write: bool, kind: RequestKind,
                callback: Optional[Callable[[], None]] = None,
                atoms: int = 1) -> None:
        """Count the access and queue its callback (if any): a read
        completes, and a write is posted, with no timing model."""
        self._bytes_by_kind[kind] += atoms * self.atom_bytes
        if is_write:
            self._writes.value += atoms
        else:
            self._reads.value += atoms
        if callback is not None:
            self.sim.schedule(0, callback)

    def bytes_by_kind(self) -> Dict[str, int]:
        return {k.value: v for k, v in self._bytes_by_kind.items()}

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes_by_kind.values())


#: The counters of an SM's statistics tree that stage 1 tallies, in
#: the column order of :attr:`L2Stream.tallies`; the others stay 0 on
#: this tier.
TALLIED: Tuple[str, ...] = (
    "instructions", "loads", "stores", "atomics", "load_transactions",
    "store_transactions", "storebuf.acquires", "l1.hits",
    "l1.sector_misses", "l1.line_misses", "l1.line_miss_sectors",
    "l1.evictions", "l1mshr.allocations", "l1mshr.full_stalls",
    "storebuf.full_rejections")

_UNFINISHED = ("an L2 request did not complete within its drain — the "
               "serialized-replay contract is broken")


@dataclass(frozen=True)
class L1Geometry:
    """What stage 1's output depends on besides the trace: the SM
    count, each SM's L1 (bytes, ways, line bytes, MSHR entries,
    store-buffer depth) and the slice interleave its requests route
    by.  It keys the stream memo."""

    num_sms: int
    l1_bytes: int
    l1_ways: int
    line_bytes: int
    l1_mshr_entries: int
    store_buffer: int
    slice_chunk_bytes: int
    num_slices: int

    @classmethod
    def of(cls, gpu) -> "L1Geometry":
        """The geometry of a :class:`~repro.core.config.GpuConfig`."""
        return cls(gpu.num_sms, gpu.l1_size_kb * 1024, gpu.l1_ways,
                   gpu.line_bytes, gpu.l1_mshr_entries, gpu.store_buffer,
                   gpu.slice_chunk_bytes, gpu.num_slices)


@dataclass(frozen=True)
class L2Stream:
    """Stage 1's output: the requests the L1s send the L2, in issue
    order, and where the queue drains.  A request's ``port`` is its
    slice, plus the slice count ``S`` for a store or twice that for an
    atomic.  The columns are tuples: the stream is memoized and shared
    across runs, like a :class:`~repro.gpu.columnar.CompiledTrace`."""

    port: Tuple[int, ...]      # per request: slice, + S store, + 2S atomic
    line: Tuple[int, ...]      # per request: line index
    mask: Tuple[int, ...]      # per request: sector mask
    drain_at: Tuple[int, ...]  # per drain: requests issued before it
    drain_sm: Tuple[int, ...]  # per drain: SM whose op drains there
    tallies: Tuple[Tuple[int, ...], ...]  # per SM: the TALLIED counters


@dataclass(frozen=True)
class L2Geometry:
    """The L2 slices' count and shape: what stage 2's record depends on
    besides the stream.  With the trace, the :class:`L1Geometry` and
    ``flush_at_end`` it keys the record memo.  :meth:`build` is the one
    place a machine's slice is made, on either tier and in stage 2, so
    every argument that shapes a slice is a field of the key."""

    num_slices: int
    slice_bytes: int
    ways: int
    line_bytes: int
    sector_bytes: int
    mshr_entries: int
    policy: str
    metadata_ways: int

    @classmethod
    def of(cls, gpu) -> "L2Geometry":
        """The geometry of a :class:`~repro.core.config.GpuConfig`."""
        return cls(gpu.num_slices, gpu.l2_slice_bytes, gpu.l2_ways,
                   gpu.line_bytes, gpu.sector_bytes, gpu.l2_mshr_entries,
                   gpu.l2_policy, gpu.l2_metadata_ways)

    def build(self, slice_id: int, sim, protection,
              latency: int = 32,
              stats: Optional[StatGroup] = None) -> L2Slice:
        """Slice ``slice_id`` of this geometry on ``sim``, fetching and
        writing back through ``protection``.  ``latency`` only times
        the slice's micro-tasks, which the functional tier runs
        without delay, so it is not part of the geometry."""
        return L2Slice(slice_id, sim, protection,
                       size_bytes=self.slice_bytes, ways=self.ways,
                       line_bytes=self.line_bytes,
                       sector_bytes=self.sector_bytes, latency=latency,
                       mshr_entries=self.mshr_entries, policy=self.policy,
                       stats=stats, metadata_ways=self.metadata_ways)


@dataclass(frozen=True)
class L2Record:
    """Stage 2's output: what the L2 asks of an L2-transparent scheme
    over a stream, and the counters it ends with.

    A request asks at most one thing on arrival — a load a fetch, a
    store the writeback of the dirty line its allocation evicts — and
    a fetch's grant installs one line, evicting at most one dirty line
    (queued as the writeback of the load that issued the fetch).
    The writebacks are listed in the order the L2 queues them (on
    arrival, at a grant, then at the end-of-run flush).  The columns
    are read-only ``memoryview``s: the record is memoized and shared
    across runs, like a stream."""

    fetched: memoryview    # per request: sectors a load fetched (0: none)
    evicts: memoryview     # per request: 1 when it queued a writeback
    wb_slice: memoryview   # per writeback: slice
    wb_line: memoryview    # per writeback: line index
    wb_dirty: memoryview   # per writeback: dirty sector mask
    wb_valid: memoryview   # per writeback: valid sector mask
    #: Per slice: its statistics' final values, in
    #: :meth:`~repro.sim.stats.StatGroup.walk` order.
    counters: Tuple[Tuple[int, ...], ...]
    #: Completion micro-tasks (responds, acks and MSHR waiters): stage 3
    #: counts them into the queue's ``events_executed`` without running
    #: them.
    completions: int


def compile_l2_stream(compiled: CompiledTrace,
                      geometry: L1Geometry) -> L2Stream:
    """Stage 1: replay ``compiled`` through the SMs' L1s alone.

    Warps run round-robin, one op per still-active warp per round, in
    flattened SM-major warp order (:func:`round_robin_order`), and the
    queue drains after every memory op that issued a request; the
    rotation is therefore a fixed total order, and one walk over it
    counts each SM's instructions, op kinds and transactions and
    drives the L1s:

    * a load probes the L1 per transaction and sends each missing
      sector mask to the L2; a full L1 MSHR file (``l1_mshr_entries``
      requests in flight) counts ``l1mshr.full_stalls``, drains and
      redoes the lookup;
    * a store or atomic takes a store-buffer credit per transaction (a
      full buffer counts ``storebuf.full_rejections`` and drains) and
      goes to the L2; an atomic also clears its sectors in the L1
      copy, and a store leaves the L1 alone (write-through,
      no-allocate);
    * at a drain every request in flight completes: the fills install
      in issue order and every credit frees.  Nothing waits for a later
      cycle, so ``stall_retries`` stays 0.
    """
    n = geometry.num_sms
    mshr_entries = geometry.l1_mshr_entries
    store_buffer = geometry.store_buffer
    num_slices = geometry.num_slices
    chunk = geometry.slice_chunk_bytes
    line_bytes = compiled.line_bytes
    kinds = compiled.op_kind
    txn_ptr = compiled.op_txn_ptr
    tl = compiled.txn_line
    tm = compiled.txn_mask
    warp_ptr = compiled.warp_ptr
    op_sm: List[int] = []
    for w, sm_index in enumerate(compiled.warp_sm):
        op_sm += [sm_index] * (warp_ptr[w + 1] - warp_ptr[w])
    l1s = [L1Cache(geometry.l1_bytes, geometry.l1_ways, geometry.line_bytes)
           for _ in range(n)]
    # Per SM: instructions, then loads, stores and atomics (indexed by
    # op kind), load and store transactions, L1-MSHR allocations and
    # full stalls, and store-buffer full rejections.
    counters = [[0] * 9 for _ in range(n)]
    port: List[int] = []
    lines: List[int] = []
    masks: List[int] = []
    drain_at: List[int] = []
    drain_sm: List[int] = []
    # Loads in flight since the last drain, in issue order.
    fills: List[Tuple[int, int]] = []

    for o in round_robin_order(compiled, n):
        sm_index = op_sm[o]
        counts = counters[sm_index]
        counts[0] += 1
        k = kinds[o]
        if k == OP_COMPUTE:
            continue
        counts[k] += 1
        start = txn_ptr[o]
        end = txn_ptr[o + 1]
        l1 = l1s[sm_index]
        if k == OP_LOAD:
            counts[4] += end - start
            for t in range(start, end):
                line = tl[t]
                mask = tm[t]
                while True:
                    miss = mask & ~l1.lookup(line, mask)
                    if not miss:
                        break
                    if len(fills) < mshr_entries:
                        counts[6] += 1
                        fills.append((line, miss))
                        port.append((line * line_bytes // chunk) % num_slices)
                        lines.append(line)
                        masks.append(miss)
                        break
                    # A full MSHR file stalls like the event SM: drain
                    # (every fill lands), then redo the lookup.
                    counts[7] += 1
                    _install(l1, fills)
                    drain_at.append(len(lines))
                    drain_sm.append(sm_index)
            if fills:
                _install(l1, fills)
                drain_at.append(len(lines))
                drain_sm.append(sm_index)
        else:  # OP_STORE / OP_ATOMIC
            counts[5] += end - start
            atomic = k == OP_ATOMIC
            base = 2 * num_slices if atomic else num_slices
            credits = 0
            for t in range(start, end):
                if credits >= store_buffer:
                    # A full store buffer drains: every ack lands.
                    counts[8] += 1
                    drain_at.append(len(lines))
                    drain_sm.append(sm_index)
                    credits = 0
                credits += 1
                line = tl[t]
                mask = tm[t]
                if atomic:
                    l1.clear(line, mask)  # the L1 copy is now stale
                port.append(base + (line * line_bytes // chunk) % num_slices)
                lines.append(line)
                masks.append(mask)
            if credits:
                drain_at.append(len(lines))
                drain_sm.append(sm_index)

    # storebuf.acquires equals store_transactions: a credit per store.
    tallies = tuple(
        (*counts[:6], counts[5],
         *(l1.stats.get(name).value for name in (
             "hits", "sector_misses", "line_misses", "line_miss_sectors",
             "evictions")),
         *counts[6:])
        for l1, counts in zip(l1s, counters))
    return L2Stream(tuple(port), tuple(lines), tuple(masks),
                    tuple(drain_at), tuple(drain_sm), tallies)


def _install(l1: L1Cache, fills: List[Tuple[int, int]]) -> None:
    """Land a drain's L1 fills in issue order and empty ``fills``."""
    for line, mask in fills:
        l1.fill(line, mask)
    fills.clear()


class _Completions(list):
    """The fused replay's completion sink: the L2's respond and ack
    callables are this list's ``append`` (a C-level call per
    completion), and the replay checks its length at each drain.
    ``name`` labels the flame profiler's frames."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name


def replay_columnar(stream: L2Stream, sms: List[StreamingMultiprocessor],
                    slices: List, queue: ImmediateQueue,
                    flame=None) -> None:
    """The fused replay: drive the L2 slices over a stage-1 stream.

    Each drain segment sends its requests to
    ``L2Slice.receive_load``/``receive_store``/``receive_atomic`` in
    issue order and drains the queue; every request of the segment
    must have completed by then, or :class:`SimulationError` is raised
    (impossible on the serialized contract; the guard keeps a future
    concurrent L2 model from silently breaking counter parity).  The
    protection-layer state machines (the part the paper is about) are
    never reimplemented.  Each SM's tallies (:data:`TALLIED`) are
    added to its statistics tree.

    With a flame profiler (``flame``) each drain segment runs under its
    SM's ``sm{N}.step`` root frame, so the micro-tasks it schedules
    stack under that SM; without one no per-segment cost is paid.
    """
    fills = _Completions("l1")
    acks = _Completions("storebuf")
    respond = fills.append
    ack = partial(acks.append, None)
    num_slices = len(slices)
    receivers = ([sl.receive_load for sl in slices]
                 + [sl.receive_store for sl in slices]
                 + [sl.receive_atomic for sl in slices])
    callbacks = [respond] * num_slices + [ack] * (2 * num_slices)
    run = partial(_replay_segments, stream.port, stream.line, stream.mask,
                  stream.drain_at, receivers, callbacks, fills, acks,
                  queue.drain)
    if flame is None:
        run(0, len(stream.drain_at))
    else:
        roots = [flame.wrap_root(f"sm{sm.sm_id}.step", run) for sm in sms]
        for j, sm_index in enumerate(stream.drain_sm):
            roots[sm_index](j, j + 1)
    _add_tallies(sms, stream)


def _add_tallies(sms: List[StreamingMultiprocessor],
                 stream: L2Stream) -> None:
    """Add stage 1's tallies to each SM's statistics tree."""
    for sm, tallies in zip(sms, stream.tallies):
        for key, value in zip(TALLIED, tallies):
            _stat(sm.stats, key).add(value)


def _stat(group: StatGroup, key: str):
    """The statistic at the dotted ``key`` under ``group``."""
    *path, name = key.split(".")
    for child in path:
        group = group.child(child)
    return group.get(name)


def _replay_segments(ports: Sequence[int], lines: Sequence[int],
                     masks: Sequence[int], drain_at: Sequence[int],
                     receivers: List[Callable],
                     callbacks: List[Callable], fills: List, acks: List,
                     drain: Callable[[], None], lo: int, hi: int) -> None:
    """The hot loop of :func:`replay_columnar`: drain segments
    ``lo..hi`` of the stream."""
    start = drain_at[lo - 1] if lo else 0
    for j in range(lo, hi):
        end = drain_at[j]
        for i in range(start, end):
            p = ports[i]
            receivers[p](lines[i], masks[i], callbacks[p])
        drain()
        if len(fills) + len(acks) != end - start:
            raise SimulationError(_UNFINISHED)
        fills.clear()
        acks.clear()
        start = end


# -- stages 2 and 3: the L2 recorded once, the scheme replayed per run -------


def _completion(_mask: int = 0) -> None:
    """Stage 2's respond and ack callable.  The stand-in counts each
    completion the L2 queues with it and never runs one."""


class _StandIn:
    """Stage 2's protection scheme and micro-task queue in one.

    The slices hand it their fetches and writebacks and queue their
    micro-tasks on it.  The fetches wait in :attr:`grants` until their
    segment's requests have all arrived and are then granted in issue
    order, with exactly the sectors asked; it notes each writeback as
    it is queued and counts each completion.  Any other micro-task — an MSHR-full
    retry, whose outcome would depend on when the scheme grants —
    declines the stream.  :attr:`at` is the request whose arrival or
    grant is running (-1 during the end flush)."""

    def __init__(self, requests: int, mask_code: str):
        self.fetched = array(mask_code, [0]) * requests
        self.evicts = bytearray(requests)
        self.wb_slice = array("l")
        self.wb_line = array("q")
        self.wb_dirty = array(mask_code)
        self.wb_valid = array(mask_code)
        self.grants: List[Tuple[int, Callable[[int], None], int]] = []
        self.completions = 0
        self.declined = False
        self.at = -1

    # -- the protection surface the slices call -------------------------------

    def fetch(self, _slice_id: int, _line_addr: int, sector_mask: int,
              on_ready: Callable[[int], None]) -> None:
        self.fetched[self.at] = sector_mask
        self.grants.append((self.at, on_ready, sector_mask))

    def writeback(self, slice_id: int, line_addr: int, dirty_mask: int,
                  valid_mask: int, _is_metadata: bool) -> None:
        if self.at >= 0:
            self.evicts[self.at] = 1
        self.wb_slice.append(slice_id)
        self.wb_line.append(line_addr)
        self.wb_dirty.append(dirty_mask)
        self.wb_valid.append(valid_mask)

    # -- the queue surface the slices call -----------------------------------

    def schedule(self, _delay: int, fn: Callable, *args) -> None:
        if fn is _completion or (type(fn) is partial
                                 and fn.func is _completion):
            self.completions += 1
        elif fn == self.writeback:
            fn(*args)
        else:
            self.declined = True


def record_l2(stream: L2Stream, geometry: L2Geometry,
              flush: bool) -> Optional[L2Record]:
    """Stage 2: replay ``stream`` once through L2 slices of
    ``geometry`` and record what they ask of a scheme.

    The slices are the real :class:`~repro.gpu.l2slice.L2Slice` driven
    by :class:`_StandIn`; each drain segment's requests arrive in issue
    order and then its fetches are granted in issue order, as under
    every L2-transparent scheme.  With ``flush`` the slices then flush
    as at the end of a run.  Returns None — the run takes the fused
    replay — for a stream with atomics (an atomic's completion marks
    its line dirty, from inside a micro-task) or one in which an L2
    MSHR file fills up (a retry's outcome depends on when grants land).
    Raises :class:`SimulationError` if a request does not complete
    within its drain.
    """
    num_slices = geometry.num_slices
    ports = stream.port
    if ports and max(ports) >= 2 * num_slices:
        return None
    sectors = geometry.line_bytes // geometry.sector_bytes
    tap = _StandIn(len(ports), "B" if sectors <= 8 else "Q")
    slices = [geometry.build(i, tap, tap) for i in range(num_slices)]
    receivers = ([sl.receive_load for sl in slices]
                 + [sl.receive_store for sl in slices])
    lines = stream.line
    masks = stream.mask
    grants = tap.grants
    start = 0
    for end in stream.drain_at:
        for i in range(start, end):
            tap.at = i
            receivers[ports[i]](lines[i], masks[i], _completion)
        for i, on_ready, mask in grants:
            tap.at = i
            on_ready(mask)
        grants.clear()
        if tap.declined:
            return None
        if tap.completions != end:
            raise SimulationError(_UNFINISHED)
        start = end
    if flush:
        tap.at = -1
        for sl in slices:
            sl.flush()
    return L2Record(
        *(memoryview(column).toreadonly() for column in (
            tap.fetched, tap.evicts, tap.wb_slice, tap.wb_line,
            tap.wb_dirty, tap.wb_valid)),
        counters=tuple(tuple(stat.value for _key, stat in sl.stats.walk())
                       for sl in slices),
        completions=tap.completions)


def replay_record(stream: L2Stream, record: L2Record,
                  sms: List[StreamingMultiprocessor], slices: List,
                  scheme: ProtectionScheme, queue: ImmediateQueue,
                  flush: bool) -> None:
    """Stage 3: run ``scheme`` against stage 2's ``record`` of
    ``stream``, as the fused replay would run it against the slices.

    Each drain segment issues the recorded fetches and queues the
    recorded arrival writebacks in issue order, then drains the queue;
    a fetch's grant queues the writeback its install evicted.  The
    completions are counted, not run, so ``events_executed`` equals
    the fused replay's.  With ``flush`` the end flush's writebacks are
    queued, the scheme drains and the queue drains once more.  The
    slices' counters are written from the record and each SM's tallies
    added; the slices themselves are never touched.

    Raises :class:`SimulationError` when a grant arrives out of issue
    order, before its segment drains or with other sectors than asked
    (the scheme is not L2-transparent), and when a segment's fetches
    are not all granted by its drain.
    """
    fetched = record.fetched
    evicts = record.evicts
    writebacks = zip(record.wb_slice, record.wb_line, record.wb_dirty,
                     record.wb_valid)
    schedule = queue.schedule
    drain = queue.drain
    fetch = scheme.fetch
    writeback = scheme.writeback
    ports = stream.port
    lines = stream.line
    issued: List[int] = []
    # The segment's fetches not yet granted, in issue order; empty while
    # its requests arrive, so that a grant then is refused too.
    pending: deque = deque()

    def grant(i: int, mask: int) -> None:
        if not pending or pending[0] != i:
            problem = "out of issue order"
        elif mask != fetched[i]:
            problem = f"with sectors {mask:#x} for {fetched[i]:#x}"
        else:
            pending.popleft()
            if evicts[i]:
                schedule(0, writeback, *next(writebacks), False)
            return
        raise SimulationError(
            f"scheme {scheme.name!r} declares l2_transparent but granted "
            f"line {lines[i]} {problem}")

    start = 0
    for end in stream.drain_at:
        for i in range(start, end):
            mask = fetched[i]
            if mask:
                issued.append(i)
                fetch(ports[i], lines[i], mask, partial(grant, i))
            elif evicts[i]:
                schedule(0, writeback, *next(writebacks), False)
        pending.extend(issued)
        issued.clear()
        drain()
        if pending:
            raise SimulationError(_UNFINISHED)
        start = end
    queue.account(record.completions)
    if flush:
        for args in writebacks:
            schedule(0, writeback, *args, False)
        scheme.drain()
        drain()
    for sl, values in zip(slices, record.counters):
        for (_key, stat), value in zip(sl.stats.walk(), values):
            stat.add(value)
    _add_tallies(sms, stream)


# -- parity helpers ----------------------------------------------------------

#: Flattened-stat keys the event tier produces and the functional tier
#: legitimately does not: they measure *time*, not traffic or cache
#: behavior.  Everything else must match bit-for-bit on serialized
#: streams (see tests/test_fidelity_parity.py and docs/PERFORMANCE.md).
TIMING_ONLY_STAT_PATTERNS: Tuple[str, ...] = (
    # The two tiers are different machines; event counts are compared
    # as throughput provenance, not model output.
    r"engine\.events",
    # DRAM timing machinery (FR-FCFS, refresh, bus, queues).
    r"dram\d+\.(row_hits|row_misses|refreshes|bus_busy_cycles)",
    r"dram\d+\.(read_queue_depth|write_queue_depth)",
    r"dram\d+\.read_latency(\..*)?",
    # Crossbar bandwidth ports (pure interconnect timing).
    r"xbar\..*",
    # Latency attribution (only present on observed runs anyway).
    r"latency\..*",
)

_TIMING_ONLY_RE = re.compile(
    "^(" + "|".join(TIMING_ONLY_STAT_PATTERNS) + ")$")


def is_timing_only_stat(key: str) -> bool:
    """Is a flattened stat key excluded from the parity contract?"""
    return _TIMING_ONLY_RE.match(key) is not None


def parity_diff(event_stats: Dict[str, float],
                functional_stats: Dict[str, float]) -> List[str]:
    """Violations of the exact-counter parity contract (empty = parity).

    * a key present in both tiers with different values,
    * a functional-only key (the functional tier must never invent
      statistics the event tier does not have),
    * an event-only key not covered by
      :data:`TIMING_ONLY_STAT_PATTERNS`.
    """
    problems: List[str] = []
    for key in sorted(functional_stats):
        if is_timing_only_stat(key):
            continue
        if key not in event_stats:
            problems.append(f"functional-only stat: {key}")
        elif event_stats[key] != functional_stats[key]:
            problems.append(
                f"mismatch {key}: event={event_stats[key]} "
                f"functional={functional_stats[key]}")
    for key in sorted(event_stats):
        if key not in functional_stats and not is_timing_only_stat(key):
            problems.append(f"unexplained event-only stat: {key}")
    return problems
