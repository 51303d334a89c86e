"""The functional fidelity tier: event-free traffic simulation.

``SystemConfig(fidelity="functional")`` replays the same materialized
warp traces through the *same* L2 / MSHR-merge / ``mdcache`` /
protection-scheme state machines as the discrete-event tier — but with
no event heap, no cycle clock and no per-event dispatch overhead.

The replay runs in two stages.  **Stage 1**
(:func:`compile_l2_stream`) replays a compiled trace through the SMs'
L1s alone — :class:`~repro.cache.l1.L1Cache`, the event SM's L1
class — and yields the stream of requests the L1s send the L2 (kind,
slice, line and sector mask of each), the points where the queue
drains, and each SM's L1, L1-MSHR and store-buffer tallies.  An L1
fill is installed at its drain point in the order its request was
issued, never in the order the L2 answers, so the L1 — and with it the
stream — depends only on the trace and the L1 geometry, never on the
protection scheme; it is memoized per trace and geometry
(:func:`repro.workloads.base.materialize_l2_stream`), so a sweep over
schemes runs the L1s once.  **Stage 2** (:func:`replay_columnar`)
drives each scheme's L2 slices over the stream and drains the queue at
the same points, adding each SM's tallies to the statistics tree of
its :class:`~repro.gpu.sm.StreamingMultiprocessor`: the tier builds
the event tier's SM class, never starts it and gives it no crossbar,
so one class registers the ``sm{i}`` keys on both tiers.  Both stages
are plain Python over the artifact's columns and the stream's tuples.
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
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.cache.l1 import L1Cache
from repro.dram.channel import RequestKind
from repro.gpu.columnar import (OP_ATOMIC, OP_COMPUTE, OP_LOAD,
                                CompiledTrace, round_robin_order)
from repro.sim.engine import SimulationError
from repro.sim.stats import StatGroup

if TYPE_CHECKING:
    from repro.gpu.sm import StreamingMultiprocessor


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
    """Stage 2's completion sink: the L2's respond and ack callables
    are this list's ``append`` (a C-level call per completion), and the
    replay checks its length at each drain.  ``name`` labels the
    flame profiler's frames."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name


def replay_columnar(stream: L2Stream, sms: List[StreamingMultiprocessor],
                    slices: List, queue: ImmediateQueue,
                    flame=None) -> None:
    """Stage 2: drive the L2 slices over a stage-1 stream.

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
