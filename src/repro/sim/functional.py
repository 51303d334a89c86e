"""The functional fidelity tier: event-free traffic simulation.

``SystemConfig(fidelity="functional")`` replays the same materialized
warp traces through the *same* L2 / MSHR-merge / ``mdcache`` /
protection-scheme state machines as the discrete-event tier — but with
no event heap, no cycle clock and no per-event dispatch overhead.
Four pieces make that possible:

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

``FunctionalSm``
    One SM's warps plus the lean front-end state the replay drives: an
    exact LRU model of the event SM's sectored L1, the pending-fill map
    that stands in for its L1 MSHR file, and its store-buffer credits.
    It registers the event SM's statistics tree, so flattened results
    are key-compatible with the event tier.

:func:`replay_columnar`
    Replays a compiled trace (:mod:`repro.gpu.columnar`) in the
    round-robin op order, probing the lean L1 and driving every miss,
    store and atomic straight into ``L2Slice.receive_load/store/atomic``,
    draining the queue after each memory op.

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
install order) make small event-vs-functional deviations expected —
see docs/PERFORMANCE.md ("Fidelity tiers").
"""

from __future__ import annotations

import re
import time
from collections import OrderedDict, deque
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dram.channel import RequestKind
from repro.gpu.trace import WarpOp
from repro.sim.engine import SimulationError
from repro.sim.stats import StatGroup


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


#: The event SM's statistics tree as (child group, counters), ``""``
#: naming the ``sm{i}`` group itself.  :class:`FunctionalSm` registers
#: it in this order so flattened keys equal the event tier's.
_SM_STATS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("", ("instructions", "loads", "stores", "atomics",
          "load_transactions", "store_transactions", "stall_retries")),
    ("l1", ("hits", "sector_misses", "line_misses", "line_miss_sectors",
            "evictions", "writebacks", "metadata_fills", "metadata_hits")),
    ("l1mshr", ("allocations", "merges", "full_stalls", "merge_stalls")),
    ("storebuf", ("acquires", "full_rejections")),
)

_UNFILLED = ("an L2 fill did not complete within its op's drain — the "
             "serialized-replay contract is broken")
_NO_CREDIT = ("store-buffer credit unavailable after drain "
              "(functional-tier invariant violated)")


class FunctionalSm:
    """One SM of the functional tier: its warps and the lean front-end
    state :func:`replay_columnar` drives.

    Registers the event SM's statistics tree (``sm{i}`` plus its
    ``l1``, ``l1mshr`` and ``storebuf`` groups, see :data:`_SM_STATS`)
    so flattened results are key-compatible with the event tier.  The
    replay counts into plain slots; :meth:`flush` adds them to the tree
    once per replay.

    The L1 models the event SM's LRU ``SectoredCache`` exactly with one
    ``OrderedDict`` per set: insertion order is fill order,
    ``move_to_end`` is the hit promotion, ``popitem(last=False)`` the
    victim choice (the real cache fills invalid ways first, but every
    fill becomes MRU regardless of which physical way it landed in, so
    the two recency orders are the same total order).  Each entry is a
    one-element list holding the line's valid sector mask; a line whose
    mask atomics zeroed stays resident (tag match, all sectors miss)
    and, like the real cache, does not count as an eviction when
    displaced.  ``pending`` (line -> sectors still awaiting their L2
    fill) stands in for the L1 MSHR file, ``credits`` for the store
    buffer.

    Structural stalls resolve by draining the queue, which lands every
    outstanding fill and ack: a full MSHR file or store buffer counts
    its stall (``l1mshr.full_stalls``, ``storebuf.full_rejections``),
    drains, and goes on.  Nothing waits for a later cycle, so
    ``stall_retries`` stays 0.
    """

    __slots__ = ("sm_id", "stats", "warps", "sets", "num_sets", "ways",
                 "pending", "mshr_entries", "credits", "store_buffer",
                 "hits", "sector_misses", "line_misses",
                 "line_miss_sectors", "evictions", "mshr_allocs",
                 "mshr_full_stalls", "store_rejections", "_counters")

    def __init__(self, sm_id: int, l1_size: int = 32 * 1024,
                 l1_ways: int = 4, line_bytes: int = 128,
                 l1_mshr_entries: int = 64, store_buffer: int = 64,
                 stats: Optional[StatGroup] = None):
        if l1_size % (l1_ways * line_bytes):
            raise ValueError("L1 size must be a multiple of ways * line_bytes")
        if l1_mshr_entries < 1 or store_buffer < 1:
            raise ValueError("l1_mshr_entries and store_buffer must be >= 1")
        self.sm_id = sm_id
        group = stats.child(f"sm{sm_id}") if stats is not None \
            else StatGroup(f"sm{sm_id}")
        self.stats = group
        self._counters = {
            f"{child}.{name}" if child else name:
                (group.child(child) if child else group).counter(name)
            for child, names in _SM_STATS for name in names}
        self.warps: List[Sequence[WarpOp]] = []
        self.num_sets = l1_size // (l1_ways * line_bytes)
        self.ways = l1_ways
        self.sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self.num_sets)]
        self.pending: Dict[int, int] = {}
        self.mshr_entries = l1_mshr_entries
        self.credits = 0
        self.store_buffer = store_buffer
        self._zero_tallies()

    def _zero_tallies(self) -> None:
        self.hits = self.sector_misses = self.line_misses = 0
        self.line_miss_sectors = self.evictions = self.mshr_allocs = 0
        self.mshr_full_stalls = self.store_rejections = 0

    # -- setup (same surface as StreamingMultiprocessor) ---------------------

    def add_warp(self, ops: Sequence[WarpOp]) -> None:
        self.warps.append(ops)

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def done(self) -> bool:
        return not self.warps

    # -- L2 callbacks ----------------------------------------------------------

    def fill(self, line_addr: int, granted: int) -> None:
        """L2 fill: allocate the line (evicting LRU, without promoting
        an already-resident line), install the granted sectors and
        retire them from ``pending`` — the event SM's
        ``_on_l2_response``."""
        sd = self.sets[line_addr % self.num_sets]
        ent = sd.get(line_addr)
        if ent is None:
            if len(sd) >= self.ways:
                _victim, vent = sd.popitem(last=False)
                if vent[0]:
                    self.evictions += 1
            ent = [0]
            sd[line_addr] = ent
        ent[0] |= granted
        rem = self.pending.get(line_addr)
        if rem is not None:
            rem &= ~granted
            if rem:
                self.pending[line_addr] = rem
            else:
                del self.pending[line_addr]

    def release(self) -> None:
        """Store/atomic ack from the L2 — frees one store credit."""
        self.credits -= 1

    def flush(self, instructions: int, loads: int, stores: int,
              atomics: int, load_txns: int, store_txns: int) -> None:
        """Add one replay's counts (the static ones passed in, the
        tallied ones from the slots) to the stat tree; zero the
        tallies."""
        counters = self._counters
        for key, value in (
                ("instructions", instructions), ("loads", loads),
                ("stores", stores), ("atomics", atomics),
                ("load_transactions", load_txns),
                ("store_transactions", store_txns),
                ("l1.hits", self.hits),
                ("l1.sector_misses", self.sector_misses),
                ("l1.line_misses", self.line_misses),
                ("l1.line_miss_sectors", self.line_miss_sectors),
                ("l1.evictions", self.evictions),
                ("l1mshr.allocations", self.mshr_allocs),
                ("l1mshr.full_stalls", self.mshr_full_stalls),
                ("storebuf.acquires", store_txns),
                ("storebuf.full_rejections", self.store_rejections)):
            counters[key].add(value)
        self._zero_tallies()


def replay_columnar(compiled, sms: List[FunctionalSm],
                    slices: List, queue: ImmediateQueue,
                    slice_chunk_bytes: int, flame=None) -> None:
    """Replay a compiled trace through the SMs and the L2 slices.

    Warps run round-robin, one op per still-active warp per round, in
    flattened SM-major warp order, and the queue drains after every
    memory op; execution is therefore serialized at op granularity and
    the rotation is a fixed total order, which
    :func:`repro.gpu.columnar.round_robin_order` precomputes.  With the
    order and the per-op coalesced transactions both compile-time
    data, replay reduces to:

    * **batched bookkeeping** — instruction/op-kind/transaction
      counters are exact functions of the artifact, summed per SM in
      numpy and added once (compute ops cost *nothing* per-op);
    * **a lean L1 pass** (:class:`FunctionalSm`) over the transaction
      columns, touching local integers on the hit path;
    * **the verbatim L2/scheme machinery** for every miss, store and
      atomic, drained at op boundaries, so the protection-layer state
      machines (the part the paper is about) are never reimplemented.

    With a flame profiler (``flame``) each memory op runs under an
    ``sm{N}.step`` root frame, so the micro-tasks it schedules stack
    under its SM; without one no per-op cost is paid.

    Raises :class:`SimulationError` if an L2 fill or a store ack fails
    to complete inside a drain (impossible on the serialized contract;
    the guard keeps a future concurrent L2 model from silently
    breaking counter parity).
    """
    import numpy as np

    from repro.gpu.columnar import (OP_ATOMIC, OP_COMPUTE, OP_LOAD,
                                    round_robin_order)

    n = len(sms)
    if compiled.num_ops == 0 or n == 0:
        queue.drain()
        return

    # Execution order and per-op attribution (see round_robin_order).
    counts = np.diff(compiled.warp_ptr)
    op_warp = np.repeat(np.arange(compiled.num_warps, dtype=np.int64),
                        counts)
    op_sm = compiled.warp_sm.astype(np.int64)[op_warp]
    order = round_robin_order(compiled, n)
    kind = compiled.op_kind
    txn_counts = np.diff(compiled.op_txn_ptr)

    # Batched static counters: exact per-SM sums over executed ops.
    k_sm = op_sm[order]
    k_kind = kind[order]
    k_txns = txn_counts[order]
    is_load = k_kind == OP_LOAD
    is_atomic = k_kind == OP_ATOMIC
    is_store_like = k_kind >= 2  # OP_STORE | OP_ATOMIC
    instructions = np.bincount(k_sm, minlength=n)
    loads = np.bincount(k_sm[is_load], minlength=n)
    atomics = np.bincount(k_sm[is_atomic], minlength=n)
    stores = np.bincount(k_sm[is_store_like & ~is_atomic], minlength=n)
    load_txns = np.bincount(k_sm[is_load], weights=k_txns[is_load],
                            minlength=n)
    store_txns = np.bincount(k_sm[is_store_like],
                             weights=k_txns[is_store_like], minlength=n)

    # Per-transaction slice routing, vectorized once.
    num_slices = len(slices)
    routes = ((compiled.txn_line * compiled.line_bytes)
              // slice_chunk_bytes) % num_slices

    # The memory-op schedule as plain python lists (plain-int access
    # in the hot loop is much faster than numpy scalar extraction).
    sel = order[kind[order] != OP_COMPUTE]
    sched_sm = op_sm[sel].tolist()
    run = partial(_replay_ops, kind[sel].tolist(), sched_sm,
                  compiled.op_txn_ptr[sel].tolist(),
                  compiled.op_txn_ptr[sel + 1].tolist(),
                  compiled.txn_line.tolist(), compiled.txn_mask.tolist(),
                  routes.tolist(), sms, slices, queue.drain)
    if flame is None:
        run(0, len(sched_sm))
    else:
        roots = [flame.wrap_root(f"sm{sm.sm_id}.step", run) for sm in sms]
        for i, sm_index in enumerate(sched_sm):
            roots[sm_index](i, i + 1)

    for i, sm in enumerate(sms):
        sm.flush(int(instructions[i]), int(loads[i]), int(stores[i]),
                 int(atomics[i]), int(load_txns[i]), int(store_txns[i]))
    queue.drain()


def _replay_ops(kinds: List[int], sms_of: List[int], starts: List[int],
                ends: List[int], tl: List[int], tm: List[int],
                rt: List[int], sms: List[FunctionalSm], slices: List,
                drain: Callable[[], None], lo: int, hi: int) -> None:
    """The hot loop of :func:`replay_columnar`: memory ops ``lo..hi``
    of the schedule (op kind, SM and transaction range per op; line,
    sector mask and slice per transaction)."""
    from repro.gpu.columnar import OP_ATOMIC, OP_LOAD

    for i in range(lo, hi):
        sm = sms[sms_of[i]]
        k = kinds[i]
        s = starts[i]
        e = ends[i]
        if k == OP_LOAD:
            sets = sm.sets
            nsets = sm.num_sets
            pending = sm.pending
            mshr_entries = sm.mshr_entries
            missed = False
            for t in range(s, e):
                line = tl[t]
                mask = tm[t]
                sd = sets[line % nsets]
                while True:
                    ent = sd.get(line)
                    if ent is None:
                        sm.line_misses += 1
                        sm.line_miss_sectors += mask.bit_count()
                        miss = mask
                    else:
                        valid = ent[0]
                        hit = mask & valid
                        miss = mask & ~valid
                        if hit:
                            sm.hits += hit.bit_count()
                            sd.move_to_end(line)
                        if not miss:
                            break
                        sm.sector_misses += miss.bit_count()
                    if len(pending) < mshr_entries:
                        sm.mshr_allocs += 1
                        pending[line] = miss
                        missed = True
                        slices[rt[t]].receive_load(line, miss,
                                                   partial(sm.fill, line))
                        break
                    # A full MSHR file stalls like the event SM: drain
                    # (every pending fill lands), then redo the lookup.
                    sm.mshr_full_stalls += 1
                    drain()
                    if pending:
                        raise SimulationError(_UNFILLED)
            if missed:
                drain()
                if pending:
                    raise SimulationError(_UNFILLED)
        else:  # OP_STORE / OP_ATOMIC
            release = sm.release
            atomic = k == OP_ATOMIC
            for t in range(s, e):
                if sm.credits >= sm.store_buffer:
                    sm.store_rejections += 1
                    drain()
                    if sm.credits >= sm.store_buffer:
                        sm.store_rejections += 1
                        raise SimulationError(_NO_CREDIT)
                sm.credits += 1
                line = tl[t]
                mask = tm[t]
                if atomic:
                    ent = sm.sets[line % sm.num_sets].get(line)
                    if ent is not None:
                        ent[0] &= ~mask  # L1 copy is now stale
                    slices[rt[t]].receive_atomic(line, mask, release)
                else:  # write-through, no-allocate: L1 untouched
                    slices[rt[t]].receive_store(line, mask, release)
            drain()


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
