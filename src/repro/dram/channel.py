"""One memory channel: banks, FR-FCFS scheduling, shared data bus.

The channel accepts 32 B-atom read/write requests and calls each
request's callback at data-return time.  Scheduling is first-ready
FCFS: among requests whose bank can accept a command *now*, row hits
beat row misses, then age; when nothing is issuable the channel sleeps
until the earliest bank frees up.

Writes are *posted*: the issuer's callback (if any) fires when the
write is accepted into the queue, but the write still competes for
bank/bus time — so write traffic degrades read latency, which is the
effect that matters.

Every request carries a :class:`RequestKind` so the traffic experiment
(F2) can split DRAM bytes into data / metadata / verification-fill /
writeback components without the protection layer owning counters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.dram.timing import DramTiming
from repro.sim.engine import Simulator
from repro.sim.stats import StatGroup


class RequestKind(enum.Enum):
    """Why a DRAM access happened — the traffic-breakdown dimension."""

    DATA = "data"                  # demand data fetch
    METADATA = "metadata"          # ECC/tag metadata fetch
    VERIFY_FILL = "verify_fill"    # extra data fetched only to verify a granule
    WRITEBACK = "writeback"        # dirty data eviction
    METADATA_WRITE = "metadata_write"  # metadata update on writeback
    RETRY = "retry"                # recovery replay of a DUE granule

    # Members are singletons, so identity hashing is exact, and it
    # spares every per-kind byte count Enum's Python-level __hash__.
    __hash__ = object.__hash__


class _Bank:
    __slots__ = ("ready_at", "open_row", "last_activate")

    def __init__(self) -> None:
        self.ready_at = 0
        self.open_row = -1
        self.last_activate = -(1 << 30)


@dataclass(slots=True)
class DramRequest:
    """One queued access of :class:`MemoryChannel`, which builds it."""

    addr: int
    is_write: bool
    kind: RequestKind
    callback: Optional[Callable[[], None]] = None
    #: Number of consecutive atoms (same row unless it crosses one).
    atoms: int = 1
    enqueue_time: int = 0
    # Decoded coordinates (scheduler hot path).
    bank: int = 0
    row: int = 0
    #: The channel's state of bank ``bank``, which the scheduler reads
    #: straight from the request.
    bank_state: Optional[_Bank] = None


class MemoryChannel:
    """Event-driven FR-FCFS memory channel with write draining.

    Reads and writes live in separate queues.  Reads are served
    preferentially; writes accumulate until the high watermark (or
    until no reads are pending) and then drain in a batch down to the
    low watermark — the standard controller policy that amortizes the
    read/write bus turnaround.
    """

    #: Cap on how many queued requests the scheduler scans per decision.
    SCHED_WINDOW = 32
    #: Write-drain watermarks.
    WRITE_HI = 24
    WRITE_LO = 8

    def __init__(self, name: str, sim: Simulator, timing: DramTiming,
                 stats: Optional[StatGroup] = None, atom_bytes: int = 32,
                 channels: int = 1, chunk_bytes: int = 4096,
                 metadata_base: int = 0):
        self.name = name
        self.sim = sim
        self.timing = timing
        self.atom_bytes = atom_bytes
        #: The slice interleave :meth:`to_channel_local` squeezes out:
        #: ``channels`` channels take turns every ``chunk_bytes`` of
        #: data, and the metadata region from ``metadata_base`` on is
        #: split evenly among them.  One attribute: past 30 instance
        #: attributes CPython stops sharing the instance dict's keys,
        #: which slows every attribute access of the scheduler.
        self._interleave = (channels, chunk_bytes, metadata_base)
        #: The ``dram``-category tracer, set by
        #: :meth:`repro.obs.hub.Observability.attach`.
        self._tracer = None
        self._trace_tid = int(name[4:]) if name.startswith("dram") \
            and name[4:].isdigit() else 0
        self._banks = [_Bank() for _ in range(timing.banks)]
        self._read_q: List[DramRequest] = []
        self._write_q: List[DramRequest] = []
        self._write_mode = False
        self._bus_free_at = 0
        self._last_was_write = False
        self._wakeup_scheduled = False
        #: Memos of the last failed FR-FCFS scan, valid until a request
        #: arrives or issues or a refresh fires (each resets both to 0).
        #: ``_chosen_until`` is the soonest bank-ready cycle of the
        #: window the scan chose from; ``_idle_until`` is the soonest of
        #: both windows, the scan's wake time.  A tick before
        #: ``_chosen_until`` can neither issue nor change mode, so it
        #: only books the wake that scan would book.
        self._chosen_until = 0
        self._idle_until = 0
        self._next_refresh = timing.t_refi if timing.refresh_enabled else None
        #: Opt-in per-bank row-locality view; set exclusively by
        #: :class:`repro.obs.inspect.MemoryInspector`.  The hook in
        #: :meth:`_issue` guards on it, so disabled runs only pay one
        #: None-check and every counter stays bit-identical.
        self._insp = None

        group = stats.child(name) if stats is not None else StatGroup(name)
        self.stats = group
        self._reads = group.counter("reads")
        self._writes = group.counter("writes")
        self._row_hits = group.counter("row_hits")
        self._row_misses = group.counter("row_misses")
        self._refreshes = group.counter("refreshes")
        self._queue_latency = group.histogram(
            "read_latency", [50, 100, 200, 400, 800, 1600])
        #: Cycles the shared data bus spent transferring (utilization
        #: numerator for the sampler and the profile report).
        self._busy = group.counter("bus_busy_cycles")
        #: Last-observed queue depths (occupancy-style, hence gauges).
        self._read_depth = group.gauge("read_queue_depth")
        self._write_depth = group.gauge("write_queue_depth")
        self._bytes_by_kind: Dict[RequestKind, int] = {k: 0 for k in RequestKind}

    # -- public interface ---------------------------------------------------

    def to_channel_local(self, addr: int) -> int:
        """Squeeze the slice-interleave bits out of a global address so
        this channel sees a dense local address space (keeps the DRAM
        row model honest)."""
        channels, chunk, base = self._interleave
        if channels == 1:
            return addr
        if addr >= base:
            local = base // channels + (addr - base) // channels
            return local - (local % self.atom_bytes)
        return (addr // chunk // channels) * chunk + (addr % chunk)

    def enqueue(self, addr: int, is_write: bool, kind: RequestKind,
                callback: Optional[Callable[[], None]] = None,
                atoms: int = 1) -> None:
        """Submit ``atoms`` consecutive atoms at global address ``addr``.
        A read's callback fires at data-return time; a write is posted,
        so its callback (if any) fires at once.

        The channel-local address (:meth:`to_channel_local`) decodes as
        ``row | bank | column``: the bank bits sit just above the row's
        column bits, so consecutive rows of one stream land in
        different banks."""
        addr = self.to_channel_local(addr)
        banks = self.timing.banks
        frame = addr // self.timing.row_bytes
        bank = frame % banks
        self._chosen_until = self._idle_until = 0
        self._bytes_by_kind[kind] += atoms * self.atom_bytes
        if is_write:
            self._writes.value += atoms
            # Posted write: ack immediately, keep competing for bank time.
            if callback is not None:
                self.sim.schedule(0, callback)
                callback = None
            queue = self._write_q
        else:
            self._reads.value += atoms
            queue = self._read_q
        queue.append(DramRequest(addr, is_write, kind, callback, atoms,
                                 self.sim.now, bank, frame // banks,
                                 self._banks[bank]))
        self._read_depth.value = len(self._read_q)
        self._write_depth.value = len(self._write_q)
        self._wake(0)

    def bytes_by_kind(self) -> Dict[str, int]:
        """Traffic totals keyed by kind value (for F2)."""
        return {k.value: v for k, v in self._bytes_by_kind.items()}

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes_by_kind.values())

    @property
    def queue_depth(self) -> int:
        return len(self._read_q) + len(self._write_q)

    # -- scheduling ----------------------------------------------------------

    def _wake(self, delay: int) -> None:
        if not self._wakeup_scheduled:
            self._wakeup_scheduled = True
            self.sim.schedule(delay, self._tick)

    def _update_mode(self) -> None:
        if self._write_mode:
            if not self._write_q or (self._read_q
                                     and len(self._write_q) <= self.WRITE_LO):
                self._write_mode = False
        else:
            if (not self._read_q and self._write_q) \
                    or len(self._write_q) >= self.WRITE_HI:
                self._write_mode = True

    def _tick(self) -> None:
        self._wakeup_scheduled = False
        now = self.sim.now
        self._maybe_refresh(now)
        if now < self._chosen_until:
            # Every bank of the chosen window is still busy and the
            # queues are as the failed scan left them: book its wake.
            self._wake(max(1, self._idle_until - now))
            return
        while self._read_q or self._write_q:
            self._update_mode()
            if self._write_mode:
                chosen = self._choose(self._write_q, self._read_q, now)
            else:
                chosen = self._choose(self._read_q, self._write_q, now)
            if chosen is None:
                return
            self._issue(chosen, now)
            now = self.sim.now  # unchanged; issue just books future times

    def _choose(self, queue: List[DramRequest], other: List[DramRequest],
                now: int) -> Optional[DramRequest]:
        """FR-FCFS over a bounded window of ``queue``: pops the oldest
        row hit among the requests whose bank is ready, else the oldest
        ready one.  With none ready the scan has read every bank's
        ready cycle in the window, so it sleeps until the soonest of
        those and of ``other``'s window, and returns None."""
        window = self.SCHED_WINDOW
        best_idx = -1
        soonest = _NEVER
        for idx, req in enumerate(queue if len(queue) <= window
                                  else queue[:window]):
            bank = req.bank_state
            ready = bank.ready_at
            if ready > now:
                if ready < soonest:
                    soonest = ready
                continue
            if bank.open_row == req.row:
                best_idx = idx
                break  # oldest row hit wins
            if best_idx < 0:
                best_idx = idx
        if best_idx < 0:
            self._sleep_until_ready(now, soonest, other)
            return None
        return queue.pop(best_idx)

    def _sleep_until_ready(self, now: int, soonest: int,
                           other: List[DramRequest]) -> None:
        """Record the chosen window's soonest bank-ready cycle
        (``soonest``) and that of both windows as the memos, and wake
        at the latter."""
        self._chosen_until = soonest
        window = self.SCHED_WINDOW
        for req in other if len(other) <= window else other[:window]:
            ready = req.bank_state.ready_at
            if ready < soonest:
                soonest = ready
        self._idle_until = soonest
        self._wake(max(1, soonest - now))

    def _issue(self, req: DramRequest, now: int) -> None:
        t = self.timing
        bank = req.bank_state
        self._chosen_until = self._idle_until = 0

        access_start = max(now, bank.ready_at, self._bus_free_at - t.t_cl)
        if bank.open_row == req.row:
            self._row_hits.value += 1
            if self._insp is not None:
                self._insp.row_hits[req.bank] += 1
            cas_at = access_start
        else:
            self._row_misses.value += 1
            if self._insp is not None:
                # A different open row means a precharge (conflict); no
                # open row at all is a cold/closed-bank miss.
                (self._insp.row_conflicts if bank.open_row >= 0
                 else self._insp.row_misses)[req.bank] += 1
            precharge = t.t_rp if bank.open_row >= 0 else 0
            activate_at = access_start + precharge
            gap = bank.last_activate + t.t_rc - activate_at
            if gap > 0:
                activate_at += gap
            bank.last_activate = activate_at
            bank.open_row = req.row
            cas_at = activate_at + t.t_rcd

        data_start = cas_at + t.t_cl
        if self._last_was_write != req.is_write:
            data_start += t.t_turnaround
        self._last_was_write = req.is_write

        data_start = max(data_start, self._bus_free_at)
        data_end = data_start + t.t_burst * req.atoms
        self._bus_free_at = data_end
        self._busy.value += data_end - data_start
        self._read_depth.value = len(self._read_q)
        self._write_depth.value = len(self._write_q)
        if self._tracer is not None:
            self._tracer.complete(
                "dram", req.kind.value, req.enqueue_time,
                data_end - req.enqueue_time, tid=self._trace_tid,
                args={"bank": req.bank, "row": req.row, "atoms": req.atoms,
                      "write": req.is_write})
        # Column commands pipeline at t_CCD (~ the burst time): the bank
        # can accept its next command one burst after this CAS.  Writes
        # additionally observe write recovery before the row may close.
        if req.is_write:
            bank.ready_at = data_end + t.t_wr
        else:
            bank.ready_at = cas_at + t.t_burst * req.atoms

        if req.is_write:
            # Posted writes carry no callback, but the transfer must
            # still anchor simulated time: otherwise a run could "end"
            # before its trailing write drain has left the bus.
            self.sim.schedule_at(data_end, _noop)
        else:
            latency = data_end - req.enqueue_time
            self._queue_latency.record(latency)
            self.sim.schedule_at(data_end, req.callback or _noop)
        if self._read_q or self._write_q:
            self._wake(1)

    def _maybe_refresh(self, now: int) -> None:
        if self._next_refresh is None or now < self._next_refresh:
            return
        t = self.timing
        # Blackout: all banks unavailable for t_rfc, rows closed.
        end = now + t.t_rfc
        for bank in self._banks:
            bank.ready_at = max(bank.ready_at, end)
            bank.open_row = -1
        self._chosen_until = self._idle_until = 0
        self._refreshes.value += 1
        self._next_refresh = now + t.t_refi


#: Later than any bank-ready cycle: where the soonest-ready fold starts.
_NEVER = 1 << 62


def _noop() -> None:
    """Time anchor for posted write completions."""
