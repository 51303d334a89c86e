"""Property-based tests for the DRAM channels and the coalescer."""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.channel import MemoryChannel, RequestKind
from repro.dram.timing import DramTiming
from repro.gpu.coalescer import coalesce
from repro.sim.engine import Simulator
from repro.sim.functional import FunctionalChannel, ImmediateQueue


@st.composite
def request_batches(draw):
    """A batch of (addr, is_write, enqueue_delay) requests."""
    n = draw(st.integers(1, 40))
    return [
        (draw(st.integers(0, 1 << 22)) // 32 * 32,
         draw(st.booleans()),
         draw(st.integers(0, 200)))
        for _ in range(n)
    ]


@given(request_batches())
@settings(max_examples=60, deadline=None)
def test_channel_serves_everything_causally(batch):
    """Every read completes, no earlier than it was enqueued plus the
    minimum access latency, and the queue fully drains."""
    sim = Simulator()
    channel = MemoryChannel("ch", sim, DramTiming(refresh_enabled=False))
    completions = {}

    def submit(addr, is_write, idx):
        def done(i=idx):
            completions[i] = sim.now
        channel.enqueue(addr, is_write, RequestKind.DATA,
                        None if is_write else done)

    enqueue_times = {}
    for idx, (addr, is_write, delay) in enumerate(batch):
        enqueue_times[idx] = delay
        sim.schedule(delay, submit, addr, is_write, idx)
    sim.run()

    timing = channel.timing
    for idx, (addr, is_write, _delay) in enumerate(batch):
        if is_write:
            continue
        assert idx in completions, "read never completed"
        latency = completions[idx] - enqueue_times[idx]
        assert latency >= timing.t_cl + timing.t_burst
    assert channel.queue_depth == 0


@given(request_batches())
@settings(max_examples=40, deadline=None)
def test_channel_bus_conservation(batch):
    """Total run time cannot be shorter than the pure data-bus time of
    everything transferred."""
    sim = Simulator()
    channel = MemoryChannel("ch", sim, DramTiming(refresh_enabled=False))
    for addr, is_write, delay in batch:
        sim.schedule(delay, channel.enqueue, addr, is_write,
                     RequestKind.DATA)
    end = sim.run()
    atoms = channel.total_bytes // channel.atom_bytes
    assert end >= atoms * channel.timing.t_burst


@given(request_batches())
@settings(max_examples=40, deadline=None)
def test_traffic_accounting_is_exact(batch):
    sim = Simulator()
    channel = MemoryChannel("ch", sim, DramTiming(refresh_enabled=False))
    for addr, is_write, _delay in batch:
        channel.enqueue(addr, is_write, RequestKind.DATA)
    sim.run()
    assert channel.total_bytes == len(batch) * 32
    flat = channel.stats.flatten()
    assert flat["ch.reads"] + flat["ch.writes"] == len(batch)
    assert flat["ch.row_hits"] + flat["ch.row_misses"] == len(batch)


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
@settings(max_examples=100)
def test_coalescer_covers_exactly_the_touched_sectors(addresses):
    """Union of transaction sector masks == the distinct sectors the
    addresses touch; no transaction is empty; lines are unique."""
    txns = coalesce(addresses)
    expected = {(a // 128, (a % 128) // 32) for a in addresses}
    produced = set()
    lines = [line for line, _mask in txns]
    assert len(lines) == len(set(lines))
    for line, mask in txns:
        assert mask != 0
        for sector in range(4):
            if mask & (1 << sector):
                produced.add((line, sector))
    assert produced == expected


@st.composite
def access_streams(draw):
    """``(addr, is_write, kind, atoms, has_callback)`` accesses."""
    n = draw(st.integers(1, 50))
    return [(draw(st.integers(0, 1 << 22)) // 32 * 32, draw(st.booleans()),
             draw(st.sampled_from(list(RequestKind))), draw(st.integers(1, 4)),
             draw(st.booleans()))
            for _ in range(n)]


@given(access_streams())
@settings(max_examples=60, deadline=None)
def test_both_channels_account_one_stream_alike(stream):
    """The timed and the functional channel count the same bytes per
    kind (in the same key order) and the same read and write atoms, and
    fire every callback exactly once; the functional queue fires them
    in enqueue order."""
    sim = Simulator()
    timed = MemoryChannel("ch", sim, DramTiming(refresh_enabled=False))
    queue = ImmediateQueue()
    functional = FunctionalChannel("ch", queue)
    fired = {timed: [], functional: []}
    for idx, (addr, is_write, kind, atoms, has_callback) in enumerate(stream):
        for channel in (timed, functional):
            callback = partial(fired[channel].append, idx) \
                if has_callback else None
            channel.enqueue(addr, is_write, kind, callback, atoms)
    sim.run()
    queue.drain()

    assert list(timed.bytes_by_kind().items()) \
        == list(functional.bytes_by_kind().items())
    for name in ("reads", "writes"):
        assert timed.stats.get(name).value \
            == functional.stats.get(name).value
    assert timed.stats.get("reads").value \
        == sum(atoms for _a, is_write, _k, atoms, _c in stream if not is_write)
    expected = [idx for idx, access in enumerate(stream) if access[4]]
    assert fired[functional] == expected
    assert sorted(fired[timed]) == expected


class _RescanningChannel(MemoryChannel):
    """The scheduler before the soonest-ready fold: when nothing is
    issuable, the wake time comes from a fresh scan of both queue
    windows.  The reference the fold must match decision for
    decision."""

    def _tick(self):
        self._wakeup_scheduled = False
        now = self.sim.now
        self._maybe_refresh(now)
        if now < self._idle_until:
            self._wake(self._idle_until - now)
            return
        while self._read_q or self._write_q:
            self._update_mode()
            queue = self._write_q if self._write_mode else self._read_q
            chosen = self._choose(queue, now)
            if chosen is None:
                self._sleep_until_ready(now)
                return
            self._issue(chosen, now)
            now = self.sim.now

    def _choose(self, queue, now):
        best_idx = -1
        banks = self._banks
        limit = min(len(queue), self.SCHED_WINDOW)
        for idx in range(limit):
            req = queue[idx]
            bank = banks[req.bank]
            if bank.ready_at > now:
                continue
            if bank.open_row == req.row:
                best_idx = idx
                break  # oldest row hit wins
            if best_idx < 0:
                best_idx = idx
        if best_idx < 0:
            return None
        return queue.pop(best_idx)

    def _sleep_until_ready(self, now):
        banks = self._banks
        pending = (self._read_q[: self.SCHED_WINDOW]
                   + self._write_q[: self.SCHED_WINDOW])
        soonest = min(banks[r.bank].ready_at for r in pending)
        self._idle_until = soonest
        self._wake(max(1, soonest - now))


class _UnmemoizedChannel(MemoryChannel):
    """A channel whose memos are always invalid: every tick rescans
    the queues."""

    def _sleep_until_ready(self, *args):
        super()._sleep_until_ready(*args)
        self._chosen_until = self._idle_until = 0


#: Refreshes every 100 cycles, so blackouts land on idle ticks too.
REFRESHING = DramTiming(t_refi=100, t_rfc=30)


@st.composite
def contended_batches(draw):
    """Dense (addr, is_write, enqueue_delay) streams over four banks
    and four rows each: row conflicts keep the scheduler idle between
    issues while new requests keep arriving."""
    timing = REFRESHING
    n = draw(st.integers(1, 60))
    return [
        (((draw(st.integers(0, 3)) * timing.banks + draw(st.integers(0, 3)))
          * timing.row_bytes + draw(st.integers(0, 63)) * 32),
         draw(st.booleans()),
         draw(st.integers(0, 120)))
        for _ in range(n)
    ]


@st.composite
def deep_bursts(draw):
    """Bursts of reads and writes on 4-8 banks, the first at cycle 0
    with more of each than :attr:`MemoryChannel.SCHED_WINDOW`, so both
    queues outgrow the scheduler's window."""
    timing = REFRESHING
    window = MemoryChannel.SCHED_WINDOW
    banks = draw(st.integers(4, 8))
    batch = []
    for burst in range(draw(st.integers(1, 4))):
        at = 0 if burst == 0 else draw(st.integers(0, 400))
        low = window + 1 if burst == 0 else 0
        for is_write in (False, True):
            for _ in range(draw(st.integers(low, window + 24))):
                addr = ((draw(st.integers(0, 3)) * timing.banks
                         + draw(st.integers(0, banks - 1))) * timing.row_bytes
                        + draw(st.integers(0, 63)) * 32)
                batch.append((addr, is_write, at))
    return batch


def _issue_log(channel_cls, batch, memo_hits=None, depths=None,
               chosen_hits=None, refreshed=None):
    """Run ``batch`` through a fresh channel; returns every issue as
    ``(cycle, addr, is_write)`` plus the clock, event count and stats.
    ``memo_hits`` collects the cycles of ticks that found either memo
    valid, ``depths`` the shorter queue's length at each tick.
    ``chosen_hits`` collects the cycles of ticks that take the
    chosen-window memo alone (past the wake time, before the chosen
    window's soonest bank-ready cycle, no refresh due), ``refreshed``
    those whose refresh drops a chosen-window memo that was valid."""
    sim = Simulator()
    channel = channel_cls("ch", sim, REFRESHING)
    issued = []
    issue = channel._issue
    tick = channel._tick

    def logged(req, now):
        issued.append((now, req.addr, req.is_write))
        issue(req, now)

    def counted():
        now = sim.now
        if memo_hits is not None and now < channel._chosen_until:
            memo_hits.append(now)
        if channel._idle_until <= now < channel._chosen_until:
            due = channel._next_refresh is not None \
                and now >= channel._next_refresh
            if due and refreshed is not None:
                refreshed.append(now)
            if not due and chosen_hits is not None:
                chosen_hits.append(now)
        if depths is not None:
            depths.append(min(len(channel._read_q), len(channel._write_q)))
        tick()
    channel._issue = logged
    channel._tick = counted

    for addr, is_write, delay in batch:
        sim.schedule(delay, channel.enqueue, addr, is_write, RequestKind.DATA)
    sim.run()
    return issued, sim.now, sim.events_executed, channel.stats.flatten()


@given(contended_batches())
@settings(max_examples=150, deadline=None)
def test_idle_until_memo_changes_no_decision(batch):
    """Random read/write streams under frequent refreshes issue in the
    same order at the same cycles whether or not idle ticks reuse the
    memo, and leave the same clock, event count and counters; both
    equal the rescanning scheduler's."""
    unmemoized_hits = []
    memoized = _issue_log(MemoryChannel, batch)
    assert memoized == _issue_log(_UnmemoizedChannel, batch, unmemoized_hits)
    assert unmemoized_hits == []
    assert memoized == _issue_log(_RescanningChannel, batch)


@given(deep_bursts())
@settings(max_examples=60, deadline=None)
def test_soonest_ready_fold_matches_rescanning_scheduler(batch):
    """With both queues deeper than the scheduler's window, under a
    refresh every 100 cycles, folding the soonest bank-ready cycle into
    the FR-FCFS scan issues exactly as rescanning both windows did:
    same issue log, clock, event count and counters."""
    depths = []
    folded = _issue_log(MemoryChannel, batch, depths=depths)
    assert max(depths) > MemoryChannel.SCHED_WINDOW
    assert folded == _issue_log(_RescanningChannel, batch)


def test_fold_reads_the_whole_other_window():
    """In write mode the wake time still reads every bank in the read
    queue's window, the last slot included: here only read 31 sits on
    an idle bank, so the channel must wake the next cycle."""
    timing = REFRESHING

    def addr(bank, row):
        return (row * timing.banks + bank) * timing.row_bytes

    window = MemoryChannel.SCHED_WINDOW
    batch = ([(addr(0, 0), False, 0)]          # keeps bank 0 busy at 1
             + [(addr(0, 1 + i % 3), False, 1) for i in range(window - 1)]
             + [(addr(1, 0), False, 1)]
             + [(addr(2, i % 2), True, 1)
                for i in range(MemoryChannel.WRITE_HI + 6)])
    folded = _issue_log(MemoryChannel, batch)
    assert folded == _issue_log(_RescanningChannel, batch)


def test_idle_ticks_reuse_the_memo():
    """Row conflicts on one bank leave the scheduler idle between
    issues, across several refreshes; those ticks take the memo and
    still issue identically."""
    batch = [(i * 4 * REFRESHING.row_bytes * REFRESHING.banks, i % 3 == 0, 0)
             for i in range(24)]
    hits, unmemoized_hits = [], []
    memoized = _issue_log(MemoryChannel, batch, hits)
    assert memoized == _issue_log(_UnmemoizedChannel, batch, unmemoized_hits)
    assert memoized == _issue_log(_RescanningChannel, batch)
    assert memoized[3]["ch.refreshes"] > 1
    assert len(hits) > 5
    assert unmemoized_hits == []


def test_chosen_window_memo_in_a_write_drain():
    """A write drain whose writes queue on one busy bank while the read
    window holds a ready bank: a failed scan wakes the next cycle, and
    until the write bank frees up those ticks take the chosen-window
    memo instead of rescanning, across a refresh inside such a stretch
    and around writes that arrive on an idle bank meanwhile.  Issue
    log, clock, event count and counters equal the rescanning and the
    unmemoized schedulers'."""
    timing = REFRESHING

    def addr(bank, row):
        return (row * timing.banks + bank) * timing.row_bytes

    batch = ([(addr(1, 0), False, 0)] * 4
             + [(addr(0, i % 2), True, 0)
                for i in range(MemoryChannel.WRITE_HI + 4)]
             + [(addr(2, 0), True, at) for at in (20, 45, 160, 250)])
    chosen, refreshed, unmemoized_hits = [], [], []
    memoized = _issue_log(MemoryChannel, batch, chosen_hits=chosen,
                          refreshed=refreshed)
    assert memoized == _issue_log(_UnmemoizedChannel, batch,
                                  unmemoized_hits)
    assert memoized == _issue_log(_RescanningChannel, batch)
    assert unmemoized_hits == []
    assert len(chosen) > 50
    assert refreshed
