"""Property-based tests for the DRAM channel and the coalescer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.channel import DramRequest, MemoryChannel, RequestKind
from repro.dram.timing import DramTiming
from repro.gpu.coalescer import coalesce
from repro.sim.engine import Simulator


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
        channel.enqueue(DramRequest(addr, is_write, RequestKind.DATA,
                                    callback=None if is_write else done))

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
        sim.schedule(delay, channel.enqueue,
                     DramRequest(addr, is_write, RequestKind.DATA))
    end = sim.run()
    atoms = channel.total_bytes // channel.atom_bytes
    assert end >= atoms * channel.timing.t_burst


@given(request_batches())
@settings(max_examples=40, deadline=None)
def test_traffic_accounting_is_exact(batch):
    sim = Simulator()
    channel = MemoryChannel("ch", sim, DramTiming(refresh_enabled=False))
    for addr, is_write, _delay in batch:
        channel.enqueue(DramRequest(addr, is_write, RequestKind.DATA))
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


class _UnmemoizedChannel(MemoryChannel):
    """A channel whose idle-until memo is always invalid: every tick
    rescans the queues."""

    def _sleep_until_ready(self, now):
        super()._sleep_until_ready(now)
        self._idle_until = 0


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


def _issue_log(channel_cls, batch, memo_hits=None):
    """Run ``batch`` through a fresh channel; returns every issue as
    ``(cycle, addr, is_write)`` plus the clock, event count and stats.
    ``memo_hits`` collects the cycles of ticks that found the memo
    valid."""
    sim = Simulator()
    channel = channel_cls("ch", sim, REFRESHING)
    issued = []
    issue = channel._issue
    tick = channel._tick

    def logged(req, now):
        issued.append((now, req.addr, req.is_write))
        issue(req, now)

    def counted():
        if memo_hits is not None and sim.now < channel._idle_until:
            memo_hits.append(sim.now)
        tick()
    channel._issue = logged
    channel._tick = counted

    for addr, is_write, delay in batch:
        sim.schedule(delay, channel.enqueue,
                     DramRequest(addr, is_write, RequestKind.DATA))
    sim.run()
    return issued, sim.now, sim.events_executed, channel.stats.flatten()


@given(contended_batches())
@settings(max_examples=150, deadline=None)
def test_idle_until_memo_changes_no_decision(batch):
    """Random read/write streams under frequent refreshes issue in the
    same order at the same cycles whether or not idle ticks reuse the
    memo, and leave the same clock, event count and counters."""
    assert _issue_log(MemoryChannel, batch) \
        == _issue_log(_UnmemoizedChannel, batch)


def test_idle_ticks_reuse_the_memo():
    """Row conflicts on one bank leave the scheduler idle between
    issues, across several refreshes; those ticks take the memo and
    still issue identically."""
    batch = [(i * 4 * REFRESHING.row_bytes * REFRESHING.banks, i % 3 == 0, 0)
             for i in range(24)]
    hits = []
    memoized = _issue_log(MemoryChannel, batch, hits)
    assert memoized == _issue_log(_UnmemoizedChannel, batch)
    assert memoized[3]["ch.refreshes"] > 1
    assert len(hits) > 5
