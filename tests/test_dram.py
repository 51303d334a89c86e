"""Unit tests for the DRAM substrate: timing, channel, layout."""

import pytest

from repro.dram.channel import MemoryChannel, RequestKind
from repro.dram.layout import InlineEccLayout
from repro.dram.timing import DramTiming
from repro.protection.base import METADATA_BASE
from repro.sim.engine import Simulator


def make_channel(sim=None, **timing_overrides):
    sim = sim or Simulator()
    timing = DramTiming(refresh_enabled=False, **timing_overrides)
    return sim, MemoryChannel("ch", sim, timing)


def read(addr, cb=None, atoms=1):
    """``enqueue`` arguments of a data read."""
    return addr, False, RequestKind.DATA, cb, atoms


def write(addr, cb=None, atoms=1):
    """``enqueue`` arguments of a writeback."""
    return addr, True, RequestKind.WRITEBACK, cb, atoms


class TestTiming:
    def test_derived_latencies(self):
        t = DramTiming()
        assert t.row_hit_latency == t.t_cl + t.t_burst
        assert t.row_miss_latency == t.t_rp + t.t_rcd + t.t_cl + t.t_burst

    def test_validation(self):
        with pytest.raises(ValueError):
            DramTiming(t_cl=0)
        with pytest.raises(ValueError):
            DramTiming(banks=0)


class TestChannelLatency:
    def test_cold_read_pays_row_miss(self):
        sim, ch = make_channel()
        done = []
        ch.enqueue(*read(0, cb=lambda: done.append(sim.now)))
        sim.run()
        t = ch.timing
        assert done[0] == t.t_rcd + t.t_cl + t.t_burst

    def test_row_hit_follows_faster(self):
        sim, ch = make_channel()
        times = []
        ch.enqueue(*read(0, cb=lambda: times.append(sim.now)))
        ch.enqueue(*read(32, cb=lambda: times.append(sim.now)))
        sim.run()
        first, second = times
        assert second - first <= ch.timing.t_burst + 2
        flat = ch.stats.flatten()
        assert flat["ch.row_hits"] == 1
        assert flat["ch.row_misses"] == 1

    def test_row_conflict_pays_precharge(self):
        sim, ch = make_channel()
        times = []
        row_span = ch.timing.row_bytes * ch.timing.banks
        ch.enqueue(*read(0, cb=lambda: times.append(sim.now)))
        sim.run()
        ch.enqueue(*read(row_span, cb=lambda: times.append(sim.now)))
        sim.run()
        conflict_latency = times[1] - times[0]
        assert conflict_latency >= ch.timing.t_rp + ch.timing.t_rcd

    def test_multi_atom_burst(self):
        sim, ch = make_channel()
        times = []
        ch.enqueue(*read(0, cb=lambda: times.append(sim.now), atoms=4))
        sim.run()
        assert times[0] == ch.timing.t_rcd + ch.timing.t_cl \
            + 4 * ch.timing.t_burst


class TestChannelBehaviour:
    def test_posted_write_acks_immediately(self):
        sim, ch = make_channel()
        acked = []
        ch.enqueue(*write(0, cb=lambda: acked.append(sim.now)))
        sim.run(until=1)
        assert acked and acked[0] == 0

    def test_bank_parallelism_beats_single_bank(self):
        def total_time(addrs):
            sim, ch = make_channel()
            for a in addrs:
                ch.enqueue(*read(a))
            return sim.run()

        same_bank = [i * 2048 * 16 for i in range(8)]   # all bank 0
        spread = [i * 2048 for i in range(8)]           # 8 banks
        assert total_time(spread) < total_time(same_bank)

    def test_fr_fcfs_prefers_row_hit(self):
        sim, ch = make_channel()
        order = []
        ch.enqueue(*read(0, cb=lambda: order.append("miss-open")))
        sim.run()  # row 0 of bank 0 now open
        ch.enqueue(*read(2048 * 16, cb=lambda: order.append("conflict")))
        ch.enqueue(*read(64, cb=lambda: order.append("hit")))
        sim.run()
        assert order == ["miss-open", "hit", "conflict"]

    def test_traffic_accounting_by_kind(self):
        sim, ch = make_channel()
        ch.enqueue(*read(0))
        ch.enqueue(64, False, RequestKind.METADATA)
        ch.enqueue(*write(128, atoms=2))
        sim.run()
        by_kind = ch.bytes_by_kind()
        assert by_kind["data"] == 32
        assert by_kind["metadata"] == 32
        assert by_kind["writeback"] == 64
        assert ch.total_bytes == 128

    def test_turnaround_penalty_on_rw_switch(self):
        sim, ch = make_channel()
        times = []
        ch.enqueue(*write(0))
        sim.run()  # the write issues (no reads pending)
        # Read a *different* bank so the open-row the write left behind
        # cannot mask the bus-turnaround cost.
        ch.enqueue(*read(2048, cb=lambda: times.append(sim.now)))
        start = sim.now
        sim.run()
        sim2, ch2 = make_channel()
        times2 = []
        ch2.enqueue(*read(2048, cb=lambda: times2.append(sim2.now)))
        sim2.run()
        assert times[0] - start > times2[0]

    def test_reads_preferred_over_writes(self):
        sim, ch = make_channel()
        order = []
        ch.enqueue(*write(0, cb=None))
        ch.enqueue(*read(2048, cb=lambda: order.append("read")))
        sim.run()
        flat = ch.stats.flatten()
        assert order == ["read"]
        assert flat["ch.reads"] == 1 and flat["ch.writes"] == 1

    def test_write_drain_on_high_watermark(self):
        sim, ch = make_channel()
        # Saturate writes while a steady read stream exists.
        for i in range(ch.WRITE_HI + 8):
            ch.enqueue(*write(i * 64))
        done = []
        ch.enqueue(*read(0, cb=lambda: done.append(sim.now)))
        sim.run()
        assert done  # reads still complete despite the write burst
        assert ch.queue_depth == 0

    def test_refresh_blocks_banks(self):
        sim = Simulator()
        timing = DramTiming(refresh_enabled=True, t_refi=200, t_rfc=100)
        ch = MemoryChannel("ch", sim, timing)
        done = []
        ch.enqueue(*read(0, cb=lambda: done.append(sim.now)))
        sim.run()
        # Advance past a refresh interval, then issue another request.
        sim.schedule_at(250, lambda: ch.enqueue(
            *read(64, cb=lambda: done.append(sim.now))))
        sim.run()
        flat = ch.stats.flatten()
        assert flat["ch.refreshes"] >= 1
        assert done[1] >= 350  # blocked behind the 100-cycle blackout


class TestChannelLocal:
    """The slice-interleave squeeze a channel applies to each global
    address before decoding it (1 KiB chunks)."""

    @staticmethod
    def _channel(channels=4):
        return MemoryChannel("ch", Simulator(),
                             DramTiming(refresh_enabled=False),
                             channels=channels, chunk_bytes=1024,
                             metadata_base=METADATA_BASE)

    def test_data_addresses_compress_per_slice(self):
        # Chunks 0, 4 and 8 belong to slice 0 and must map to
        # consecutive local chunks.
        ch = self._channel()
        assert [ch.to_channel_local(i * 4 * 1024) for i in range(3)] \
            == [0, 1024, 2048]

    def test_metadata_stays_above_data(self):
        local = self._channel().to_channel_local(METADATA_BASE + 4096)
        assert local > 1 << 28
        assert local % 32 == 0

    def test_single_slice_identity(self):
        assert self._channel(channels=1).to_channel_local(12345) == 12345

    def test_channel_local_preserves_sector_alignment(self):
        ch = self._channel(channels=2)
        for addr in (0, 32, 1024, 4096 + 64, METADATA_BASE + 320):
            assert ch.to_channel_local(addr) % 32 == addr % 32 \
                or addr >= METADATA_BASE
        assert ch.to_channel_local(METADATA_BASE + 320) % 32 == 0


class TestInlineLayout:
    def test_coverage_arithmetic(self):
        layout = InlineEccLayout(granule_bytes=128, meta_per_granule=2)
        assert layout.granules_per_meta_atom == 16
        assert layout.data_per_meta_atom == 2048
        assert layout.capacity_overhead == pytest.approx(2 / 128)

    def test_granule_mapping(self):
        layout = InlineEccLayout(granule_bytes=128, meta_per_granule=2)
        assert layout.granule_of(0) == 0
        assert layout.granule_of(127) == 0
        assert layout.granule_of(128) == 1
        assert layout.granule_base(3) == 384

    def test_metadata_addresses_dense_and_aligned(self):
        layout = InlineEccLayout(granule_bytes=128, meta_per_granule=2)
        assert layout.metadata_addr(0) == layout.metadata_base
        assert layout.metadata_addr(1) == layout.metadata_base + 2
        atom = layout.metadata_atom(17)
        assert atom % 32 == 0
        assert atom >= layout.metadata_base

    def test_neighbouring_granules_share_atom(self):
        layout = InlineEccLayout(granule_bytes=128, meta_per_granule=2)
        assert layout.metadata_atom(0) == layout.metadata_atom(15)
        assert layout.metadata_atom(0) != layout.metadata_atom(16)

    def test_metadata_region_guard(self):
        layout = InlineEccLayout()
        assert layout.is_metadata(layout.metadata_base)
        assert not layout.is_metadata(1 << 20)
        with pytest.raises(ValueError):
            layout.granule_of(layout.metadata_base + 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            InlineEccLayout(granule_bytes=100)
        with pytest.raises(ValueError):
            InlineEccLayout(meta_per_granule=3)  # must divide the atom

    def test_sectors_per_granule(self):
        assert InlineEccLayout(granule_bytes=256).sectors_per_granule(32) == 8
