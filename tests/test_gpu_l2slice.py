"""Unit tests for the L2 slice (miss handling, grants, stores, flush)."""

import pytest

from repro.dram.channel import MemoryChannel
from repro.dram.timing import DramTiming
from repro.gpu.l2slice import L2Slice
from repro.protection.base import ProtectionContext, make_scheme
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


def make_slice(scheme_name="none", size_kb=64, **scheme_kwargs):
    sim = Simulator()
    scheme = make_scheme(scheme_name, **scheme_kwargs)
    layout = scheme.prepare(functional=False)
    channel = MemoryChannel("d0", sim, DramTiming(refresh_enabled=False))
    ctx = ProtectionContext(sim, layout, [channel], StatsRegistry(),
                            sector_bytes=32, line_bytes=128,
                            slice_chunk_bytes=1024)
    scheme.bind(ctx)
    slice_ = L2Slice(0, sim, scheme, size_bytes=size_kb * 1024)
    ctx.wire_l2([slice_])
    return sim, slice_, scheme, channel


class TestLoadPath:
    def test_miss_then_fill_then_respond(self):
        sim, sl, _sch, ch = make_slice()
        got = []
        sl.receive_load(5, 0b0011, got.append)
        sim.run()
        assert got == [0b0011]
        assert sl.resident_mask(5) == 0b0011
        assert ch.total_bytes == 64

    def test_hit_responds_without_dram(self):
        sim, sl, _sch, ch = make_slice()
        sl.receive_load(5, 0b0001, lambda m: None)
        sim.run()
        before = ch.total_bytes
        got = []
        sl.receive_load(5, 0b0001, got.append)
        sim.run()
        assert got == [0b0001]
        assert ch.total_bytes == before

    def test_partial_hit_fetches_only_missing(self):
        sim, sl, _sch, ch = make_slice()
        sl.receive_load(5, 0b0001, lambda m: None)
        sim.run()
        before = ch.total_bytes
        got = []
        sl.receive_load(5, 0b0011, got.append)
        sim.run()
        assert got == [0b0011]
        assert ch.total_bytes - before == 32  # one new sector only

    def test_concurrent_same_line_misses_merge(self):
        sim, sl, _sch, ch = make_slice()
        got = []
        sl.receive_load(9, 0b0001, lambda m: got.append(("a", m)))
        sl.receive_load(9, 0b0001, lambda m: got.append(("b", m)))
        sim.run()
        assert ("a", 1) in got and ("b", 1) in got
        assert ch.total_bytes == 32  # fetched once

    def test_merge_with_additional_sectors(self):
        sim, sl, _sch, ch = make_slice()
        got = []
        sl.receive_load(9, 0b0001, lambda m: got.append(m))
        sl.receive_load(9, 0b0110, lambda m: got.append(m))
        sim.run()
        assert sorted(got) == [0b0001, 0b0110]
        assert ch.total_bytes == 96  # three sectors total

    def test_mshr_full_retries_until_served(self):
        sim, sl, _sch, _ch = make_slice()
        sl.mshrs.capacity = 1
        got = []
        sl.receive_load(1, 1, lambda m: got.append(1))
        sl.receive_load(2, 1, lambda m: got.append(2))
        sl.receive_load(3, 1, lambda m: got.append(3))
        sim.run()
        assert sorted(got) == [1, 2, 3]
        assert sl.stats.flatten()["l2s0.mshr_retries"] >= 1


class TestStorePath:
    def test_store_allocates_dirty_verified(self):
        sim, sl, _sch, ch = make_slice()
        acked = []
        sl.receive_store(7, 0b0101, lambda: acked.append(sim.now))
        sim.run()
        assert acked
        line = sl.cache.probe(7)
        assert line.dirty_mask == 0b0101
        assert line.verified_mask & 0b0101 == 0b0101
        assert ch.total_bytes == 0  # write-back: nothing to DRAM yet

    def test_store_does_not_get_clobbered_by_late_fill(self):
        sim, sl, _sch, _ch = make_slice()
        # Start a fetch, then store to the same sector before it lands.
        sl.receive_load(7, 0b0001, lambda m: None)
        sl.receive_store(7, 0b0001, lambda: None)
        sim.run()
        line = sl.cache.probe(7)
        assert line.dirty_mask & 0b0001  # the store's data survived

    def test_load_after_store_hits(self):
        sim, sl, _sch, ch = make_slice()
        sl.receive_store(7, 0b0001, lambda: None)
        sim.run()
        before = ch.total_bytes
        got = []
        sl.receive_load(7, 0b0001, got.append)
        sim.run()
        assert got == [0b0001]
        assert ch.total_bytes == before


class TestEvictionAndFlush:
    def test_flush_writes_back_dirty(self):
        sim, sl, _sch, ch = make_slice()
        sl.receive_store(3, 0b1111, lambda: None)
        sim.run()
        dirty = sl.flush()
        sim.run()
        assert dirty == 1
        assert ch.bytes_by_kind()["writeback"] == 128

    def test_capacity_eviction_triggers_writeback(self):
        sim, sl, _sch, ch = make_slice(size_kb=4)  # 32 lines total
        for i in range(80):
            sl.receive_store(i, 0b1111, lambda: None)
        sim.run()
        assert ch.bytes_by_kind()["writeback"] > 0

    def test_install_skips_resident_dirty(self):
        sim, sl, _sch, _ch = make_slice()
        sl.receive_store(4, 0b0001, lambda: None)
        sim.run()
        sl.install_sectors(4, 0b0011)
        line = sl.cache.probe(4)
        assert line.dirty_mask == 0b0001  # store not overwritten
        assert line.valid_mask == 0b0011  # new sector installed

    def test_install_metadata_dirty_flag(self):
        sim, sl, _sch, _ch = make_slice()
        sl.install_sectors(100, 0b0001, is_metadata=True, dirty=True)
        line = sl.cache.probe(100)
        assert line.is_metadata and line.dirty_mask == 0b0001


class TestMshrRetryPath:
    """The full-MSHR retry loop (`_retry_load`): bounded starvation,
    retry accounting, and interaction with MSHR occupancy."""

    def test_retry_interval_bounds_starvation(self):
        sim, sl, _sch, _ch = make_slice()
        sl.mshrs.capacity = 1
        served = {}
        for line in range(1, 6):
            sl.receive_load(line, 1,
                            lambda m, line=line: served.setdefault(
                                line, sim.now))
        sim.run()
        assert sorted(served) == [1, 2, 3, 4, 5]
        # Each queued load waits at most one fetch round-trip plus one
        # retry interval behind its predecessor — no unbounded spin.
        times = [served[line] for line in sorted(served)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        first_latency = times[0]
        assert all(gap <= first_latency + L2Slice.RETRY_CYCLES
                   for gap in gaps)

    def test_retry_counter_counts_each_stalled_attempt(self):
        sim, sl, _sch, _ch = make_slice()
        sl.mshrs.capacity = 1
        sl.receive_load(1, 1, lambda m: None)
        sl.receive_load(2, 1, lambda m: None)
        sim.run()
        stats = sl.stats.flatten()
        # Load 2 stalls at least once and each stall is counted.
        assert stats["l2s0.mshr_retries"] >= 1
        assert stats["l2s0.mshr_retries"] == \
            stats["l2s0.mshr.full_stalls"]

    def test_retry_rehits_without_new_mshr_when_sectors_arrived(self):
        sim, sl, _sch, ch = make_slice()
        sl.mshrs.capacity = 1
        got = []
        # Both loads target the same sectors; the second cannot merge
        # (merge limit) nor allocate (full), so it retries — and by the
        # retry the fill has landed, so it hits without new traffic.
        sl.mshrs.max_merges = 1
        sl.receive_load(3, 0b0001, lambda m: got.append("a"))
        sl.receive_load(3, 0b0001, lambda m: got.append("b"))
        sim.run()
        assert sorted(got) == ["a", "b"]
        assert ch.total_bytes == 32  # one sector fetched exactly once
        assert sl.stats.flatten()["l2s0.mshr.allocations"] == 1

    def test_mshr_occupancy_returns_to_zero(self):
        sim, sl, _sch, _ch = make_slice()
        sl.mshrs.capacity = 2
        for line in range(1, 7):
            sl.receive_load(line, 1, lambda m: None)
        sim.run()
        assert len(sl.mshrs) == 0
        assert sl.mshrs.peak <= 2  # capacity respected throughout

    def test_retry_preserves_full_request_mask(self):
        sim, sl, _sch, _ch = make_slice()
        sl.mshrs.capacity = 1
        got = []
        sl.receive_load(1, 0b0001, lambda m: None)
        sl.receive_load(2, 0b0110, got.append)
        sim.run()
        assert got == [0b0110]  # retried load still answers its mask


class TestPoisonAndInvalidate:
    def test_poison_marks_only_resident_valid_sectors(self):
        sim, sl, _sch, _ch = make_slice()
        sl.receive_load(5, 0b0011, lambda m: None)
        sim.run()
        sl.poison_sectors(5, 0b1111)
        line = sl.cache.probe(5)
        assert line.poisoned_mask == 0b0011  # only what is resident
        assert sl.stats.flatten()["l2s0.poisoned_sectors"] == 2

    def test_poisoned_hit_counts_poison_served(self):
        sim, sl, _sch, _ch = make_slice()
        sl.receive_load(5, 0b0011, lambda m: None)
        sim.run()
        sl.poison_sectors(5, 0b0001)
        got = []
        sl.receive_load(5, 0b0011, got.append)
        sim.run()
        assert got == [0b0011]  # the load completes (poison, not hang)
        assert sl.stats.flatten()["l2s0.poison_served"] == 1

    def test_fresh_fill_clears_poison(self):
        sim, sl, _sch, _ch = make_slice()
        sl.receive_load(5, 0b0001, lambda m: None)
        sim.run()
        sl.poison_sectors(5, 0b0001)
        line = sl.cache.probe(5)
        sl.cache.invalidate(5)
        sl.install_sectors(5, 0b0001)
        line = sl.cache.probe(5)
        assert line.poisoned_mask == 0
        got = []
        sl.receive_load(5, 0b0001, got.append)
        sim.run()
        assert got == [0b0001]
        assert sl.stats.flatten()["l2s0.poison_served"] == 0

    def test_poison_on_absent_line_is_noop(self):
        _sim, sl, _sch, _ch = make_slice()
        sl.poison_sectors(99, 0b1111)
        assert sl.stats.flatten()["l2s0.poisoned_sectors"] == 0

    def test_invalidate_discards_dirty_without_writeback(self):
        sim, sl, _sch, ch = make_slice()
        sl.receive_store(7, 0b0011, lambda: None)
        sim.run()
        sl.invalidate_line(7)
        sim.run()
        assert sl.cache.probe(7) is None or not sl.cache.probe(7).valid
        assert ch.bytes_by_kind().get("writeback", 0) == 0
        assert sl.stats.flatten()["l2s0.invalidated_lines"] == 1

    def test_invalidate_absent_line_is_noop(self):
        _sim, sl, _sch, _ch = make_slice()
        sl.invalidate_line(42)
        assert sl.stats.flatten()["l2s0.invalidated_lines"] == 0


class TestProtectedSlice:
    def test_inline_sector_fetch_adds_metadata_traffic(self):
        sim, sl, _sch, ch = make_slice("inline-sector")
        sl.receive_load(5, 0b0001, lambda m: None)
        sim.run()
        kinds = ch.bytes_by_kind()
        assert kinds["data"] == 32
        assert kinds["metadata"] == 32

    def test_inline_full_grants_whole_granule(self):
        sim, sl, _sch, ch = make_slice("inline-full", granule_bytes=128)
        got = []
        sl.receive_load(5, 0b0001, got.append)
        sim.run()
        assert got == [0b0001]  # the response carries what was asked
        assert sl.resident_mask(5) == 0b1111  # but the L2 got it all
        kinds = ch.bytes_by_kind()
        assert kinds["data"] == 32 and kinds["verify_fill"] == 96

    def test_cachecraft_grants_whole_granule_cold(self):
        sim, sl, _sch, ch = make_slice("cachecraft", granule_bytes=128)
        got = []
        sl.receive_load(5, 0b0010, got.append)
        sim.run()
        assert got == [0b0010]
        assert sl.resident_mask(5) == 0b1111
        assert ch.bytes_by_kind()["verify_fill"] == 96
