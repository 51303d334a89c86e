"""Unit tests for the sectored cache."""

import pytest

from repro.cache.sectored import LookupResult, SectoredCache


def make_cache(size_kb=16, ways=4, policy="lru") -> SectoredCache:
    return SectoredCache("c", size_kb * 1024, ways, line_bytes=128,
                         sector_bytes=32, policy=policy)


class TestGeometry:
    def test_shape(self):
        cache = make_cache(16, 4)
        assert cache.num_sets == 32
        assert cache.sectors_per_line == 4
        assert cache.full_sector_mask == 0xF

    def test_address_helpers(self):
        cache = make_cache()
        assert cache.line_addr_of(0x1000) == 32
        assert cache.sector_of(0x1000 + 96) == 3

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SectoredCache("c", 1024, 4, line_bytes=100, sector_bytes=32)
        with pytest.raises(ValueError):
            SectoredCache("c", 1000, 4, line_bytes=128, sector_bytes=32)

    def test_unknown_policy_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_cache(policy="belady")

    def test_policy_way_count_checked_at_construction(self):
        # Tree-PLRU needs a power-of-two way count; 3 ways must fail
        # before any set is filled, not at its first allocation.
        with pytest.raises(ValueError, match="power-of-two"):
            make_cache(12, 3, policy="plru")


class TestLookupAndFill:
    def test_cold_miss_is_line_miss(self):
        cache = make_cache()
        result, line = cache.lookup(0x4000)
        assert result is LookupResult.MISS_LINE and line is None

    def test_fill_then_hit(self):
        cache = make_cache()
        line, evicted = cache.allocate(10)
        assert evicted is None
        cache.fill_sector(line, 2)
        result, got = cache.lookup(10 * 128 + 2 * 32)
        assert result is LookupResult.HIT and got is line

    def test_sector_miss_on_resident_line(self):
        cache = make_cache()
        line, _ = cache.allocate(10)
        cache.fill_sector(line, 0)
        result, _ = cache.lookup(10 * 128 + 32)
        assert result is LookupResult.MISS_SECTOR

    def test_require_verified_hides_unverified(self):
        cache = make_cache()
        line, _ = cache.allocate(10)
        cache.fill_sector(line, 0, verified=False)
        result, _ = cache.lookup(10 * 128, require_verified=True)
        assert result is LookupResult.MISS_SECTOR
        result, _ = cache.lookup(10 * 128, require_verified=False)
        assert result is LookupResult.HIT

    def test_lookup_mask(self):
        cache = make_cache()
        line, _ = cache.allocate(7)
        cache.fill_sector(line, 0)
        cache.fill_sector(line, 2)
        hit_mask, got = cache.lookup_mask(7, 0b0111)
        assert hit_mask == 0b0101
        assert got is line

    def test_lookup_mask_line_miss(self):
        cache = make_cache()
        hit_mask, line = cache.lookup_mask(99, 0xF)
        assert hit_mask == 0 and line is None

    def test_stats_count_sectors(self):
        cache = make_cache()
        line, _ = cache.allocate(1)
        cache.fill_sector(line, 0)
        cache.lookup_mask(1, 0b0011)  # one hit, one sector miss
        flat = cache.stats.flatten()
        assert flat["c.hits"] == 1
        assert flat["c.sector_misses"] == 1

    def test_lookup_mask_line_miss_counts_once_per_access(self):
        # A 4-sector tag miss is ONE access, exactly like lookup();
        # pre-fix lookup_mask inflated line_misses by the sector count,
        # skewing hit rates by entry point.
        cache = make_cache()
        cache.lookup_mask(99, 0b1111)
        flat = cache.stats.flatten()
        assert flat["c.line_misses"] == 1
        assert flat["c.line_miss_sectors"] == 4
        assert flat["c.sector_misses"] == 0

    def test_lookup_and_lookup_mask_agree_on_line_miss(self):
        one = make_cache()
        one.lookup(99 * 128)                 # single-sector entry point
        other = make_cache()
        other.lookup_mask(99, 0b0001)        # same request, mask form
        assert one.stats.flatten() == other.stats.flatten()

    def test_line_miss_sector_volume_tracked(self):
        cache = make_cache()
        cache.lookup(50 * 128)        # 1 access, 1 sector
        cache.lookup_mask(99, 0b0111)  # 1 access, 3 sectors
        flat = cache.stats.flatten()
        assert flat["c.line_misses"] == 2
        assert flat["c.line_miss_sectors"] == 4


class TestEviction:
    def test_eviction_on_conflict(self):
        cache = make_cache(16, 4)  # 32 sets
        sets = cache.num_sets
        victims = []
        for i in range(5):  # 5 lines into a 4-way set
            line, ev = cache.allocate(i * sets)
            cache.fill_sector(line, 0)
            if ev is not None:
                victims.append(ev)
        assert len(victims) == 1
        assert victims[0].line_addr == 0

    def test_clean_eviction_needs_no_writeback(self):
        cache = make_cache(16, 1)
        for i in range(2):
            line, ev = cache.allocate(i * cache.num_sets)
            cache.fill_sector(line, 0, dirty=False)
        assert ev is not None and not ev.needs_writeback

    def test_dirty_eviction_carries_masks(self):
        cache = make_cache(16, 1)
        line, _ = cache.allocate(0)
        cache.fill_sector(line, 1, dirty=True)
        cache.fill_sector(line, 3, dirty=False)
        _, ev = cache.allocate(cache.num_sets)
        assert ev.needs_writeback
        assert ev.dirty_mask == 0b0010
        assert ev.valid_mask == 0b1010

    def test_directory_consistent_after_eviction(self):
        cache = make_cache(16, 1)
        cache.allocate(0)
        cache.allocate(cache.num_sets)
        assert cache.probe(0) is None
        assert cache.probe(cache.num_sets) is not None


class TestDirtyAndVerified:
    def test_write_sector_marks_dirty(self):
        cache = make_cache()
        line, _ = cache.allocate(3)
        cache.fill_sector(line, 1)
        result, got = cache.write_sector(3 * 128 + 32)
        assert result is LookupResult.HIT
        assert got.dirty_mask == 0b0010

    def test_mark_verified(self):
        cache = make_cache()
        line, _ = cache.allocate(5)
        cache.fill_sector(line, 0, verified=False)
        cache.mark_verified(5, 0b0001)
        assert line.verified_mask == 0b0001

    def test_mark_verified_ignores_invalid_sectors(self):
        cache = make_cache()
        line, _ = cache.allocate(5)
        cache.mark_verified(5, 0b1111)
        assert line.verified_mask == 0

    def test_resident_sectors_verified_filter(self):
        cache = make_cache()
        line, _ = cache.allocate(5)
        cache.fill_sector(line, 0, verified=True)
        cache.fill_sector(line, 1, verified=False)
        assert cache.resident_sectors(5) == 0b0001
        assert cache.resident_sectors(5, verified_only=False) == 0b0011


class TestInvalidateFlush:
    def test_invalidate_returns_writeback(self):
        cache = make_cache()
        line, _ = cache.allocate(9)
        cache.fill_sector(line, 0, dirty=True)
        ev = cache.invalidate(9)
        assert ev is not None and ev.dirty_mask == 1
        assert cache.probe(9) is None

    def test_invalidate_clean_returns_none(self):
        cache = make_cache()
        line, _ = cache.allocate(9)
        cache.fill_sector(line, 0)
        assert cache.invalidate(9) is None

    def test_flush_returns_all_dirty(self):
        cache = make_cache()
        for i in range(6):
            line, _ = cache.allocate(i)
            cache.fill_sector(line, 0, dirty=(i % 2 == 0))
        evictions = cache.flush()
        assert len(evictions) == 3
        assert cache.occupancy() == 0.0

    def test_invalidate_counts_eviction_and_writeback(self):
        # Pre-fix, invalidate() silently dropped lines: eviction and
        # writeback counters stayed at zero and traffic accounting
        # under-reported the recovery path.
        cache = make_cache()
        line, _ = cache.allocate(9)
        cache.fill_sector(line, 0, dirty=True)
        cache.invalidate(9)
        flat = cache.stats.flatten()
        assert flat["c.evictions"] == 1
        assert flat["c.writebacks"] == 1

    def test_invalidate_clean_counts_eviction_only(self):
        cache = make_cache()
        line, _ = cache.allocate(9)
        cache.fill_sector(line, 0, dirty=False)
        cache.invalidate(9)
        flat = cache.stats.flatten()
        assert flat["c.evictions"] == 1
        assert flat["c.writebacks"] == 0

    def test_invalidate_empty_line_counts_nothing(self):
        cache = make_cache()
        cache.allocate(9)  # allocated but no sector ever filled
        cache.invalidate(9)
        flat = cache.stats.flatten()
        assert flat["c.evictions"] == 0
        assert flat["c.writebacks"] == 0

    def test_flush_stats_match_returned_work_without_double_count(self):
        # flush() delegates counting to invalidate(); the sum must be
        # exactly one eviction per valid line and one writeback per
        # dirty line — not two (the pre-fix code counted writebacks in
        # both places once invalidate learned to count).
        cache = make_cache()
        for i in range(6):
            line, _ = cache.allocate(i)
            cache.fill_sector(line, 0, dirty=(i % 2 == 0))
        evictions = cache.flush()
        flat = cache.stats.flatten()
        assert flat["c.evictions"] == 6
        assert flat["c.writebacks"] == 3 == len(evictions)


class TestMetadataLines:
    def test_metadata_flag_and_stats(self):
        cache = make_cache()
        line, _ = cache.allocate(11, is_metadata=True)
        cache.fill_sector(line, 0)
        cache.lookup(11 * 128)
        flat = cache.stats.flatten()
        assert flat["c.metadata_fills"] == 1
        assert flat["c.metadata_hits"] == 1

    def test_metadata_occupancy(self):
        cache = make_cache()
        a, _ = cache.allocate(1, is_metadata=True)
        cache.fill_sector(a, 0)
        b, _ = cache.allocate(2)
        cache.fill_sector(b, 0)
        assert cache.metadata_occupancy() == pytest.approx(0.5)

    def test_low_priority_insertion_evicted_first(self):
        cache = make_cache(16, 4, policy="lru")
        sets = cache.num_sets
        # Fill a set with 3 normal lines + 1 low-priority line.
        for i in range(3):
            line, _ = cache.allocate(i * sets)
            cache.fill_sector(line, 0)
        meta, _ = cache.allocate(3 * sets, is_metadata=True,
                                 low_priority=True)
        cache.fill_sector(meta, 0)
        _, ev = cache.allocate(4 * sets)
        assert ev is not None
        # The low-priority line must go before the 2 most recent normals.
        assert ev.line_addr in (0, 3 * sets)
