"""Unit tests for MSHR files."""

import pytest

from repro.cache.mshr import MshrFile


class TestMshr:
    def test_allocate_and_get(self):
        mshrs = MshrFile("m", 4)
        assert mshrs.allocate(100, 0b0011) == 0b0011
        entry = mshrs.get(100)
        assert entry is not None and entry.key == 100
        assert entry.sector_mask == 0b0011
        assert len(mshrs) == 1

    def test_merge_extends_mask_and_waiters(self):
        mshrs = MshrFile("m", 4)
        fired = []
        mshrs.allocate(100, 0b0001, waiter=lambda: fired.append("a"))
        assert mshrs.allocate(100, 0b0100,
                              waiter=lambda: fired.append("b")) == 0b0100
        entry = mshrs.get(100)
        assert entry.sector_mask == 0b0101
        assert entry.merges == 1
        for waiter in mshrs.complete(100):
            waiter()
        assert fired == ["a", "b"]

    def test_full_file_rejects(self):
        mshrs = MshrFile("m", 2)
        assert mshrs.allocate(1, 1) is not None
        assert mshrs.allocate(2, 1) is not None
        assert mshrs.allocate(3, 1) is None
        assert mshrs.full

    def test_merge_limit(self):
        mshrs = MshrFile("m", 2, max_merges=2)
        mshrs.allocate(1, 1, waiter=lambda: None)
        mshrs.allocate(1, 1, waiter=lambda: None)
        assert mshrs.allocate(1, 1, waiter=lambda: None) is None

    def test_allocate_reports_newly_requested_sectors(self):
        """``allocate`` returns what the caller must fetch, or None on a
        stall, and a stall changes nothing but its counter."""
        mshrs = MshrFile("m", 2, max_merges=3)
        assert mshrs.allocate(1, 0b0011, "w0") == 0b0011      # first
        assert mshrs.allocate(1, 0b0110, "w1") == 0b0100      # adds one
        assert mshrs.allocate(1, 0b0101, "w2") == 0           # adds none
        assert mshrs.get(1).sector_mask == 0b0111
        assert mshrs.allocate(1, 0b1000, "w3") is None        # merge stall
        assert mshrs.allocate(2, 0b0001) == 0b0001
        assert mshrs.allocate(3, 0b0001, "w4") is None        # full stall
        assert mshrs.get(1).sector_mask == 0b0111
        assert mshrs.get(3) is None
        assert mshrs.complete(1) == ["w0", "w1", "w2"]
        flat = mshrs.stats.flatten()
        assert (flat["m.allocations"], flat["m.merges"],
                flat["m.merge_stalls"], flat["m.full_stalls"]) == (2, 2, 1, 1)

    def test_complete_unknown_key(self):
        assert MshrFile("m", 2).complete(42) == []

    def test_complete_frees_capacity(self):
        mshrs = MshrFile("m", 1)
        mshrs.allocate(1, 1)
        mshrs.complete(1)
        assert mshrs.allocate(2, 1) is not None

    def test_stats(self):
        mshrs = MshrFile("m", 1)
        mshrs.allocate(1, 1)
        mshrs.allocate(1, 1, waiter=lambda: None)
        mshrs.allocate(2, 1)
        flat = mshrs.stats.flatten()
        assert flat["m.allocations"] == 1
        assert flat["m.merges"] == 1
        assert flat["m.full_stalls"] == 1

    def test_peak_tracking(self):
        mshrs = MshrFile("m", 8)
        for key in range(5):
            mshrs.allocate(key, 1)
        mshrs.complete(0)
        assert mshrs.peak == 5

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MshrFile("m", 0)


class TestMshrFill:
    """``fill`` records received sectors and hands back the waiters
    once, when the entry completes."""

    def test_fill_without_entry(self):
        mshrs = MshrFile("m", 2)
        mshrs.allocate(1, 0b0011, "w0")
        assert mshrs.fill(2, 0b1111) is None
        assert len(mshrs) == 1

    def test_partial_fill_keeps_entry(self):
        mshrs = MshrFile("m", 2)
        mshrs.allocate(1, 0b0011, "w0")
        assert mshrs.fill(1, 0b0001) is None
        entry = mshrs.get(1)
        assert entry is not None and entry.filled == 0b0001

    def test_completing_fill_removes_entry(self):
        mshrs = MshrFile("m", 1)
        mshrs.allocate(1, 0b0011, "w0")
        assert mshrs.fill(1, 0b0001) is None
        # A grant may cover more than was requested.
        assert mshrs.fill(1, 0b1110) == ["w0"]
        assert mshrs.get(1) is None and len(mshrs) == 0
        assert mshrs.fill(1, 0b0011) is None
        assert mshrs.allocate(2, 0b0001) == 0b0001  # capacity freed

    def test_merged_waiters_return_in_arrival_order(self):
        mshrs = MshrFile("m", 2)
        mshrs.allocate(1, 0b0001, "w0")
        mshrs.allocate(1, 0b0100, "w1")
        mshrs.allocate(1, 0b0001, "w2")
        assert mshrs.fill(1, 0b0001) is None  # 0b0100 still outstanding
        assert mshrs.fill(1, 0b0100) == ["w0", "w1", "w2"]

