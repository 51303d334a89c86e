"""The SMs' L1 (:class:`repro.cache.l1.L1Cache`) against the general
sectored cache set up as that L1 (LRU, the same geometry).

Random streams of lookups, fills and atomic sector-clears drive both;
every step must return the same hit mask, leave the same resident
lines and masks and count the same ``l1.*`` counters, in the same
order.  A lookup that hit nothing must add exactly what
:meth:`L1Cache.miss_counts` names, since a parked retry replays that.
(The general cache fills a free way before it evicts, but every fill
becomes MRU wherever it lands, so the two keep one recency order.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.l1 import L1Cache
from repro.cache.sectored import SectoredCache

LINE_BYTES = 128
NUM_LINES = 24
LINES = st.integers(0, NUM_LINES - 1)
MASKS = st.integers(1, 15)

l1_ops = st.lists(st.tuples(
    st.sampled_from(["lookup", "fill", "clear"]), LINES, MASKS),
    min_size=20, max_size=200)


class SectoredL1:
    """A :class:`SectoredCache` used as the event SM used it for its L1:
    fills allocate (evicting LRU) and are verified; an atomic clears
    the valid and verified bits of a resident line's sectors."""

    def __init__(self, num_sets, ways):
        self.cache = SectoredCache("l1", num_sets * ways * LINE_BYTES, ways,
                                   line_bytes=LINE_BYTES, sector_bytes=32)

    def lookup(self, line, mask):
        return self.cache.lookup_mask(line, mask)[0]

    def fill(self, line, mask):
        cached, _evicted = self.cache.allocate(line)
        self.cache.fill_sectors(cached, mask & ~cached.valid_mask,
                                dirty=False, verified=True)

    def clear(self, line, mask):
        cached = self.cache.probe(line)
        if cached is None:
            return False
        cached.valid_mask &= ~mask
        cached.verified_mask &= ~mask
        return True

    def resident(self, line):
        cached = self.cache.probe(line)
        return None if cached is None else cached.valid_mask


@pytest.mark.parametrize("num_sets,ways", [(1, 1), (1, 4), (4, 2), (4, 4)])
@given(ops=l1_ops)
@settings(max_examples=60, deadline=None)
def test_l1_matches_sectored_cache(num_sets, ways, ops):
    l1 = L1Cache(num_sets * ways * LINE_BYTES, ways, LINE_BYTES)
    ref = SectoredL1(num_sets, ways)
    for op, line, mask in ops:
        before = ref.cache.stats.flatten()
        got = getattr(l1, op)(line, mask)
        assert got == getattr(ref, op)(line, mask)
        after = ref.cache.stats.flatten()
        if op == "lookup" and not got:
            added = {key[3:]: after[key] - before[key] for key in after
                     if after[key] != before[key]}
            assert {counter.name: n for counter, n
                    in l1.miss_counts(line, mask)} == added
        assert list(l1.stats.flatten().items()) == list(after.items())
        assert [l1.resident(la) for la in range(NUM_LINES)] \
            == [ref.resident(la) for la in range(NUM_LINES)]
