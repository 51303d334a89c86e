"""Property-based tests for cache structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.replacement import LruPolicy, make_policy
from repro.cache.sectored import CacheLine, Eviction, SectoredCache
from repro.obs.inspect import MemoryInspector


@st.composite
def access_sequences(draw):
    """A sequence of (line_addr, sector, is_write) accesses."""
    n = draw(st.integers(5, 60))
    return [
        (draw(st.integers(0, 40)), draw(st.integers(0, 3)),
         draw(st.booleans()))
        for _ in range(n)
    ]


@given(access_sequences())
@settings(max_examples=60)
def test_cache_directory_invariants(seq):
    """After any access sequence: directory matches array state, masks
    stay within the line, dirty implies valid."""
    cache = SectoredCache("c", 4096, 2, line_bytes=128, sector_bytes=32)
    for line_addr, sector, is_write in seq:
        line, _ev = cache.allocate(line_addr)
        cache.fill_sector(line, sector, dirty=is_write)

    # Walk the sets built so far; the closing check covers the rest,
    # since every directory entry must have been seen in a built set.
    seen = set()
    for set_idx, ways in enumerate(cache._sets):
        for way, line in enumerate(ways or ()):
            if line.line_addr >= 0:
                assert cache._directory[line.line_addr] == (set_idx, way)
                assert line.valid_mask <= cache.full_sector_mask
                assert line.dirty_mask & ~line.valid_mask == 0
                assert line.verified_mask & ~line.valid_mask == 0
                seen.add(line.line_addr)
    assert seen == set(cache._directory)


@given(access_sequences())
@settings(max_examples=60)
def test_flush_leaves_cache_empty_and_returns_all_dirty(seq):
    cache = SectoredCache("c", 4096, 2, line_bytes=128, sector_bytes=32)
    dirty_lines = set()
    for line_addr, sector, is_write in seq:
        line, ev = cache.allocate(line_addr)
        cache.fill_sector(line, sector, dirty=is_write)
        if is_write:
            dirty_lines.add(line_addr)
        if ev is not None:
            dirty_lines.discard(ev.line_addr)
    evictions = cache.flush()
    assert {e.line_addr for e in evictions} == dirty_lines
    assert cache.occupancy() == 0.0
    assert all(e.needs_writeback for e in evictions)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=200))
@settings(max_examples=60)
def test_lru_victim_is_oldest_untouched(accesses):
    """LRU invariant: the victim is always the way whose last access is
    the furthest in the past."""
    lru = LruPolicy(8)
    last_touch = {way: -1 for way in range(8)}
    for t, way in enumerate(accesses):
        lru.on_access(way)
        last_touch[way] = t
    victim = lru.victim()
    assert last_touch[victim] == min(last_touch.values())


@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3)),
                min_size=1, max_size=100))
@settings(max_examples=60)
def test_lookup_after_fill_always_hits(fills):
    """Any sector that was filled and never evicted must hit."""
    cache = SectoredCache("c", 16 * 1024, 16, line_bytes=128, sector_bytes=32)
    # 16 KiB 16-way with 128 B lines = 8 sets; 16 distinct lines max
    # cannot overflow a set here (16 ways), so nothing is ever evicted.
    for line_addr, sector in fills:
        line, ev = cache.allocate(line_addr)
        assert ev is None or not ev.valid_mask
        cache.fill_sector(line, sector)
    for line_addr, sector in fills:
        hit_mask, _ = cache.lookup_mask(line_addr, 1 << sector)
        assert hit_mask == 1 << sector


class EagerReference:
    """A cache that builds every set's ways and policy up front and
    picks ways like :meth:`SectoredCache.allocate`: the first free
    allowed way, scanned for every time, else the policy's victim.
    It flushes by invalidating line by line in directory order."""

    def __init__(self, num_sets, ways, policy, metadata_ways):
        self.num_sets, self.ways, self.split = num_sets, ways, metadata_ways
        self.sets = [[CacheLine() for _ in range(ways)]
                     for _ in range(num_sets)]
        self.policies = [make_policy(policy, ways) for _ in range(num_sets)]
        self.where = {}  # line_addr -> way, in directory order
        self.evictions = self.writebacks = 0

    def _count(self, old):
        if old.valid_mask:
            self.evictions += 1
            if old.dirty_mask:
                self.writebacks += 1

    def line(self, line_addr):
        way = self.where.get(line_addr)
        return (None if way is None
                else self.sets[line_addr % self.num_sets][way])

    def allocate(self, line_addr, is_metadata, low_priority):
        if line_addr in self.where:
            return None
        set_idx = line_addr % self.num_sets
        lines, policy = self.sets[set_idx], self.policies[set_idx]
        allowed = list(range(self.ways))
        if self.split:
            allowed = (allowed[:self.split] if is_metadata
                       else allowed[self.split:])
        free = [w for w in allowed if lines[w].line_addr < 0]
        evicted = None
        if free:
            way = free[0]
        else:
            way = (policy.victim_among(allowed) if self.split
                   else policy.victim())
            old = lines[way]
            if old.valid_mask:
                evicted = Eviction(old.line_addr, old.dirty_mask,
                                   old.valid_mask, old.is_metadata)
            self._count(old)
            del self.where[old.line_addr]
        lines[way] = CacheLine(line_addr, is_metadata=is_metadata)
        self.where[line_addr] = way
        policy.on_fill(way, low_priority=low_priority)
        return evicted

    def fill_sector(self, line_addr, sector, dirty, verified):
        line, bit = self.line(line_addr), 1 << sector
        line.valid_mask |= bit
        if dirty:
            line.dirty_mask |= bit
        line.verified_mask = (line.verified_mask | bit if verified
                              else line.verified_mask & ~bit)

    def lookup_mask(self, line_addr, mask):
        line = self.line(line_addr)
        if line is None:
            return 0
        hit = mask & line.valid_mask & line.verified_mask
        if hit:
            self.policies[line_addr % self.num_sets].on_access(
                self.where[line_addr])
        return hit

    def invalidate(self, line_addr):
        way = self.where.pop(line_addr, None)
        if way is None:
            return None
        lines = self.sets[line_addr % self.num_sets]
        old, lines[way] = lines[way], CacheLine()
        self._count(old)
        return (Eviction(old.line_addr, old.dirty_mask, old.valid_mask,
                         old.is_metadata) if old.dirty_mask else None)

    def flush(self):
        out = []
        for line_addr in list(self.where):
            evicted = self.invalidate(line_addr)
            if evicted is not None:
                out.append(evicted)
        return out


NUM_LINES = 24  # over 4 sets of 4 ways, so sets overflow and evict
LINES = st.integers(0, NUM_LINES - 1)

cache_ops = st.lists(st.one_of(
    st.tuples(st.just("allocate"), LINES, st.booleans(), st.booleans()),
    st.tuples(st.just("fill"), LINES, st.integers(0, 3), st.booleans(),
              st.booleans()),
    st.tuples(st.just("lookup"), LINES, st.integers(1, 15)),
    st.tuples(st.just("invalidate"), LINES),
), min_size=30, max_size=150)


@pytest.mark.parametrize("metadata_ways", [0, 1])
@pytest.mark.parametrize("policy", ["lru", "plru", "srrip", "random"])
@given(ops=cache_ops, flush_after=st.sets(st.integers(0, 149), max_size=3))
@settings(max_examples=40, deadline=None)
def test_sets_built_on_first_fill_match_eager_reference(
        policy, metadata_ways, ops, flush_after):
    """Building a set at its first fill evicts and hits exactly like
    building every set up front, under every replacement policy; a
    full set skips the scan for a free way, and a flush (after the ops
    in ``flush_after``, and at the end) drops every line in one pass,
    returning and counting what invalidating line by line does."""
    cache = SectoredCache("c", 4 * 4 * 128, 4, line_bytes=128,
                          sector_bytes=32, policy=policy,
                          metadata_ways=metadata_ways)
    ref = EagerReference(cache.num_sets, 4, policy, metadata_ways)

    def check_counts():
        flat = cache.stats.flatten()
        assert (flat["c.evictions"], flat["c.writebacks"]) \
            == (ref.evictions, ref.writebacks)

    for idx, (op, line_addr, *args) in enumerate(ops):
        if op == "allocate":
            is_metadata, low_priority = args
            _, evicted = cache.allocate(line_addr, is_metadata=is_metadata,
                                        low_priority=low_priority)
            assert evicted == ref.allocate(line_addr, is_metadata,
                                           low_priority)
        elif op == "fill":
            sector, dirty, verified = args
            line = cache.probe(line_addr)
            if line is not None:
                cache.fill_sector(line, sector, dirty=dirty,
                                  verified=verified)
                ref.fill_sector(line_addr, sector, dirty, verified)
        elif op == "lookup":
            (mask,) = args
            hit_mask, _ = cache.lookup_mask(line_addr, mask)
            assert hit_mask == ref.lookup_mask(line_addr, mask)
        else:
            assert cache.invalidate(line_addr) == ref.invalidate(line_addr)
        check_counts()
        if idx in flush_after:
            assert cache.flush() == ref.flush()
            check_counts()
        resident = {la for la in range(NUM_LINES)
                    if cache.probe(la) is not None}
        assert resident == set(ref.where)
    assert cache.flush() == ref.flush()
    check_counts()
    assert cache.occupancy() == 0.0


@pytest.mark.parametrize("policy", ["lru", "random"])
def test_flush_with_inspector_matches_line_by_line(policy):
    """With an inspector attached, ``flush`` records every invalidation:
    its per-set views, evictions and counters equal those of a twin
    cache invalidated line by line in directory order."""
    caches, views = [], []
    for _ in range(2):
        cache = SectoredCache("c", 4 * 4 * 128, 4, line_bytes=128,
                              sector_bytes=32, policy=policy)
        views.append(MemoryInspector().watch_cache("c", cache))
        for line_addr in range(NUM_LINES):  # overflows every set
            line, _evicted = cache.allocate(line_addr)
            cache.fill_sector(line, line_addr % 4,
                              dirty=line_addr % 3 == 0)
        cache.invalidate(NUM_LINES - 1)
        caches.append(cache)
    flushed, twin = caches
    resident = len(flushed._directory)
    before = sum(views[0].invalidations)
    evictions = flushed.flush()
    assert evictions == [
        evicted for evicted in (twin.invalidate(line_addr)
                                for line_addr in list(twin._directory))
        if evicted is not None]
    assert evictions and all(e.dirty_mask for e in evictions)
    assert sum(views[0].invalidations) == before + resident
    assert views[0].to_dict() == views[1].to_dict()
    assert flushed.stats.flatten() == twin.stats.flatten()
    assert flushed.occupancy() == twin.occupancy() == 0.0
