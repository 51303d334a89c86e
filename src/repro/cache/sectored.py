"""The sectored set-associative cache.

One tag per line; per-sector valid, dirty, and **verified** bits.  The
verified bit is the hook the protection layer uses: under a protected
memory system a sector may be resident but not yet usable (its granule
check has not completed), and — the CacheCraft insight — a resident
*verified* sector can stand in for a DRAM fetch when a sibling sector's
granule is being reconstructed.

The cache is a passive structure: it answers lookups and performs
fills/evictions synchronously; all timing (tag latency, fill bandwidth)
lives in the component that owns it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.sim.stats import StatGroup


class LookupResult(enum.Enum):
    """Outcome of a sector lookup."""

    HIT = "hit"                  # line present, sector valid
    MISS_SECTOR = "miss_sector"  # line present, sector not resident
    MISS_LINE = "miss_line"      # no matching tag


@dataclass(slots=True)
class CacheLine:
    """Tag + per-sector state.  Masks are bit-per-sector ints."""

    line_addr: int = -1
    valid_mask: int = 0
    dirty_mask: int = 0
    verified_mask: int = 0
    #: Sectors marked poisoned by recovery (DUE retries exhausted);
    #: served loads of these count as poison propagations.
    poisoned_mask: int = 0
    #: True when this line holds protection metadata, not program data.
    is_metadata: bool = False

    @property
    def valid(self) -> bool:
        return self.line_addr >= 0 and self.valid_mask != 0

    def reset(self) -> None:
        self.line_addr = -1
        self.valid_mask = 0
        self.dirty_mask = 0
        self.verified_mask = 0
        self.poisoned_mask = 0
        self.is_metadata = False


@dataclass(slots=True)
class Eviction:
    """What fell out of the cache on an allocation."""

    line_addr: int
    dirty_mask: int
    valid_mask: int
    is_metadata: bool

    @property
    def needs_writeback(self) -> bool:
        return self.dirty_mask != 0


class SectoredCache:
    """Set-associative sectored cache.

    A set's lines and replacement state are built the first time
    :meth:`allocate` places a line in it; every other path reaches a
    set through the directory, so it only sees sets that exist.
    Construction therefore holds one empty slot per set, not every
    line and policy the modelled capacity could need.

    Parameters
    ----------
    name:
        For statistics.
    size_bytes, ways, line_bytes, sector_bytes:
        Geometry.  ``size_bytes`` must be a multiple of
        ``ways * line_bytes``; ``line_bytes`` a multiple of
        ``sector_bytes``.
    policy:
        Replacement policy name (see :func:`make_policy`).
    """

    def __init__(self, name: str, size_bytes: int, ways: int,
                 line_bytes: int = 128, sector_bytes: int = 32,
                 policy: str = "lru", stats: Optional[StatGroup] = None,
                 metadata_ways: int = 0):
        if line_bytes % sector_bytes:
            raise ValueError("line_bytes must be a multiple of sector_bytes")
        if size_bytes % (ways * line_bytes):
            raise ValueError("size_bytes must be a multiple of ways * line_bytes")
        if not 0 <= metadata_ways < ways:
            raise ValueError("metadata_ways must leave data at least one way")
        #: Way partitioning: when > 0, metadata lines live only in ways
        #: [0, metadata_ways) and data lines only in the rest.
        self.metadata_ways = metadata_ways
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.sectors_per_line = line_bytes // sector_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        self._full_mask = (1 << self.sectors_per_line) - 1
        # Build one policy now so that a bad name or way count fails
        # here, not at a set's first fill in the middle of a run.
        make_policy(policy, ways)
        self._policy_name = policy

        # Each set's ways and replacement state; None until the set's
        # first :meth:`allocate` builds them.
        self._sets: List[Optional[List[CacheLine]]] = [None] * self.num_sets
        self._policies: List[Optional[ReplacementPolicy]] = \
            [None] * self.num_sets
        #: Tagged ways (``line_addr >= 0``) per set, so that allocating
        #: into a full set skips the scan for a free way.
        self._tagged: List[int] = [0] * self.num_sets
        # line_addr -> (set, way) for O(1) probes.
        self._directory: Dict[int, Tuple[int, int]] = {}
        #: Opt-in per-set introspection view; set exclusively by
        #: :class:`repro.obs.inspect.MemoryInspector`.  Every hook in
        #: this class guards on it, so disabled runs take a single
        #: None-check and every counter stays bit-identical.
        self._insp = None

        group = stats.child(name) if stats is not None else StatGroup(name)
        self.stats = group
        self._hits = group.counter("hits")
        self._sector_misses = group.counter("sector_misses")
        self._line_misses = group.counter("line_misses")
        #: Sectors requested by line-missing accesses.  ``line_misses``
        #: counts accesses; this counts the sectors those accesses
        #: wanted (conservation-law checks need the sector volume).
        self._line_miss_sectors = group.counter("line_miss_sectors")
        self._evictions = group.counter("evictions")
        self._writebacks = group.counter("writebacks")
        self._metadata_fills = group.counter("metadata_fills")
        self._metadata_hits = group.counter("metadata_hits")

    # -- address helpers -----------------------------------------------------

    def line_addr_of(self, addr: int) -> int:
        return addr // self.line_bytes

    def sector_of(self, addr: int) -> int:
        return (addr % self.line_bytes) // self.sector_bytes

    def set_of(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    # -- lookups ---------------------------------------------------------------

    def lookup(self, addr: int, *, require_verified: bool = False
               ) -> Tuple[LookupResult, Optional[CacheLine]]:
        """Sector lookup; updates replacement state and hit statistics.

        With ``require_verified`` a resident-but-unverified sector
        reports ``MISS_SECTOR`` (the caller must wait for or trigger
        verification).
        """
        line_addr = self.line_addr_of(addr)
        sector = self.sector_of(addr)
        loc = self._directory.get(line_addr)
        if loc is None:
            self._line_misses.value += 1
            self._line_miss_sectors.value += 1
            if self._insp is not None:
                self._insp.access(self.set_of(line_addr), True)
            return LookupResult.MISS_LINE, None
        set_idx, way = loc
        line = self._sets[set_idx][way]
        bit = 1 << sector
        present = bool(line.valid_mask & bit)
        if present and require_verified and not (line.verified_mask & bit):
            present = False
        if self._insp is not None:
            self._insp.access(set_idx, not present)
        if present:
            self._hits.value += 1
            if line.is_metadata:
                self._metadata_hits.value += 1
            self._policies[set_idx].on_access(way)
            return LookupResult.HIT, line
        self._sector_misses.value += 1
        return LookupResult.MISS_SECTOR, line

    def lookup_mask(self, line_addr: int, sector_mask: int
                    ) -> Tuple[int, Optional[CacheLine]]:
        """Multi-sector lookup: returns ``(hit_mask, line)``.

        ``hit_mask`` is the subset of ``sector_mask`` resident and
        verified.  Hits and sector misses count each requested sector;
        a line (tag) miss counts **once per access**, exactly like
        :meth:`lookup`, so hit-rate reporting does not depend on which
        entry point served the request.  The sectors a line miss
        requested are tracked separately in ``line_miss_sectors``
        (conservation-law checks need them).
        """
        loc = self._directory.get(line_addr)
        if loc is None:
            self._line_misses.value += 1
            self._line_miss_sectors.value += sector_mask.bit_count()
            if self._insp is not None:
                self._insp.access(self.set_of(line_addr), True)
            return 0, None
        set_idx, way = loc
        line = self._sets[set_idx][way]
        hit_mask = sector_mask & line.valid_mask & line.verified_mask
        hits = hit_mask.bit_count()
        requested = sector_mask.bit_count()
        if self._insp is not None:
            self._insp.access(set_idx, hits < requested)
        if hits:
            self._hits.value += hits
            if line.is_metadata:
                self._metadata_hits.value += hits
            self._policies[set_idx].on_access(way)
        if requested - hits:
            self._sector_misses.value += requested - hits
        return hit_mask, line

    def probe(self, line_addr: int) -> Optional[CacheLine]:
        """Non-intrusive tag probe: no stats, no replacement update."""
        loc = self._directory.get(line_addr)
        if loc is None:
            return None
        return self._sets[loc[0]][loc[1]]

    def resident_sectors(self, line_addr: int, *, verified_only: bool = True) -> int:
        """Sector mask present (and verified) for a line — the
        reconstruction query CacheCraft issues."""
        line = self.probe(line_addr)
        if line is None:
            return 0
        if verified_only:
            return line.valid_mask & line.verified_mask
        return line.valid_mask

    # -- fills and writes --------------------------------------------------------

    def allocate(self, line_addr: int, *, is_metadata: bool = False,
                 low_priority: bool = False) -> Tuple[CacheLine, Optional[Eviction]]:
        """Ensure a line exists for ``line_addr``; possibly evicting.

        Returns the line and an :class:`Eviction` if a valid line was
        displaced.  The line is returned with whatever sectors it
        already had (it may already be resident).
        """
        loc = self._directory.get(line_addr)
        if loc is not None:
            return self._sets[loc[0]][loc[1]], None
        set_idx = line_addr % self.num_sets
        ways = self._sets[set_idx]
        if ways is None:
            # New sets are identical (empty lines, a fresh policy), so
            # the order they are built in cannot change a victim.
            ways = [CacheLine() for _ in range(self.ways)]
            self._sets[set_idx] = ways
            self._policies[set_idx] = make_policy(self._policy_name, self.ways)
        policy = self._policies[set_idx]
        way = None
        if self.metadata_ways:
            allowed = (range(0, self.metadata_ways) if is_metadata
                       else range(self.metadata_ways, self.ways))
        elif self._tagged[set_idx] < self.ways:
            allowed = range(self.ways)
        else:
            allowed = ()  # every way is tagged: evict
        for w in allowed:
            if ways[w].line_addr < 0:
                way = w
                self._tagged[set_idx] += 1
                break
        evicted: Optional[Eviction] = None
        if way is None:
            way = (policy.victim_among(list(allowed)) if self.metadata_ways
                   else policy.victim())
            victim = ways[way]
            if victim.valid_mask:
                evicted = Eviction(victim.line_addr, victim.dirty_mask,
                                   victim.valid_mask, victim.is_metadata)
                self._evictions.value += 1
                if victim.dirty_mask:
                    self._writebacks.value += 1
                if self._insp is not None:
                    # Conflict eviction: some way elsewhere in the cache
                    # is still free, so set imbalance — not capacity —
                    # displaced this line.
                    self._insp.evicted(
                        set_idx,
                        len(self._directory) < self.num_sets * self.ways)
            del self._directory[victim.line_addr]
        line = ways[way]
        line.line_addr = line_addr
        line.valid_mask = line.dirty_mask = line.verified_mask = 0
        line.poisoned_mask = 0
        line.is_metadata = is_metadata
        self._directory[line_addr] = (set_idx, way)
        policy.on_fill(way, low_priority=low_priority)
        if self._insp is not None:
            self._insp.filled(
                set_idx, sum(1 for w in ways if w.line_addr >= 0))
        if is_metadata:
            self._metadata_fills.value += 1
        return line, evicted

    def fill_sector(self, line: CacheLine, sector: int, *,
                    dirty: bool = False, verified: bool = True) -> None:
        """Install one sector into an already-allocated line."""
        bit = 1 << sector
        line.valid_mask |= bit
        # Fresh contents replace whatever was poisoned here.
        line.poisoned_mask &= ~bit
        if dirty:
            line.dirty_mask |= bit
        if verified:
            line.verified_mask |= bit
        else:
            line.verified_mask &= ~bit

    def fill_sectors(self, line: CacheLine, mask: int, *,
                     dirty: bool = False, verified: bool = True) -> None:
        """Batched :meth:`fill_sector` over a whole sector mask."""
        line.valid_mask |= mask
        line.poisoned_mask &= ~mask
        if dirty:
            line.dirty_mask |= mask
        if verified:
            line.verified_mask |= mask
        else:
            line.verified_mask &= ~mask

    def mark_verified(self, line_addr: int, sector_mask: int) -> None:
        """Flip sectors to verified once their granule check completes."""
        line = self.probe(line_addr)
        if line is not None:
            line.verified_mask |= line.valid_mask & sector_mask

    def write_sector(self, addr: int) -> Tuple[LookupResult, Optional[CacheLine]]:
        """Write hit path: mark the sector dirty if resident."""
        result, line = self.lookup(addr)
        if result is LookupResult.HIT and line is not None:
            line.dirty_mask |= 1 << self.sector_of(addr)
        return result, line

    def invalidate(self, line_addr: int) -> Optional[Eviction]:
        """Drop a line (returning writeback work if it was dirty).

        Counts the displacement in the ``evictions``/``writebacks``
        stats exactly like a capacity eviction in :meth:`allocate`, so
        recovery-path metadata invalidations stay visible; callers
        (including :meth:`flush`) must not count again.
        """
        loc = self._directory.get(line_addr)
        if loc is None:
            return None
        line = self._sets[loc[0]][loc[1]]
        evicted = None
        if line.dirty_mask:
            evicted = Eviction(line.line_addr, line.dirty_mask,
                               line.valid_mask, line.is_metadata)
        if line.valid_mask:
            self._evictions.value += 1
            if evicted is not None:
                self._writebacks.value += 1
            if self._insp is not None:
                self._insp.invalidated(loc[0])
        line.reset()
        del self._directory[line_addr]
        self._tagged[loc[0]] -= 1
        return evicted

    def flush(self) -> List[Eviction]:
        """Write back and invalidate everything (end-of-kernel drain).

        Drops every line in one pass, returning the dirty lines'
        evictions in directory order and counting what :meth:`invalidate`
        would, line by line: one eviction per valid line and one
        writeback per valid dirty line, each valid line also recorded
        by an attached inspector.  Sets and their replacement state stay.
        """
        out = []
        evictions = writebacks = 0
        sets = self._sets
        insp = self._insp
        for set_idx, way in self._directory.values():
            line = sets[set_idx][way]
            dirty = line.dirty_mask
            if line.valid_mask:
                evictions += 1
                if dirty:
                    writebacks += 1
                if insp is not None:
                    insp.invalidated(set_idx)
            if dirty:
                out.append(Eviction(line.line_addr, dirty, line.valid_mask,
                                    line.is_metadata))
            line.line_addr = -1
            line.valid_mask = line.dirty_mask = line.verified_mask = 0
            line.poisoned_mask = 0
            line.is_metadata = False
        self._evictions.value += evictions
        self._writebacks.value += writebacks
        self._directory.clear()
        self._tagged = [0] * self.num_sets
        return out

    # -- introspection ---------------------------------------------------------

    @property
    def full_sector_mask(self) -> int:
        return self._full_mask

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        return len(self._directory) / (self.num_sets * self.ways)

    def metadata_occupancy(self) -> float:
        """Fraction of valid lines that hold metadata."""
        if not self._directory:
            return 0.0
        meta = sum(
            1 for set_idx, way in self._directory.values()
            if self._sets[set_idx][way].is_metadata
        )
        return meta / len(self._directory)

    def __repr__(self) -> str:
        return (f"SectoredCache({self.name}, {self.size_bytes // 1024} KiB, "
                f"{self.ways}-way, {self.line_bytes}B lines, "
                f"{self.sector_bytes}B sectors, {self._policy_name})")
