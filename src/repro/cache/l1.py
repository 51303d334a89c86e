"""The SMs' L1 data cache, on both fidelity tiers.

Sectored, write-through and no-allocate: loads fill it, stores leave
it alone, and an atomic (executed at the L2) clears its sectors in the
L1 copy.  No line is ever dirty or holds metadata, so the L1 keeps only
each resident line's valid-sector mask, in exact LRU order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.sim.stats import Counter, StatGroup


class L1Cache:
    """One SM's L1.  Each set is an ``OrderedDict`` (line -> valid
    sector mask), built at its first fill: insertion order is fill
    order, ``move_to_end`` the hit promotion and ``popitem(last=False)``
    the victim.  A line whose mask atomics zeroed stays resident (its
    tag matches, every sector misses) and is not counted as an eviction
    when displaced.

    Registers the eight ``l1`` counters of a
    :class:`~repro.cache.sectored.SectoredCache` in its order, so the
    flattened keys are the same; ``writebacks``, ``metadata_fills`` and
    ``metadata_hits`` stay 0.
    """

    __slots__ = ("num_sets", "ways", "stats", "_sets", "_hits",
                 "_sector_misses", "_line_misses", "_line_miss_sectors",
                 "_evictions")

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 128,
                 stats: Optional[StatGroup] = None):
        if ways < 1 or size_bytes % (ways * line_bytes):
            raise ValueError("an L1 needs ways >= 1 and a size that is a "
                             "multiple of ways * line_bytes")
        self.num_sets = size_bytes // (ways * line_bytes)
        self.ways = ways
        self._sets: List[Optional[OrderedDict]] = [None] * self.num_sets
        group = stats.child("l1") if stats is not None else StatGroup("l1")
        self.stats = group
        self._hits = group.counter("hits")
        self._sector_misses = group.counter("sector_misses")
        self._line_misses = group.counter("line_misses")
        self._line_miss_sectors = group.counter("line_miss_sectors")
        self._evictions = group.counter("evictions")
        for name in ("writebacks", "metadata_fills", "metadata_hits"):
            group.counter(name)

    def lookup(self, line: int, mask: int) -> int:
        """The resident part of ``mask``; a hit makes the line MRU.  Hits
        and sector misses count sectors, a line miss counts once (its
        sectors go to ``line_miss_sectors``)."""
        lines = self._sets[line % self.num_sets]
        valid = lines.get(line) if lines else None
        if valid is None:
            self._line_misses.value += 1
            self._line_miss_sectors.value += mask.bit_count()
            return 0
        hit = mask & valid
        if hit:
            self._hits.value += hit.bit_count()
            lines.move_to_end(line)
        if hit != mask:
            self._sector_misses.value += (mask & ~valid).bit_count()
        return hit

    def miss_counts(self, line: int, mask: int
                    ) -> Tuple[Tuple[Counter, int], ...]:
        """What a :meth:`lookup` of ``mask`` that hit no sector adds to
        the counters (what a parked retry replays)."""
        lines = self._sets[line % self.num_sets]
        if lines and line in lines:
            return ((self._sector_misses, mask.bit_count()),)
        return ((self._line_misses, 1),
                (self._line_miss_sectors, mask.bit_count()))

    def fill(self, line: int, mask: int) -> None:
        """Install ``mask``'s sectors.  A resident line keeps its LRU
        place; a new one becomes MRU, evicting the LRU line of a full
        set."""
        index = line % self.num_sets
        lines = self._sets[index]
        if lines is None:
            lines = self._sets[index] = OrderedDict()
        valid = lines.get(line)
        if valid is not None:
            lines[line] = valid | mask
            return
        if len(lines) >= self.ways and lines.popitem(last=False)[1]:
            self._evictions.value += 1
        lines[line] = mask

    def clear(self, line: int, mask: int) -> bool:
        """Invalidate ``mask``'s sectors of a resident line (an atomic
        made them stale); True when the line was resident."""
        lines = self._sets[line % self.num_sets]
        valid = lines.get(line) if lines else None
        if valid is None:
            return False
        lines[line] = valid & ~mask
        return True

    def resident(self, line: int) -> Optional[int]:
        """The valid-sector mask of ``line``, None when it is not
        resident; no counter or LRU order changes."""
        lines = self._sets[line % self.num_sets]
        return lines.get(line) if lines else None
