"""Miss-status holding registers.

An MSHR entry tracks one outstanding line-granular miss; sector misses
to the same line merge into the existing entry (secondary misses) up to
a merge limit.  When the file is full (or the entry is out of merge
slots) the requester must stall — the GPU front end models that stall
by re-trying on a later cycle.  A stalled allocate changes nothing but
one stall counter, which :meth:`MshrFile.stall_counts` names, so a
retry can be replayed without re-running it until the file changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.stats import Counter, StatGroup


@dataclass(slots=True)
class MshrEntry:
    """One in-flight miss: target line plus merged waiters."""

    key: int
    #: Sector mask requested so far.
    sector_mask: int = 0
    #: One opaque token per merged request, in arrival order; the
    #: owner gets them back from :meth:`MshrFile.fill` (or
    #: :meth:`MshrFile.complete`) and fires them (the L2 queues
    #: callbacks, the SM credits waiting warps).
    waiters: List[Any] = field(default_factory=list)
    #: Sectors the owner has received so far; the entry completes once
    #: they cover ``sector_mask``.
    filled: int = 0

    @property
    def merges(self) -> int:
        return max(0, len(self.waiters) - 1)


class MshrFile:
    """A bounded map of line address -> :class:`MshrEntry`."""

    def __init__(self, name: str, entries: int, max_merges: int = 16,
                 stats: Optional[StatGroup] = None):
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.name = name
        self.capacity = entries
        self.max_merges = max_merges
        self._entries: Dict[int, MshrEntry] = {}
        group = stats.child(name) if stats is not None else StatGroup(name)
        self.stats = group
        self._allocs = group.counter("allocations")
        self._merges = group.counter("merges")
        self._full_stalls = group.counter("full_stalls")
        self._merge_stalls = group.counter("merge_stalls")
        self.peak = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def get(self, key: int) -> Optional[MshrEntry]:
        return self._entries.get(key)

    def allocate(self, key: int, sector_mask: int,
                 waiter: Any = None) -> Optional[int]:
        """Allocate or merge ``sector_mask`` for ``key``, adding
        ``waiter`` (if given) to the entry's waiters.

        Returns the sectors this call newly requested, which the caller
        must fetch: all of ``sector_mask`` for a new entry, those not
        yet requested for a merge (0 if none).  Returns None on a stall,
        when the file is full or the entry is out of merge slots.
        """
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            if len(entry.waiters) >= self.max_merges:
                self._merge_stalls.value += 1
                return None
            added = sector_mask & ~entry.sector_mask
            entry.sector_mask |= added
            if waiter is not None:
                entry.waiters.append(waiter)
            self._merges.value += 1
            return added
        occupied = len(entries)
        if occupied >= self.capacity:
            self._full_stalls.value += 1
            return None
        entries[key] = MshrEntry(key, sector_mask,
                                 [] if waiter is None else [waiter])
        self._allocs.value += 1
        if occupied >= self.peak:
            self.peak = occupied + 1
        return sector_mask

    def stall_counts(self, key: int) -> Tuple[Tuple[Counter, int], ...]:
        """What a stalled :meth:`allocate` of ``key`` adds to the
        counters: a merge stall when the line has an entry (out of merge
        slots), else a full stall."""
        if key in self._entries:
            return ((self._merge_stalls, 1),)
        return ((self._full_stalls, 1),)

    def fill(self, key: int, mask: int) -> Optional[List[Any]]:
        """Record ``mask`` as received for ``key``'s entry.

        When the entry's received sectors now cover everything it
        requested, the entry is removed and its waiters are returned,
        in arrival order, for the caller to fire.  Returns None while
        sectors are still outstanding, and when ``key`` has no entry.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry.filled |= mask
        if entry.sector_mask & ~entry.filled:
            return None
        del self._entries[key]
        return entry.waiters

    def complete(self, key: int) -> List[Any]:
        """Remove the entry; returns its waiters for the caller to fire."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return []
        return entry.waiters
