"""Dedicated SRAM metadata cache.

The conventional fix for inline-ECC metadata traffic: a small cache of
metadata atoms at each memory partition.  CacheCraft's counter-design
caches metadata in the (much larger) L2 instead; experiment F6 sweeps
this structure's size to find the crossover.

The cache is write-back: metadata updates from writebacks dirty the
cached atom, and dirty victims emit a METADATA_WRITE.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.sectored import LookupResult, SectoredCache
from repro.sim.stats import StatGroup


class DedicatedMetadataCache:
    """A per-partition cache of 32 B metadata atoms.

    ``sim`` timestamps the ``mdcache``-category instants (misses, fills,
    invalidations) a traced run records; it is required only once
    :meth:`repro.obs.hub.Observability.attach` sets ``_tracer``.
    """

    def __init__(self, name: str, size_bytes: int, atom_bytes: int = 32,
                 ways: int = 8, stats: Optional[StatGroup] = None,
                 sim=None):
        if size_bytes < ways * atom_bytes:
            raise ValueError("metadata cache smaller than one set")
        self.name = name
        self.atom_bytes = atom_bytes
        self._sim = sim
        #: The ``mdcache``-category tracer, set by
        #: :meth:`repro.obs.hub.Observability.attach`.
        self._tracer = None
        #: Opt-in reconstruction-efficacy view; set exclusively by
        #: :class:`repro.obs.inspect.MemoryInspector` — every hook
        #: below guards on it, so disabled runs are unchanged.
        self._insp = None
        self._cache = SectoredCache(
            name, size_bytes, ways,
            line_bytes=atom_bytes, sector_bytes=atom_bytes,
            policy="lru", stats=stats,
        )

    @property
    def stats(self) -> StatGroup:
        return self._cache.stats

    def lookup(self, atom_addr: int, granules=()) -> bool:
        """True on a *readable* hit (write-only entries do not count).

        ``granules`` names the data granules whose metadata this
        lookup serves; it feeds only the opt-in introspection view
        (colocation accounting) and has no effect on behaviour.
        """
        result, _line = self._cache.lookup(atom_addr, require_verified=True)
        hit = result is LookupResult.HIT
        if self._insp is not None:
            self._insp.note_lookup(self._cache.line_addr_of(atom_addr),
                                   hit, granules)
        if not hit and self._tracer is not None:
            self._tracer.instant("mdcache", f"{self.name}_miss",
                                 self._sim.now, args={"atom": atom_addr})
        return hit

    def insert(self, atom_addr: int, *, dirty: bool = False,
               verified: bool = True, granules=()) -> Optional[int]:
        """Install an atom; returns the address of a dirty victim atom
        needing writeback, if any.

        ``verified=False`` is a masked write-allocate: only this
        granule's bytes are present, so reads must still miss until a
        fetch-backed insert upgrades the entry.
        """
        line_addr = self._cache.line_addr_of(atom_addr)
        line, evicted = self._cache.allocate(line_addr, is_metadata=True)
        if self._insp is not None:
            self._insp.note_fill(
                line_addr, granules,
                evicted.line_addr if evicted is not None else None)
        if self._tracer is not None:
            self._tracer.instant(
                "mdcache", f"{self.name}_fill", self._sim.now,
                args={"atom": atom_addr, "dirty": dirty,
                      "verified": verified})
        self._cache.fill_sector(line, 0, dirty=dirty, verified=verified)
        if dirty:
            line.dirty_mask |= 1
        if verified:
            line.verified_mask |= line.valid_mask
        if evicted is not None and evicted.dirty_mask:
            return evicted.line_addr * self.atom_bytes
        return None

    def invalidate(self, atom_addr: int) -> bool:
        """Drop an atom *without* writeback (recovery: the cached copy
        derives from corrupted metadata and must not reach DRAM).
        Returns True if an entry was dropped.
        """
        line_addr = self._cache.line_addr_of(atom_addr)
        line = self._cache.probe(line_addr)
        dropped = line is not None and line.valid
        if self._insp is not None and dropped:
            self._insp.note_invalidate(line_addr)
        self._cache.invalidate(line_addr)  # discard even if dirty
        if dropped and self._tracer is not None:
            self._tracer.instant("mdcache", f"{self.name}_invalidate",
                                 self._sim.now, args={"atom": atom_addr})
        return dropped

    def mark_dirty(self, atom_addr: int) -> bool:
        """Dirty an atom if present; returns hit."""
        line = self._cache.probe(self._cache.line_addr_of(atom_addr))
        if line is None or not line.valid:
            return False
        line.dirty_mask |= 1
        return True

    def flush_dirty(self) -> Tuple[int, ...]:
        """Addresses of all dirty atoms (end-of-run drain accounting)."""
        return tuple(
            ev.line_addr * self.atom_bytes for ev in self._cache.flush()
        )
