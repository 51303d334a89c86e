"""Baseline protection schemes.

See the package docstring for the scheme taxonomy.  CacheCraft itself
lives in :mod:`repro.core.cachecraft`; everything here is a baseline it
is compared against.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.dram.channel import RequestKind
from repro.protection.base import ProtectionScheme, _noop, register_scheme
from repro.protection.mdcache import DedicatedMetadataCache


@register_scheme
class NoProtection(ProtectionScheme):
    """Unprotected memory: every sector fetch is one DRAM atom."""

    name = "none"

    def fetch(self, slice_id: int, line_addr: int, sector_mask: int,
              on_ready: Callable[[int], None]) -> None:
        self.read_mask(slice_id, line_addr, sector_mask, RequestKind.DATA,
                       lambda: on_ready(sector_mask))

    def writeback(self, slice_id: int, line_addr: int, dirty_mask: int,
                  valid_mask: int, is_metadata: bool) -> None:
        self.functional_writeback(line_addr, dirty_mask)
        self.write_mask(slice_id, line_addr, dirty_mask, RequestKind.WRITEBACK)


@register_scheme
class SidebandEcc(ProtectionScheme):
    """ECC on dedicated devices (HBM-style): check latency, no traffic.

    The metadata rides on extra DRAM devices fetched in the same burst,
    so the only cost is the checker latency.  This is the performance
    ceiling any inline scheme chases.
    """

    name = "sideband"

    def __init__(self, code_name: str = "secded") -> None:
        super().__init__()
        self.code_name = code_name

    @property
    def device_overhead(self) -> float:
        """Extra DRAM devices, as a fraction (sideband's real cost)."""
        layout = self._layout
        return layout.capacity_overhead if layout else 0.0

    def fetch(self, slice_id: int, line_addr: int, sector_mask: int,
              on_ready: Callable[[int], None]) -> None:
        ctx = self.ctx
        assert ctx is not None

        def done() -> None:
            self.verify_granules_then(
                slice_id, ctx.granules_of(line_addr, sector_mask),
                lambda: on_ready(sector_mask))

        self.read_mask(slice_id, line_addr, sector_mask, RequestKind.DATA, done)

    def writeback(self, slice_id: int, line_addr: int, dirty_mask: int,
                  valid_mask: int, is_metadata: bool) -> None:
        self.functional_writeback(line_addr, dirty_mask)
        self.write_mask(slice_id, line_addr, dirty_mask, RequestKind.WRITEBACK)


@register_scheme
class InlineSectorCode(ProtectionScheme):
    """Per-sector code, metadata fetched from DRAM on every miss.

    Each 32 B sector carries its own code so a sector is verifiable in
    isolation, but every L2 miss costs an extra metadata atom read and
    every dirty writeback a masked metadata write per atom it touches.
    This is the naive inline-ECC floor.
    """

    name = "inline-sector"

    #: Inline metadata lives in data DRAM — enables the trace-level
    #: metadata-locality prediction (see repro.analysis.locality).
    has_inline_metadata = True

    def __init__(self, code_name: str = "secded") -> None:
        super().__init__()
        self.code_name = code_name

    def _on_bind(self) -> None:
        assert self.stats is not None
        self._meta_reads = self.stats.counter("metadata_reads")
        self._meta_writes = self.stats.counter("metadata_writes")

    # -- metadata access points (overridden by the MDC variant) -----------------

    def _read_meta_atom(self, slice_id: int, atom_addr: int,
                        done: Callable[[], None], granules) -> None:
        """``granules`` names the data granules this atom read serves;
        it feeds only opt-in introspection (colocation accounting in
        the MDC variant) and never alters behaviour."""
        self._meta_reads.add(1)
        assert self.ctx is not None
        self.ctx.dram_read(slice_id, atom_addr, RequestKind.METADATA, done)

    def _update_meta_atom(self, slice_id: int, atom_addr: int,
                          granules) -> None:
        """Metadata update for a writeback (posted).

        GDDR-class DRAM supports byte-masked writes (DM pins), so the
        controller updates a granule's bytes inside the packed atom
        with a single write — no read-modify-write."""
        assert self.ctx is not None
        self._meta_writes.add(1)
        self.ctx.dram_write(slice_id, atom_addr, RequestKind.METADATA_WRITE)

    # -- scheme interface ----------------------------------------------------------

    def fetch(self, slice_id: int, line_addr: int, sector_mask: int,
              on_ready: Callable[[int], None]) -> None:
        ctx = self.ctx
        assert ctx is not None
        atoms = ctx.meta_atoms_of(line_addr, sector_mask)
        remaining = [1 + len(atoms)]  # data + each metadata atom

        def part_done() -> None:
            remaining[0] -= 1
            if remaining[0]:
                return
            self.verify_granules_then(
                slice_id, ctx.granules_of(line_addr, sector_mask),
                lambda: on_ready(sector_mask))

        self.read_mask(slice_id, line_addr, sector_mask, RequestKind.DATA,
                       part_done)
        for atom, granules in atoms:
            self._read_meta_atom(slice_id, atom, part_done, granules)

    def writeback(self, slice_id: int, line_addr: int, dirty_mask: int,
                  valid_mask: int, is_metadata: bool) -> None:
        if is_metadata:
            # Only reachable if a subclass caches metadata in L2; write through.
            self.write_mask(slice_id, line_addr, dirty_mask,
                            RequestKind.METADATA_WRITE)
            return
        self.functional_writeback(line_addr, dirty_mask)
        self.write_mask(slice_id, line_addr, dirty_mask, RequestKind.WRITEBACK)
        for atom, granules in self.ctx.meta_atoms_of(line_addr, dirty_mask):
            self._update_meta_atom(slice_id, atom, granules)


@register_scheme
class MetadataCacheScheme(InlineSectorCode):
    """Per-sector code plus a dedicated SRAM metadata cache per slice.

    The strong conventional baseline: spatial locality in metadata
    atoms (one atom covers 16+ sectors) gives the small cache a high
    hit rate on regular workloads; CacheCraft's claim is that divergent
    workloads and large footprints defeat a fixed small SRAM while the
    L2 adapts.
    """

    name = "metadata-cache"

    def __init__(self, code_name: str = "secded", mdcache_kb: int = 32) -> None:
        super().__init__(code_name)
        self.mdcache_kb = mdcache_kb
        self._mdcs: Dict[int, DedicatedMetadataCache] = {}

    def _on_bind(self) -> None:
        super()._on_bind()
        assert self.ctx is not None and self.stats is not None
        self._mdc_hits = self.stats.counter("mdc_hits")
        self._mdc_misses = self.stats.counter("mdc_misses")
        # In-flight atom fetches: (slice, atom) -> [(callback, dirty)].
        self._pending: Dict[tuple, list] = {}
        for slice_id in range(len(self.ctx.channels)):
            self._mdcs[slice_id] = DedicatedMetadataCache(
                f"mdc{slice_id}", self.mdcache_kb * 1024,
                atom_bytes=self.ctx.layout.atom_bytes, stats=self.stats,
                sim=self.ctx.sim, tracer=self.ctx.tracer)

    def sram_overhead_bytes(self) -> int:
        return self.mdcache_kb * 1024 * len(self._mdcs)

    def attach_introspection(self, insp) -> None:
        """Register the per-slice metadata caches with an inspector."""
        for mdc in self._mdcs.values():
            insp.watch_mdcache(mdc.name, mdc)

    def drain(self) -> None:
        ctx = self.ctx
        assert ctx is not None
        for slice_id, mdc in self._mdcs.items():
            for atom in mdc.flush_dirty():
                self._meta_writes.add(1)
                ctx.dram_write(slice_id, atom, RequestKind.METADATA_WRITE)

    def _read_meta_atom(self, slice_id: int, atom_addr: int,
                        done: Callable[[], None], granules) -> None:
        ctx = self.ctx
        assert ctx is not None
        mdc = self._mdcs[slice_id]
        if mdc.lookup(atom_addr, granules=granules):
            self._mdc_hits.add(1)
            ctx.sim.schedule(2, done)  # SRAM access
            return
        self._mdc_misses.add(1)
        self._fetch_merged(slice_id, atom_addr, done, dirty=False,
                           granules=granules)

    def _update_meta_atom(self, slice_id: int, atom_addr: int,
                          granules) -> None:
        ctx = self.ctx
        assert ctx is not None
        mdc = self._mdcs[slice_id]
        if mdc.mark_dirty(atom_addr):
            # Coalesce repeated updates: the dirty cached atom is
            # written back once on eviction.
            self._mdc_hits.add(1)
            return
        self._mdc_misses.add(1)
        # Masked write-allocate (no fetch): coalesce future updates;
        # the entry stays write-only so reads still miss on it.
        victim = mdc.insert(atom_addr, dirty=True, verified=False,
                            granules=granules)
        if victim is not None:
            self._meta_writes.add(1)
            ctx.dram_write(slice_id, victim, RequestKind.METADATA_WRITE)

    def invalidate_metadata(self, slice_id: int, granule: int) -> None:
        """Drop the granule's cached metadata atom (corrupted in DRAM:
        the SRAM copy must not serve further verifications)."""
        ctx = self.ctx
        assert ctx is not None
        self._mdcs[slice_id].invalidate(ctx.layout.metadata_atom(granule))

    def _fetch_merged(self, slice_id: int, atom_addr: int,
                      done: Optional[Callable[[], None]], dirty: bool,
                      granules=()) -> None:
        """Fetch an atom into the MDC, merging concurrent requests."""
        ctx = self.ctx
        assert ctx is not None
        key = (slice_id, atom_addr)
        waiters = self._pending.get(key)
        if waiters is not None:
            waiters.append((done, dirty, granules))
            return
        self._pending[key] = [(done, dirty, granules)]
        self._meta_reads.add(1)
        mdc = self._mdcs[slice_id]

        def filled() -> None:
            entries = self._pending.pop(key, ())
            make_dirty = any(d for _cb, d, _g in entries)
            merged = tuple(dict.fromkeys(
                g for _cb, _d, gs in entries for g in gs))
            victim = mdc.insert(atom_addr, dirty=make_dirty, granules=merged)
            if victim is not None:
                self._meta_writes.add(1)
                ctx.dram_write(slice_id, victim, RequestKind.METADATA_WRITE)
            for cb, _d, _g in entries:
                if cb is not None:
                    cb()

        ctx.dram_read(slice_id, atom_addr, RequestKind.METADATA, filled)


@register_scheme
class SectorMetadataInL2(InlineSectorCode):
    """Per-sector code with metadata cached in the regular L2.

    The intermediate design point between ``metadata-cache`` and
    ``cachecraft`` (experiment F11): it borrows CacheCraft's
    metadata-in-L2 idea — no dedicated SRAM, write-only coalescing via
    masked writes — but keeps the weaker, costlier per-sector code and
    has no reconstruction machinery.  Whatever it fails to win relative
    to CacheCraft is attributable to the granule code + contribution
    directory, not to the metadata home.
    """

    name = "sector-l2"

    def _on_bind(self) -> None:
        super()._on_bind()
        assert self.ctx is not None and self.stats is not None
        self._meta_l2_hits = self.stats.counter("meta_l2_hits")
        self._meta_l2_misses = self.stats.counter("meta_l2_misses")
        # In-flight metadata atom fetches: (slice, atom) -> callbacks.
        self._pending: Dict[tuple, list] = {}

    def _read_meta_atom(self, slice_id: int, atom_addr: int,
                        done: Callable[[], None], granules) -> None:
        ctx = self.ctx
        assert ctx is not None
        meta_line, bit = ctx.meta_line_and_bit(atom_addr)
        resident = ctx.l2_resident_verified(slice_id, meta_line,
                                            clean_only=False)
        if resident & bit:
            self._meta_l2_hits.add(1)
            ctx.sim.schedule(2, done)
            return
        self._meta_l2_misses.add(1)
        key = (slice_id, atom_addr)
        waiters = self._pending.get(key)
        if waiters is not None:
            waiters.append(done)
            return
        self._pending[key] = [done]
        self._meta_reads.add(1)

        def arrived() -> None:
            ctx.l2_install(slice_id, meta_line, bit, is_metadata=True)
            for waiter in self._pending.pop(key, ()):
                waiter()

        ctx.dram_read(slice_id, atom_addr, RequestKind.METADATA, arrived)

    def _update_meta_atom(self, slice_id: int, atom_addr: int,
                          granules) -> None:
        ctx = self.ctx
        assert ctx is not None
        self._meta_writes.add(1)
        meta_line, bit = ctx.meta_line_and_bit(atom_addr)
        # Masked write-allocate into L2: coalesce, write once on eviction.
        ctx.l2_install(slice_id, meta_line, bit, is_metadata=True,
                       dirty=True, verified=False, low_priority=True)

    def invalidate_metadata(self, slice_id: int, granule: int) -> None:
        """Drop the L2 line holding the granule's metadata atom."""
        ctx = self.ctx
        assert ctx is not None
        meta_line, _bit = ctx.meta_line_and_bit(
            ctx.layout.metadata_atom(granule))
        ctx.l2_invalidate(slice_id, meta_line)


@register_scheme
class InlineFullGranule(MetadataCacheScheme):
    """Per-granule code with full-granule fetch on every miss.

    The code covers a whole granule (128 B+), so redundancy is lower
    and protection stronger than per-sector codes — but a single-sector
    miss must fetch the *entire* granule to verify, which is what makes
    "ECC mode" expensive for memory-divergent workloads.  Metadata goes
    through the same dedicated cache as :class:`MetadataCacheScheme` so
    the comparison against CacheCraft isolates the data-overfetch cost.
    """

    name = "inline-full"

    def __init__(self, code_name: str = "secded", granule_bytes: int = 128,
                 mdcache_kb: int = 32) -> None:
        super().__init__(code_name, mdcache_kb)
        self.granule_bytes = granule_bytes

    def _on_bind(self) -> None:
        super()._on_bind()
        assert self.stats is not None
        self._overfetch_sectors = self.stats.counter("overfetch_sectors")
        self._rmw_sectors = self.stats.counter("rmw_sectors")

    # -- scheme interface ------------------------------------------------------------

    def fetch(self, slice_id: int, line_addr: int, sector_mask: int,
              on_ready: Callable[[int], None]) -> None:
        ctx = self.ctx
        assert ctx is not None
        granules = ctx.granules_of(line_addr, sector_mask)
        pending = [0]
        granted = [0]  # sectors granted to the requesting line
        sibling_fills = []  # (line, mask) for other lines of the granules

        def part_done() -> None:
            pending[0] -= 1
            if pending[0]:
                return
            # Sibling fills install before verification resolves; under
            # recovery a DUE granule's sectors get poisoned afterwards.
            for line, mask in sibling_fills:
                ctx.l2_install(slice_id, line, mask)
            self.verify_granules_then(slice_id, granules,
                                      lambda: on_ready(granted[0]))

        for granule in granules:
            for g_line, g_mask in ctx.granule_lines(granule):
                if g_line == line_addr:
                    demand = g_mask & sector_mask
                    extra = g_mask & ~sector_mask
                    granted[0] |= g_mask
                else:
                    demand = 0
                    extra = g_mask
                    sibling_fills.append((g_line, g_mask))
                if demand:
                    pending[0] += 1
                    self.read_mask(slice_id, g_line, demand,
                                   RequestKind.DATA, part_done)
                if extra:
                    pending[0] += 1
                    self._overfetch_sectors.add(extra.bit_count())
                    self.read_mask(slice_id, g_line, extra,
                                   RequestKind.VERIFY_FILL, part_done)
            pending[0] += 1
            self._read_meta_atom(slice_id, ctx.layout.metadata_atom(granule),
                                 part_done, (granule,))
        if pending[0] == 0:  # cannot happen, but stay safe
            ctx.sim.schedule(0, on_ready, sector_mask)

    def writeback(self, slice_id: int, line_addr: int, dirty_mask: int,
                  valid_mask: int, is_metadata: bool) -> None:
        ctx = self.ctx
        assert ctx is not None
        if is_metadata:
            self.write_mask(slice_id, line_addr, dirty_mask,
                            RequestKind.METADATA_WRITE)
            return
        self.functional_writeback(line_addr, dirty_mask)
        for granule in ctx.granules_of(line_addr, dirty_mask):
            # The codeword needs the whole granule: read whatever the
            # evicted line does not itself hold (no reconstruction —
            # that is CacheCraft's trick, not this baseline's).
            for g_line, g_mask in ctx.granule_lines(granule):
                held = valid_mask if g_line == line_addr else 0
                missing = g_mask & ~held
                if missing:
                    self._rmw_sectors.add(missing.bit_count())
                    self.read_mask(slice_id, g_line, missing,
                                   RequestKind.VERIFY_FILL, _noop)
            self._update_meta_atom(slice_id, ctx.layout.metadata_atom(granule),
                                   (granule,))
        self.write_mask(slice_id, line_addr, dirty_mask, RequestKind.WRITEBACK)
