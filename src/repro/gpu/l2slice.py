"""An L2 slice: one bank of the shared L2 plus its miss handling.

Each slice fronts one memory partition.  Misses go to the protection
scheme — never directly to DRAM — so every scheme sees exactly the
same demand stream and differs only in the traffic it generates.

Fill discipline: a protection grant may deliver more sectors than were
requested (full-granule fetches, verification fills); all granted
sectors are installed as *verified*, but never over a sector that is
already valid (a racing store must not be clobbered by stale memory
data).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.cache.mshr import MshrFile
from repro.cache.sectored import SectoredCache
from repro.protection.base import ProtectionScheme
from repro.sim.engine import Simulator
from repro.sim.stats import StatGroup


class L2Slice:
    """One slice of the L2, owning its cache, MSHRs and protection port."""

    #: Retry interval when the MSHR file is full.
    RETRY_CYCLES = 8
    #: Extra cycles the L2 atomic unit adds per operation.
    ATOMIC_LATENCY = 4

    def __init__(self, slice_id: int, sim: Simulator, protection: ProtectionScheme,
                 size_bytes: int, ways: int = 16, line_bytes: int = 128,
                 sector_bytes: int = 32, latency: int = 32,
                 mshr_entries: int = 192, policy: str = "lru",
                 stats: Optional[StatGroup] = None,
                 metadata_ways: int = 0):
        self.slice_id = slice_id
        self.sim = sim
        self.protection = protection
        self.latency = latency
        #: Observers, set by :meth:`repro.obs.hub.Observability.attach`:
        #: the ``l2``-category tracer and the latency attributor.
        self._tracer = None
        self._attributor = None
        group = stats.child(f"l2s{slice_id}") if stats is not None \
            else StatGroup(f"l2s{slice_id}")
        self.stats = group
        self.cache = SectoredCache(
            "cache", size_bytes, ways, line_bytes=line_bytes,
            sector_bytes=sector_bytes, policy=policy, stats=group,
            metadata_ways=metadata_ways)
        self.mshrs = MshrFile("mshr", mshr_entries, max_merges=64, stats=group)
        self._loads = group.counter("load_requests")
        self._stores = group.counter("store_requests")
        self._atomics = group.counter("atomic_requests")
        self._retries = group.counter("mshr_retries")
        self._poisoned = group.counter("poisoned_sectors")
        self._poison_served = group.counter("poison_served")
        self._invalidated = group.counter("invalidated_lines")
        # Fast-path guard: poison checks only run once something was
        # actually poisoned in this slice.
        self._poison_active = False

    # -- protection-context wiring -------------------------------------------

    def resident_mask(self, line_addr: int, clean_only: bool = True) -> int:
        """Probe for reconstruction: valid+verified sectors, optionally
        excluding dirty ones (whose DRAM copies are stale)."""
        line = self.cache.probe(line_addr)
        if line is None:
            return 0
        mask = line.valid_mask & line.verified_mask
        if clean_only:
            mask &= ~line.dirty_mask
        return mask

    def install_sectors(self, line_addr: int, sector_mask: int, *,
                        is_metadata: bool = False, low_priority: bool = False,
                        dirty: bool = False, verified: bool = True) -> None:
        """Protection-initiated insertion (verification fills, metadata).

        ``verified=False`` installs *write-only* state: a masked
        metadata update allocated without fetching the rest of the atom
        — later reads of it must still miss and fetch.
        """
        line, evicted = self.cache.allocate(
            line_addr, is_metadata=is_metadata, low_priority=low_priority)
        if evicted is not None and evicted.dirty_mask:
            self._defer_writeback(evicted)
        if is_metadata and self._tracer is not None:
            self._tracer.instant(
                "l2", "l2_meta_install", self.sim.now, tid=self.slice_id,
                args={"line": line_addr, "mask": sector_mask,
                      "dirty": dirty, "verified": verified})
        new_mask = sector_mask & ~line.valid_mask
        if new_mask:
            self.cache.fill_sectors(line, new_mask, dirty=dirty,
                                    verified=verified)
        if dirty:
            line.dirty_mask |= sector_mask & line.valid_mask
        if verified:
            # A fetch-backed install upgrades any write-only copy.
            line.verified_mask |= sector_mask & line.valid_mask

    def poison_sectors(self, line_addr: int, sector_mask: int) -> None:
        """Recovery gave up on these sectors: mark any resident copies
        poisoned so consuming loads are counted as propagations."""
        line = self.cache.probe(line_addr)
        if line is None or not line.valid:
            return
        newly = sector_mask & line.valid_mask & ~line.poisoned_mask
        if not newly:
            return
        line.poisoned_mask |= newly
        self._poisoned.value += newly.bit_count()
        self._poison_active = True
        if self._tracer is not None:
            self._tracer.instant(
                "l2", "l2_poison", self.sim.now, tid=self.slice_id,
                args={"line": line_addr, "mask": newly})

    def invalidate_line(self, line_addr: int) -> None:
        """Drop a line *without* writeback (its contents derive from
        corrupted memory and must not be written back)."""
        line = self.cache.probe(line_addr)
        if line is None or not line.valid:
            return
        self.cache.invalidate(line_addr)  # discard any writeback work
        self._invalidated.value += 1
        if self._tracer is not None:
            self._tracer.instant(
                "l2", "l2_invalidate", self.sim.now, tid=self.slice_id,
                args={"line": line_addr})

    # -- request interface (called after crossbar delivery) ---------------------

    def receive_load(self, line_addr: int, sector_mask: int,
                     respond: Callable[[int], None],
                     token=None) -> None:
        """Serve a load for ``sector_mask``; ``respond(mask)`` is called
        once when every requested sector is valid+verified here.

        ``token`` is an optional :class:`repro.obs.latency.LoadToken`
        carried for latency attribution; it is stamped at arrival (and
        by ``respond``, the SM's ``_queue_response``, when it fires).
        """
        self._loads.value += 1
        if token is not None:
            token.t_arrive = self.sim.now
        hit_mask, _line = self.cache.lookup_mask(line_addr, sector_mask)
        if self._poison_active and _line is not None \
                and _line.poisoned_mask & hit_mask:
            # The consumer receives poison instead of silent corruption.
            self._poison_served.value += \
                (_line.poisoned_mask & hit_mask).bit_count()
        miss_mask = sector_mask & ~hit_mask
        if not miss_mask:
            if token is not None:
                token.hit = True
            self.sim.schedule(self.latency, respond, sector_mask)
            return
        if self._tracer is not None:
            self._tracer.instant(
                "l2", "l2_miss", self.sim.now, tid=self.slice_id,
                args={"line": line_addr, "mask": miss_mask})
        self._enqueue_miss(line_addr, sector_mask, miss_mask, respond, token)

    def _enqueue_miss(self, line_addr: int, full_mask: int, miss_mask: int,
                      respond: Callable[[int], None], token=None) -> None:
        new_sectors = self.mshrs.allocate(line_addr, miss_mask,
                                          partial(respond, full_mask))
        if new_sectors is None:
            self._retries.value += 1
            self.sim.schedule(self.RETRY_CYCLES, self._retry_load,
                              line_addr, full_mask, respond, token)
            return
        if new_sectors:
            # A token means an attributor: this transaction triggers the
            # fetch, so open the current-token scope around it and the
            # scheme's synchronous DRAM reads are attributed to it
            # (merged requests wait in the MSHR as queue time).
            if token is not None:
                self._attributor.begin_fetch(token)
            self.protection.fetch(self.slice_id, line_addr, new_sectors,
                                  partial(self._on_grant, line_addr))
            if token is not None:
                self._attributor.end_fetch()

    def _retry_load(self, line_addr: int, full_mask: int,
                    respond: Callable[[int], None], token=None) -> None:
        # Re-evaluate from scratch: sectors may have arrived meanwhile.
        hit_mask, _line = self.cache.lookup_mask(line_addr, full_mask)
        miss_mask = full_mask & ~hit_mask
        if not miss_mask:
            self.sim.schedule(self.latency, respond, full_mask)
            return
        self._enqueue_miss(line_addr, full_mask, miss_mask, respond, token)

    def _on_grant(self, line_addr: int, granted_mask: int) -> None:
        """A protection fetch completed for (a superset of) some sectors."""
        self.install_sectors(line_addr, granted_mask)
        waiters = self.mshrs.fill(line_addr, granted_mask)
        if waiters is None:
            return  # more grants outstanding
        for waiter in waiters:
            self.sim.schedule(self.latency, waiter)

    def receive_atomic(self, line_addr: int, sector_mask: int,
                       ack: Callable[[], None]) -> None:
        """L2-side atomic RMW: unlike a plain store, the old data is
        needed, so missing sectors are fetched (and verified) first;
        the touched sectors end dirty."""
        self._atomics.value += 1
        hit_mask, line = self.cache.lookup_mask(line_addr, sector_mask)
        if hit_mask and line is not None:
            line.dirty_mask |= hit_mask
        miss_mask = sector_mask & ~hit_mask
        if not miss_mask:
            self.sim.schedule(self.latency + self.ATOMIC_LATENCY, ack)
            return

        def fetched(_mask: int) -> None:
            resident = self.cache.probe(line_addr)
            if resident is not None:
                resident.dirty_mask |= miss_mask & resident.valid_mask
            ack()

        self._enqueue_miss(line_addr, sector_mask, miss_mask, fetched)

    def receive_store(self, line_addr: int, sector_mask: int,
                      ack: Callable[[], None]) -> None:
        """Write-allocate at sector granularity; whole-sector writes
        need no fetch (there is nothing to merge with)."""
        self._stores.value += 1
        line, evicted = self.cache.allocate(line_addr)
        if evicted is not None and evicted.dirty_mask:
            self._defer_writeback(evicted)
        self.cache.fill_sectors(line, sector_mask, dirty=True, verified=True)
        line.dirty_mask |= sector_mask
        self.sim.schedule(self.latency, ack)

    # -- drain -------------------------------------------------------------------

    def flush(self) -> int:
        """Evict everything through the protection write path; returns
        the number of dirty lines written back."""
        dirty = 0
        for eviction in self.cache.flush():
            dirty += 1
            self._defer_writeback(eviction)
        return dirty

    def _defer_writeback(self, eviction) -> None:
        """Run the protection write path in a fresh event — eviction
        chains (install -> evict -> install metadata -> evict ...) must
        not recurse on the Python stack."""
        self.sim.schedule(0, self.protection.writeback, self.slice_id,
                          eviction.line_addr, eviction.dirty_mask,
                          eviction.valid_mask, eviction.is_metadata)
