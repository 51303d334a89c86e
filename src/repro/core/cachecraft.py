"""CacheCraft: reconstructed caching for protected GPU memory.

The mechanism (reconstructed here from the paper's title and the
authors' research line — see DESIGN.md):

1. **Per-granule codes.**  One codeword covers a whole protection
   granule (128 B+), giving lower redundancy and stronger protection
   than per-sector codes — but a lone sector cannot be verified by
   itself.

2. **Reconstruction instead of refetch.**  On a sector miss, the rest
   of the granule is very often already in the L2, brought in by
   earlier misses.  CacheCraft reassembles the granule from
   (a) resident *clean, verified* sectors — reused for free,
   (b) the demanded sectors — fetched anyway, and
   (c) only the genuinely absent remainder — "verification fills".
   The codeword is checked once over the reconstructed granule in a
   small **craft buffer**; everything fetched is installed into the L2
   as verified (the fills are effectively accurate prefetches).

2b. **The contribution directory** (the heart of "reconstructed
   caching").  The granule code is *linear*: its check bits are the
   XOR of independent per-sector contributions ``H_s * data_s``.  When
   a granule is verified once, CacheCraft computes and retains every
   sector's 2-byte contribution — physically, in repurposed L2
   SRAM-ECC bits while the sector is resident, and in a compact
   per-slice *craft directory* after eviction.  A later miss on a lone
   sector of that granule then verifies **without refetching the
   siblings**: syndrome = stored check bits XOR contribution of the
   fetched sector XOR the directory's retained contributions.  A
   nonzero syndrome cannot distinguish a fetched-sector error from a
   stale contribution, so the checker falls back to a full-granule
   fetch in that (rare) case; the fast path fetches only demand.

3. **Metadata lives in the L2.**  Instead of a dedicated SRAM metadata
   cache, metadata atoms are cached in the regular L2 under an
   adaptive (set-dueling) insertion policy: when metadata shows reuse
   it is kept at normal priority, when it thrashes it is inserted at
   evict-next priority so it cannot pollute the cache.

4. **Write-path reconstruction.**  Regenerating a granule codeword on
   a dirty eviction reuses resident clean sectors the same way,
   turning most read-modify-writes into plain writes.

Every component is individually defeatable for the ablation experiment
(F7): ``reconstruction``, ``verified_bits``, ``adaptive_insertion``,
``metadata_in_l2``, and ``craft_entries``.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Tuple

from repro.dram.channel import RequestKind
from repro.protection.base import ProtectionScheme, _noop, register_scheme

#: Codes whose check bits are a linear (XOR-decomposable) function of
#: per-sector data — the property the contribution directory and the
#: incremental write path rely on.
LINEAR_CODES = frozenset({"secded", "tagged", "interleaved", "bch", "rs"})


class _CraftEntry:
    """An in-flight granule reconstruction."""

    __slots__ = ("granule", "waiters", "pending", "fetched", "reused",
                 "verify_fills", "fired")

    def __init__(self, granule: int):
        self.granule = granule
        #: (line_addr, want_mask, on_ready) to grant when verification
        #: completes (or speculatively, when the demand data arrives).
        self.waiters: List[Tuple[int, int, Callable[[int], None]]] = []
        self.pending = 0
        #: line_addr -> sector mask fetched from DRAM for this granule.
        self.fetched: Dict[int, int] = {}
        self.reused = 0
        self.verify_fills = 0
        #: Indices of waiters already granted speculatively.
        self.fired: set = set()


@register_scheme
class CacheCraft(ProtectionScheme):
    """The reconstructed-caching protection scheme."""

    name = "cachecraft"

    #: Metadata is packed inline in data DRAM (the whole point), so the
    #: trace-level metadata-locality prediction applies.
    has_inline_metadata = True

    #: Set-dueling constants (leader groups hashed from line address).
    DUEL_MOD = 64
    DUEL_NORMAL = frozenset(range(0, 4))
    DUEL_LOW = frozenset(range(4, 8))
    PSEL_MAX = 512

    def __init__(self, code_name: str = "secded", granule_bytes: int = 128,
                 craft_entries: int = 64, adaptive_insertion: bool = True,
                 reconstruction: bool = True, verified_bits: bool = True,
                 metadata_in_l2: bool = True,
                 directory_entries: int = 4096,
                 speculative_use: bool = False) -> None:
        super().__init__()
        #: Extension (experiment F10): grant demanded sectors the moment
        #: their data arrives and finish verification in the background.
        #: Rare verification failures would flush-and-replay (containment
        #: is assumed, not modeled) — sound for reliability ECC, not for
        #: security tagging.
        self.speculative_use = speculative_use
        self.code_name = code_name
        self.granule_bytes = granule_bytes
        self.craft_entries = craft_entries
        self.adaptive_insertion = adaptive_insertion
        self.reconstruction = reconstruction
        self.verified_bits = verified_bits
        self.metadata_in_l2 = metadata_in_l2
        #: Per-slice capacity of the contribution directory (granules).
        #: 0 disables it (the F7 ablation).
        self.directory_entries = directory_entries
        self._psel = 0
        self._linear = code_name in LINEAR_CODES

    # -- construction ---------------------------------------------------------

    def sram_overhead_bytes(self) -> int:
        # Craft buffer entries hold one granule + metadata each; the
        # contribution directory holds a tag plus 2 B per sector.
        meta = self._layout.meta_per_granule if self._layout else 4
        sectors = max(1, self.granule_bytes // 32)
        craft = self.craft_entries * (self.granule_bytes + meta)
        directory = self.directory_entries * (6 + 2 * sectors)
        slices = len(self.ctx.channels) if self.ctx else 1
        return (craft + directory) * slices

    def _on_bind(self) -> None:
        assert self.ctx is not None and self.stats is not None
        slices = len(self.ctx.channels)
        self._crafts: List[Dict[int, _CraftEntry]] = [dict() for _ in range(slices)]
        self._overflow: List[Deque[tuple]] = [deque() for _ in range(slices)]
        # Contribution directory: per-slice LRU of granule -> sector
        # mask whose check contributions are retained.
        self._directory: List["OrderedDict[int, int]"] = [
            OrderedDict() for _ in range(slices)
        ]
        # In-flight metadata atom fetches: atom addr -> waiter callbacks.
        self._pending_meta: List[Dict[int, List[Callable[[], None]]]] = [
            dict() for _ in range(slices)
        ]
        s = self.stats
        self._demand_sectors = s.counter("demand_sectors")
        self._reused_sectors = s.counter("reused_sectors")
        self._contrib_sectors = s.counter("contrib_sectors")
        self._dir_hits = s.counter("directory_hits")
        self._dir_misses = s.counter("directory_misses")
        self._verify_fill_sectors = s.counter("verify_fill_sectors")
        self._rmw_fill_sectors = s.counter("rmw_fill_sectors")
        self._meta_l2_hits = s.counter("meta_l2_hits")
        self._meta_l2_misses = s.counter("meta_l2_misses")
        self._meta_dir_hits = s.counter("meta_directory_hits")
        self._meta_write_throughs = s.counter("meta_write_throughs")
        self._granules_verified = s.counter("granules_verified")
        self._granules_no_extra_fetch = s.counter("granules_no_extra_fetch")
        self._craft_stalls = s.counter("craft_full_stalls")
        self._speculative_grants = s.counter("speculative_grants")
        self._wb_granules = s.counter("writeback_granules")
        self._wb_clean_regen = s.counter("writeback_clean_regen")

    # -- contribution directory ---------------------------------------------------

    def _dir_lookup(self, slice_id: int, granule: int) -> int:
        """Retained-contribution sector mask for a granule (LRU touch)."""
        if not self.directory_entries or not self.reconstruction \
                or not self._linear:
            return 0
        directory = self._directory[slice_id]
        mask = directory.get(granule)
        if mask is None:
            self._dir_misses.add(1)
            return 0
        directory.move_to_end(granule)
        self._dir_hits.add(1)
        return mask

    def _dir_store(self, slice_id: int, granule: int, mask: int) -> None:
        if not self.directory_entries or not self.reconstruction:
            return
        directory = self._directory[slice_id]
        directory[granule] = directory.get(granule, 0) | mask
        directory.move_to_end(granule)
        while len(directory) > self.directory_entries:
            directory.popitem(last=False)

    # -- geometry helpers --------------------------------------------------------

    def _line_portion(self, granule: int, line_addr: int) -> int:
        for g_line, g_mask in self.ctx.granule_lines(granule):
            if g_line == line_addr:
                return g_mask
        return 0

    def _to_local(self, granule: int, line_addr: int, line_mask: int) -> int:
        """Map a line-relative sector mask to granule-local sector indices."""
        ctx = self.ctx
        shift = (line_addr * ctx.line_bytes
                 - ctx.layout.granule_base(granule)) // ctx.sector_bytes
        return (line_mask << shift) if shift >= 0 else (line_mask >> -shift)

    def _from_local(self, granule: int, line_addr: int, local_mask: int) -> int:
        ctx = self.ctx
        shift = (line_addr * ctx.line_bytes
                 - ctx.layout.granule_base(granule)) // ctx.sector_bytes
        mask = (local_mask >> shift) if shift >= 0 else (local_mask << -shift)
        return mask & ((1 << ctx.sectors_per_line) - 1)

    @property
    def _full_local_mask(self) -> int:
        sectors = max(1, self.granule_bytes // self.ctx.sector_bytes)
        return (1 << sectors) - 1

    def _reusable(self, slice_id: int, line_addr: int, g_mask: int) -> int:
        """Resident sectors that can stand in for a DRAM fetch."""
        if not self.reconstruction:
            return 0
        resident = self.ctx.l2_resident_verified(slice_id, line_addr,
                                                 clean_only=True) & g_mask
        if not self.verified_bits:
            # Ablation: without per-sector verified bits only a line
            # whose granule portion is fully resident is trustworthy.
            if resident != g_mask:
                return 0
        return resident

    # -- metadata path --------------------------------------------------------------

    def _meta_line_and_bit(self, granule: int) -> Tuple[int, int]:
        ctx = self.ctx
        return ctx.meta_line_and_bit(ctx.layout.metadata_atom(granule))

    def _duel_bucket(self, meta_line: int) -> str:
        group = meta_line % self.DUEL_MOD
        if group in self.DUEL_NORMAL:
            return "normal"
        if group in self.DUEL_LOW:
            return "low"
        return "follower"

    def _insert_low_priority(self, meta_line: int) -> bool:
        if not self.adaptive_insertion:
            return False
        bucket = self._duel_bucket(meta_line)
        if bucket == "normal":
            return False
        if bucket == "low":
            return True
        return self._psel < 0

    def _note_meta_miss(self, meta_line: int) -> None:
        if not self.adaptive_insertion:
            return
        bucket = self._duel_bucket(meta_line)
        # A miss in a leader group is evidence against that policy.
        if bucket == "normal":
            self._psel = max(-self.PSEL_MAX, self._psel - 1)
        elif bucket == "low":
            self._psel = min(self.PSEL_MAX, self._psel + 1)

    @property
    def psel(self) -> int:
        """Current set-dueling selector (negative favours low priority)."""
        return self._psel

    def _fetch_metadata(self, slice_id: int, granule: int,
                        done: Callable[[], None]) -> None:
        ctx = self.ctx
        meta_line, bit = self._meta_line_and_bit(granule)
        if not self.metadata_in_l2:
            ctx.dram_read(slice_id, ctx.layout.metadata_atom(granule),
                          RequestKind.METADATA, done)
            return
        resident = ctx.l2_resident_verified(slice_id, meta_line,
                                            clean_only=False)
        if resident & bit:
            self._meta_l2_hits.add(1)
            ctx.sim.schedule(2, done)
            return
        self._meta_l2_misses.add(1)
        self._note_meta_miss(meta_line)
        self._meta_read_merged(slice_id, granule, meta_line, bit, done)

    def invalidate_metadata(self, slice_id: int, granule: int) -> None:
        """Drop the L2 line caching this granule's metadata atom
        (recovery: the cached copy derives from corrupted DRAM)."""
        if not self.metadata_in_l2:
            return  # metadata is re-read from DRAM every time
        meta_line, _bit = self._meta_line_and_bit(granule)
        self.ctx.l2_invalidate(slice_id, meta_line)

    def _meta_read_merged(self, slice_id: int, granule: int, meta_line: int,
                          bit: int, done: Callable[[], None]) -> None:
        """Fetch a metadata atom, merging concurrent requests for it."""
        ctx = self.ctx
        atom = ctx.layout.metadata_atom(granule)
        pending = self._pending_meta[slice_id]
        waiters = pending.get(atom)
        if waiters is not None:
            waiters.append(done)
            return
        pending[atom] = [done]

        def arrived() -> None:
            ctx.l2_install(slice_id, meta_line, bit, is_metadata=True,
                           low_priority=self._insert_low_priority(meta_line))
            for waiter in pending.pop(atom, ()):
                waiter()

        ctx.dram_read(slice_id, atom, RequestKind.METADATA, arrived)

    # -- fetch path -------------------------------------------------------------------

    def fetch(self, slice_id: int, line_addr: int, sector_mask: int,
              on_ready: Callable[[int], None]) -> None:
        ctx = self.ctx
        assert ctx is not None
        granules = ctx.granules_of(line_addr, sector_mask)
        if len(granules) == 1:
            self._fetch_granule(slice_id, granules[0], line_addr,
                                sector_mask, on_ready)
            return
        # granule < line: several independent reconstructions must all
        # land before the slice's sectors are granted.
        remaining = [len(granules)]
        granted = [0]

        def merge(mask: int) -> None:
            granted[0] |= mask
            remaining[0] -= 1
            if remaining[0] == 0:
                on_ready(granted[0] | sector_mask)

        for granule in granules:
            portion = self._line_portion(granule, line_addr)
            self._fetch_granule(slice_id, granule, line_addr,
                                sector_mask & portion, merge)

    def _fetch_granule(self, slice_id: int, granule: int, line_addr: int,
                       want_mask: int, on_ready: Callable[[int], None]) -> None:
        crafts = self._crafts[slice_id]
        entry = crafts.get(granule)
        if entry is not None:
            entry.waiters.append((line_addr, want_mask, on_ready))
            return
        if len(crafts) >= self.craft_entries:
            self._craft_stalls.add(1)
            self._overflow[slice_id].append(
                (granule, line_addr, want_mask, on_ready))
            return
        entry = _CraftEntry(granule)
        entry.waiters.append((line_addr, want_mask, on_ready))
        crafts[granule] = entry
        self._start_reconstruction(slice_id, entry, line_addr, want_mask)

    def _start_reconstruction(self, slice_id: int, entry: _CraftEntry,
                              req_line: int, want_mask: int) -> None:
        entry.pending += 1  # guard against same-event completion
        contrib_local = self._dir_lookup(slice_id, entry.granule)
        # A directory entry holds the granule's *reconstructed metadata*
        # — its check bits plus retained per-sector contributions — so a
        # hit also covers the metadata fetch.
        meta_from_directory = contrib_local != 0

        for g_line, g_mask in self.ctx.granule_lines(entry.granule):
            reused = self._reusable(slice_id, g_line, g_mask)
            demand = (want_mask if g_line == req_line else 0) & g_mask & ~reused
            # Sectors neither resident nor demanded can still verify via
            # their retained check contributions — no DRAM touch at all.
            contrib = (self._from_local(entry.granule, g_line, contrib_local)
                       & g_mask & ~reused & ~demand)
            fills = g_mask & ~reused & ~demand & ~contrib
            entry.reused += _popcount(reused)
            self._contrib_sectors.add(_popcount(contrib))
            if demand:
                entry.pending += 1
                entry.fetched[g_line] = entry.fetched.get(g_line, 0) | demand
                self._demand_sectors.add(_popcount(demand))
                self.read_mask(
                    slice_id, g_line, demand, RequestKind.DATA,
                    lambda e=entry, s=slice_id, ln=g_line, d=demand, r=reused:
                        self._demand_arrived(s, e, ln, d | r))
            if fills:
                entry.pending += 1
                entry.fetched[g_line] = entry.fetched.get(g_line, 0) | fills
                entry.verify_fills += _popcount(fills)
                self._verify_fill_sectors.add(_popcount(fills))
                self.read_mask(slice_id, g_line, fills,
                               RequestKind.VERIFY_FILL,
                               lambda e=entry, s=slice_id: self._piece_done(s, e))

        if meta_from_directory:
            self._meta_dir_hits.add(1)
        else:
            entry.pending += 1
            self._fetch_metadata(slice_id, entry.granule,
                                 lambda: self._piece_done(slice_id, entry))
        self._reused_sectors.add(entry.reused)
        self._piece_done(slice_id, entry)  # release the guard

    def _demand_arrived(self, slice_id: int, entry: _CraftEntry,
                        line_addr: int, available_mask: int) -> None:
        """Demand data landed; under speculative use, grant waiters that
        are fully covered before verification completes."""
        if self.speculative_use:
            for idx, (w_line, w_want, on_ready) in enumerate(entry.waiters):
                if idx in entry.fired or w_line != line_addr:
                    continue
                if w_want & ~available_mask:
                    continue
                entry.fired.add(idx)
                self._speculative_grants.add(1)
                on_ready(available_mask)
        self._piece_done(slice_id, entry)

    def _piece_done(self, slice_id: int, entry: _CraftEntry) -> None:
        entry.pending -= 1
        if entry.pending:
            return
        self._granules_verified.add(1)
        if entry.verify_fills == 0:
            self._granules_no_extra_fetch.add(1)
        # Verification reconstructed every sector's contribution; retain
        # them so future lone-sector misses skip the sibling fetches.
        self._dir_store(slice_id, entry.granule, self._full_local_mask)
        self.verify_granules_then(slice_id, (entry.granule,),
                                  lambda: self._finish(slice_id, entry))

    def _finish(self, slice_id: int, entry: _CraftEntry) -> None:
        ctx = self.ctx
        crafts = self._crafts[slice_id]
        crafts.pop(entry.granule, None)
        nonspec_lines = set()
        for idx, (line_addr, _want, on_ready) in enumerate(entry.waiters):
            if idx in entry.fired:
                continue  # already granted speculatively
            nonspec_lines.add(line_addr)
            portion = self._line_portion(entry.granule, line_addr)
            on_ready(portion)
        # Sectors fetched for lines whose waiters were all speculative
        # (or that have no waiter at all) still get cached — this is the
        # "reconstructed caching" of the paper's title.
        for g_line, fetched in entry.fetched.items():
            if g_line not in nonspec_lines and fetched:
                ctx.l2_install(slice_id, g_line, fetched)
        # Admit queued reconstructions freed capacity allows.
        queue = self._overflow[slice_id]
        while queue and len(crafts) < self.craft_entries:
            granule, line_addr, want_mask, on_ready = queue.popleft()
            self._fetch_granule(slice_id, granule, line_addr, want_mask,
                                on_ready)

    # -- write path ---------------------------------------------------------------------

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
            self._wb_granules.add(1)
            portion = self._line_portion(granule, line_addr)
            dirty_here = dirty_mask & portion
            if self._linear:
                # Two valid ways to produce the new codeword, pick the
                # one that fetches less:
                #  (delta)     new = old check XOR old/new contribution
                #              deltas of the written sectors — needs old
                #              copies of *dirty* sectors not in the
                #              directory;
                #  (recompute) new = XOR of every sector's contribution
                #              — needs the *non-dirty* sectors, from the
                #              directory, resident clean data, or DRAM.
                contrib_local = self._dir_lookup(slice_id, granule)
                delta_missing = {line_addr: dirty_here & ~self._from_local(
                    granule, line_addr, contrib_local)}
                recompute_missing: Dict[int, int] = {}
                for g_line, g_mask in ctx.granule_lines(granule):
                    nondirty = g_mask & ~(dirty_here if g_line == line_addr
                                          else 0)
                    held = self._from_local(granule, g_line, contrib_local)
                    held |= self._reusable(slice_id, g_line, g_mask)
                    if g_line == line_addr:
                        held |= valid_mask  # eviction carries its data
                    miss = nondirty & ~held
                    if miss:
                        recompute_missing[g_line] = miss
                delta_cost = sum(map(_popcount, delta_missing.values()))
                recompute_cost = sum(map(_popcount, recompute_missing.values()))
                missing = (delta_missing if delta_cost <= recompute_cost
                           else recompute_missing)
                total = min(delta_cost, recompute_cost)
                if total == 0:
                    self._wb_clean_regen.add(1)
                for g_line, miss in missing.items():
                    if miss:
                        self._rmw_fill_sectors.add(_popcount(miss))
                        self.read_mask(slice_id, g_line, miss,
                                       RequestKind.VERIFY_FILL, _noop)
                self._dir_store(slice_id, granule,
                                self._to_local(granule, line_addr, dirty_here))
            else:
                # Non-linear codes (MACs) need the whole granule present
                # to regenerate; reuse what the eviction and the L2 hold.
                missing_total = 0
                for g_line, g_mask in ctx.granule_lines(granule):
                    if g_line == line_addr:
                        held = valid_mask & g_mask
                    else:
                        held = self._reusable(slice_id, g_line, g_mask)
                    missing = g_mask & ~held
                    if missing:
                        missing_total += _popcount(missing)
                        self._rmw_fill_sectors.add(_popcount(missing))
                        self.read_mask(slice_id, g_line, missing,
                                       RequestKind.VERIFY_FILL, _noop)
                if missing_total == 0:
                    self._wb_clean_regen.add(1)
            self._update_metadata(slice_id, granule)
        self.write_mask(slice_id, line_addr, dirty_mask, RequestKind.WRITEBACK)

    def _update_metadata(self, slice_id: int, granule: int) -> None:
        """Commit a regenerated codeword.

        The new check bits were just computed in the craft buffer, so
        no read is ever needed.  The update coalesces in the L2: the
        metadata sector is dirtied in place if cached, or allocated
        *write-only* (unverified — byte-masked, without fetching the
        rest of the atom) if not; the eventual eviction emits one
        masked METADATA_WRITE for many granule updates.
        """
        ctx = self.ctx
        meta_line, bit = self._meta_line_and_bit(granule)
        self._meta_write_throughs.add(1)
        if not self.metadata_in_l2:
            ctx.dram_write(slice_id, ctx.layout.metadata_atom(granule),
                           RequestKind.METADATA_WRITE)
            return
        # Write-only metadata is a short-lived coalescing buffer (the
        # directory retains the check bits): always insert at evict-next
        # priority so it cannot displace the data working set.
        ctx.l2_install(slice_id, meta_line, bit, is_metadata=True,
                       dirty=True, verified=False, low_priority=True)


# Bound method descriptor: ``_popcount(mask)`` == ``mask.bit_count()``
# without the per-call attribute lookup (this runs on every grant).
_popcount = int.bit_count
