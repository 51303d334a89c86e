"""Protection-scheme interface and shared machinery.

A scheme implements two operations:

``fetch(slice_id, line_addr, sector_mask, on_ready)``
    The L2 slice missed on ``sector_mask`` of ``line_addr``.  The
    scheme issues whatever DRAM traffic verification requires and calls
    ``on_ready(granted_mask)`` exactly once, where ``granted_mask`` is
    a superset of ``sector_mask`` — extra sectors the scheme fetched
    anyway (full-granule fetch, verification fills) are granted to the
    slice so they get cached.

``writeback(slice_id, line_addr, dirty_mask, valid_mask, is_metadata)``
    A dirty line fell out of the L2 (or a dedicated structure).  The
    scheme writes the data and regenerates/updates metadata, issuing
    read-modify-write fills when the codeword needs absent sectors.

The :class:`ProtectionContext` is the scheme's window into the system:
memory channels, L2 probes/fills, the inline-ECC layout and its
granule geometry, the optional functional store, and a stats group.
Schemes never talk to SMs.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.dram.backing import FunctionalMemory
from repro.dram.channel import DramRequest, MemoryChannel, RequestKind
from repro.dram.layout import InlineEccLayout
from repro.ecc.base import DecodeStatus, ErrorCode
from repro.protection.codes import build_code
from repro.sim.engine import Simulator
from repro.sim.stats import StatGroup

#: Default DRAM metadata region base (16 GiB, above any workload heap).
METADATA_BASE = 1 << 34


@lru_cache(maxsize=4096)
def mask_runs(mask: int, limit: int) -> Tuple[Tuple[int, int], ...]:
    """``(start_sector, length)`` for contiguous runs in a mask.

    Memoized: only ``2**sectors_per_line`` distinct masks exist, and
    run extraction sits on every DRAM read/write path.
    """
    runs = []
    sector = 0
    while sector < limit:
        if mask & (1 << sector):
            start = sector
            while sector < limit and mask & (1 << sector):
                sector += 1
            runs.append((start, sector - start))
        else:
            sector += 1
    return tuple(runs)


def _noop() -> None:
    """Completion sink for posted read-modify-write fills."""


class ProtectionContext:
    """System services handed to a scheme at bind time."""

    def __init__(self, sim: Simulator, layout: InlineEccLayout,
                 channels: List[MemoryChannel], stats: StatGroup,
                 sector_bytes: int, line_bytes: int,
                 slice_chunk_bytes: int,
                 functional: Optional[FunctionalMemory] = None,
                 ecc_check_latency: int = 4,
                 obs=None, recovery=None):
        if obs is None:
            from repro.obs.hub import OBS_OFF
            obs = OBS_OFF
        self.sim = sim
        self.layout = layout
        self.channels = channels
        self.stats = stats
        #: The run's observability hub (tracer + optional attributor).
        self.obs = obs
        self.tracer = obs.tracer
        # Cached so the disabled hot path is a single None check; the
        # attributor must already be attached when the context is built.
        self._latency = obs.latency
        self.sector_bytes = sector_bytes
        self.line_bytes = line_bytes
        self.sectors_per_line = line_bytes // sector_bytes
        #: Partition interleave granularity (one metadata atom's coverage).
        self.slice_chunk_bytes = slice_chunk_bytes
        self.functional = functional
        self.ecc_check_latency = ecc_check_latency
        #: Optional :class:`~repro.resilience.recovery.RecoveryController`;
        #: ``None`` keeps the legacy count-only verification path.
        self.recovery = recovery
        # Wired in by the system after slices exist.
        self._resident_cb: Optional[Callable[[int, int], int]] = None
        self._install_cb: Optional[Callable[..., None]] = None
        self._poison_cb: Optional[Callable[[int, int, int], None]] = None
        self._invalidate_cb: Optional[Callable[[int, int], None]] = None
        # Granule geometry.  A line's tiling repeats with the data span
        # of one metadata atom, so the line memo keys on the sector mask
        # and the line's phase in that span, never on the line address.
        self._span = layout.data_per_meta_atom
        self._span_granules = layout.granules_per_meta_atom
        #: Last line base whose sectors all lie below the metadata region.
        self._last_data_base = layout.metadata_base - line_bytes
        self._tilings: Dict[Tuple[int, int], tuple] = {}
        self._granule_tiles: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    # -- wiring -------------------------------------------------------------

    def wire_l2(self, resident_cb: Callable[[int, int], int],
                install_cb: Callable[..., None],
                poison_cb: Optional[Callable[[int, int, int], None]] = None,
                invalidate_cb: Optional[Callable[[int, int], None]] = None
                ) -> None:
        """Connect L2 probe and install callbacks (called by the system).

        ``poison_cb(slice_id, line_addr, mask)`` and
        ``invalidate_cb(slice_id, line_addr)`` are the recovery layer's
        hooks; optional so hand-wired test contexts keep working.
        """
        self._resident_cb = resident_cb
        self._install_cb = install_cb
        self._poison_cb = poison_cb
        self._invalidate_cb = invalidate_cb

    # -- L2 services ----------------------------------------------------------

    def l2_resident_verified(self, slice_id: int, line_addr: int,
                             clean_only: bool = True) -> int:
        """Mask of reusable sectors of a line in that slice's L2.

        With ``clean_only`` (the default, used for data reconstruction)
        dirty sectors are excluded: their DRAM copy is stale, so they
        cannot stand in for a DRAM fetch when checking the *DRAM*
        codeword.  With ``clean_only=False`` (metadata probes) dirty
        sectors count — a dirty metadata sector is the authoritative
        copy.
        """
        assert self._resident_cb is not None, "context not wired"
        return self._resident_cb(slice_id, line_addr, clean_only)

    def l2_install(self, slice_id: int, line_addr: int, sector_mask: int, *,
                   is_metadata: bool = False, low_priority: bool = False,
                   dirty: bool = False, verified: bool = True) -> None:
        """Insert sectors into a slice's L2 (reconstructed caching).

        ``verified=False`` installs write-only state (masked metadata
        updates) that later reads must not hit."""
        assert self._install_cb is not None, "context not wired"
        self._install_cb(slice_id, line_addr, sector_mask,
                         is_metadata=is_metadata, low_priority=low_priority,
                         dirty=dirty, verified=verified)

    def l2_poison(self, slice_id: int, line_addr: int, mask: int) -> None:
        """Mark sectors of a resident L2 line poisoned (no-op if unwired)."""
        if self._poison_cb is not None:
            self._poison_cb(slice_id, line_addr, mask)

    def l2_invalidate(self, slice_id: int, line_addr: int) -> None:
        """Drop a resident L2 line without writeback (no-op if unwired)."""
        if self._invalidate_cb is not None:
            self._invalidate_cb(slice_id, line_addr)

    # -- address helpers ------------------------------------------------------

    def slice_of_addr(self, addr: int) -> int:
        """Partition of a data byte address (chunk-interleaved)."""
        return (addr // self.slice_chunk_bytes) % len(self.channels)

    def to_channel_local(self, addr: int) -> int:
        """Squeeze the slice-interleave bits out of a global address so
        each channel sees a dense local address space (keeps the DRAM
        row model honest)."""
        slices = len(self.channels)
        if slices == 1:
            return addr
        if self.layout.is_metadata(addr):
            base = self.layout.metadata_base
            offset = addr - base
            local = base // slices + offset // slices
            return local - (local % self.sector_bytes)
        chunk = self.slice_chunk_bytes
        return (addr // chunk // slices) * chunk + (addr % chunk)

    # -- granule geometry -----------------------------------------------------

    def granules_of(self, line_addr: int, sector_mask: int) -> Tuple[int, ...]:
        """Distinct granules under a line's set sectors, in sector order."""
        period, (granules, _atoms) = self._tiling(line_addr, sector_mask)
        first = period * self._span_granules
        return tuple([first + granule for granule in granules])

    def meta_atoms_of(self, line_addr: int, sector_mask: int
                      ) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """``(atom, granules)`` for each metadata atom checking a line's
        set sectors, in the order the metadata reads are issued."""
        period, (_granules, atoms) = self._tiling(line_addr, sector_mask)
        first = period * self._span_granules
        atom0 = period * self.layout.atom_bytes
        pairs = tuple([(atom0 + atom, tuple([first + g for g in granules]))
                       for atom, granules in atoms])
        if len(pairs) == 1:
            return pairs
        # Several atoms go out in the iteration order of a set filled in
        # sector order; that order depends on the atoms' values.
        by_atom = dict(pairs)
        return tuple([(atom, by_atom[atom])
                      for atom in set([atom for atom, _g in pairs])])

    def granule_lines(self, granule: int) -> Tuple[Tuple[int, int], ...]:
        """``(line_addr, sector_mask)`` tiles covering a granule."""
        tiles = self._granule_tiles.get(granule)
        if tiles is None:
            line_bytes, sector_bytes = self.line_bytes, self.sector_bytes
            base = self.layout.granule_base(granule)
            end = base + self.layout.granule_bytes
            found = []
            for line_addr in range(base // line_bytes,
                                   (end - 1) // line_bytes + 1):
                line_base = line_addr * line_bytes
                # Sectors lo..hi-1 of this line hold granule bytes.
                lo = (max(base, line_base) - line_base) // sector_bytes
                hi = (min(end, line_base + line_bytes) - line_base
                      + sector_bytes - 1) // sector_bytes
                found.append((line_addr, (1 << hi) - (1 << lo)))
            tiles = self._granule_tiles[granule] = tuple(found)
        return tiles

    def meta_line_and_bit(self, atom: int) -> Tuple[int, int]:
        """L2 line and sector bit that cache a metadata atom."""
        line_bytes = self.line_bytes
        return (atom // line_bytes,
                1 << (atom % line_bytes // self.sector_bytes))

    def _tiling(self, line_addr: int, sector_mask: int):
        """``(period, (granule offsets, ((atom offset, granule offsets),
        ...)))`` for a line, in sector order.  Offsets count from the
        first granule and the first metadata atom of the line's span."""
        base = line_addr * self.line_bytes
        period, phase = divmod(base, self._span)
        key = (sector_mask, phase)
        tiling = self._tilings.get(key)
        # Lines reaching the metadata region are walked every time so
        # that ``granule_of`` refuses exactly the addresses it should.
        if tiling is None or base > self._last_data_base:
            layout = self.layout
            by_atom: Dict[int, List[int]] = {}
            for start, length in mask_runs(sector_mask, self.sectors_per_line):
                for s in range(start, start + length):
                    granule = layout.granule_of(base + s * self.sector_bytes)
                    members = by_atom.setdefault(
                        layout.metadata_atom(granule), [])
                    if granule not in members:
                        members.append(granule)
            first = period * self._span_granules
            atom0 = period * layout.atom_bytes
            # Granules and atoms both rise with the address, so the
            # per-atom lists concatenate to the granules in sector order.
            tiling = self._tilings[key] = (
                tuple([g - first for members in by_atom.values()
                       for g in members]),
                tuple([(atom - atom0, tuple([g - first for g in members]))
                       for atom, members in by_atom.items()]))
        return period, tiling

    # -- DRAM access helpers ----------------------------------------------------

    def dram_read(self, slice_id: int, addr: int, kind: RequestKind,
                  callback: Callable[[], None], atoms: int = 1) -> None:
        latency = self._latency
        if latency is not None and latency.current is not None:
            # Inside an attributed fetch scope: stamp the in-scope load
            # token when this read's data returns (data vs metadata).
            callback = latency.link_read(
                kind is RequestKind.METADATA, callback)
        self.channels[slice_id].enqueue(DramRequest(
            addr=self.to_channel_local(addr), is_write=False, kind=kind,
            callback=callback, atoms=atoms))

    def dram_write(self, slice_id: int, addr: int, kind: RequestKind,
                   atoms: int = 1) -> None:
        self.channels[slice_id].enqueue(DramRequest(
            addr=self.to_channel_local(addr), is_write=True, kind=kind,
            callback=None, atoms=atoms))


class ProtectionScheme(abc.ABC):
    """Base class for all schemes; subclasses register themselves."""

    #: Registry key; subclasses must override.
    name: str = ""

    #: True when the scheme stores metadata inline in data DRAM —
    #: gates the trace-level metadata-locality prediction (see
    #: :mod:`repro.analysis.locality`) and makes the layout's metadata
    #: a DRAM capacity cost (:meth:`storage_overhead`).
    has_inline_metadata: bool = False

    #: Code over each granule (a :func:`~repro.protection.codes.build_code`
    #: name); ``None`` leaves memory unprotected.
    code_name: Optional[str] = None
    #: Data bytes one codeword covers; ``None`` means one DRAM atom.
    granule_bytes: Optional[int] = None

    def __init__(self) -> None:
        self.ctx: Optional[ProtectionContext] = None
        self.stats: Optional[StatGroup] = None
        self.code: Optional[ErrorCode] = None
        self._layout: Optional[InlineEccLayout] = None

    def prepare(self, functional: bool, atom_bytes: int = 32) -> InlineEccLayout:
        """Build the code and the layout; called by the system pre-bind.

        ``self.code`` is set only when ``functional`` asks for real
        encode/decode; metadata sizing reflects the code either way.
        """
        granule_bytes = self.granule_bytes or atom_bytes
        meta = 1
        if self.code_name is not None:
            self.code, meta = build_code(self.code_name, granule_bytes,
                                         functional)
        self._layout = InlineEccLayout(
            granule_bytes=granule_bytes, meta_per_granule=meta,
            metadata_base=METADATA_BASE, atom_bytes=atom_bytes)
        return self._layout

    def bind(self, ctx: ProtectionContext) -> None:
        """Attach to a built system; called once before simulation."""
        self.ctx = ctx
        self.stats = ctx.stats.child(f"protection.{self.name}")
        self._decode_clean = self.stats.counter("decode_clean")
        self._decode_corrected = self.stats.counter("decode_corrected")
        self._decode_due = self.stats.counter("decode_due")
        self._on_bind()

    def _on_bind(self) -> None:
        """Subclass hook for extra stats/structures."""

    # -- the scheme interface ---------------------------------------------------

    @abc.abstractmethod
    def fetch(self, slice_id: int, line_addr: int, sector_mask: int,
              on_ready: Callable[[int], None]) -> None:
        """Serve an L2 sector miss; see module docstring."""

    @abc.abstractmethod
    def writeback(self, slice_id: int, line_addr: int, dirty_mask: int,
                  valid_mask: int, is_metadata: bool) -> None:
        """Handle a dirty eviction; see module docstring."""

    def drain(self) -> None:
        """End-of-run hook: flush any scheme-private dirty state (e.g.
        a dedicated metadata cache) so writes are fully accounted."""

    def attach_introspection(self, insp) -> None:
        """Register scheme-private structures with a
        :class:`~repro.obs.inspect.MemoryInspector` (opt-in
        observability).  The base scheme has nothing to register;
        schemes with dedicated caches override this."""

    # -- overhead accounting ------------------------------------------------------

    def storage_overhead(self) -> float:
        """DRAM capacity fraction consumed by inline metadata."""
        if self.has_inline_metadata and self._layout is not None:
            return self._layout.capacity_overhead
        return 0.0

    def sram_overhead_bytes(self) -> int:
        """Dedicated SRAM the scheme adds (0 for CacheCraft: it
        repurposes the L2)."""
        return 0

    # -- shared helpers -----------------------------------------------------------

    def read_mask(self, slice_id: int, line_addr: int, mask: int,
                  kind: RequestKind, on_done: Callable[[], None]) -> None:
        """Read all sectors in ``mask`` of a line; ``on_done`` fires once
        every atom has returned.  Contiguous sectors share one burst."""
        ctx = self.ctx
        assert ctx is not None
        runs = mask_runs(mask, ctx.sectors_per_line)
        if not runs:
            ctx.sim.schedule(0, on_done)
            return
        remaining = [len(runs)]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                on_done()

        base = line_addr * ctx.line_bytes
        for start, length in runs:
            ctx.dram_read(slice_id, base + start * ctx.sector_bytes,
                          kind, one_done, atoms=length)

    def write_mask(self, slice_id: int, line_addr: int, mask: int,
                   kind: RequestKind) -> None:
        """Write all sectors in ``mask`` of a line (posted)."""
        ctx = self.ctx
        assert ctx is not None
        base = line_addr * ctx.line_bytes
        for start, length in mask_runs(mask, ctx.sectors_per_line):
            ctx.dram_write(slice_id, base + start * ctx.sector_bytes,
                           kind, atoms=length)

    # -- functional verification --------------------------------------------------

    def verify_status(self, granule: int) -> Optional[DecodeStatus]:
        """Run the real decoder and count the outcome.

        Returns the :class:`DecodeStatus` (``None`` when no functional
        store / no code is configured).  DUEs are counted, not fatal —
        the reliability experiments inspect the counters.
        """
        ctx = self.ctx
        assert ctx is not None
        if ctx.functional is None:
            self._decode_clean.add(1)
            return None
        result = ctx.functional.verify_granule(granule)
        if result is None or result.status is DecodeStatus.CLEAN:
            self._decode_clean.add(1)
            return None if result is None else result.status
        if result.status is DecodeStatus.CORRECTED:
            self._decode_corrected.add(1)
        else:
            self._decode_due.add(1)
        return result.status

    def verify_granules_then(self, slice_id: int, granules,
                             proceed: Callable[[], None]) -> None:
        """Verify granules, then run ``proceed`` after the check latency.

        Without a recovery controller this is exactly the legacy fetch
        epilogue: one counted decode per entry (duplicates included),
        then ``proceed`` scheduled ``ecc_check_latency`` cycles out.
        With recovery, each *distinct* granule runs through the
        recovery state machine (correction stall, bounded re-fetch,
        poisoning) and ``proceed`` fires only once all are resolved.
        """
        ctx = self.ctx
        assert ctx is not None
        recovery = ctx.recovery
        if recovery is None:
            for granule in granules:
                self.verify_status(granule)
            ctx.sim.schedule(ctx.ecc_check_latency, proceed)
            return
        distinct = list(dict.fromkeys(granules))
        if not distinct:
            ctx.sim.schedule(ctx.ecc_check_latency, proceed)
            return
        remaining = [len(distinct)]

        def resolved() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                ctx.sim.schedule(ctx.ecc_check_latency, proceed)

        for granule in distinct:
            recovery.resolve(self, slice_id, granule, resolved)

    # -- recovery surface ---------------------------------------------------------

    def refetch_granule(self, slice_id: int, granule: int,
                        on_done: Callable[[], None]) -> None:
        """Re-read a granule's data + metadata atom (recovery replay).

        All traffic is tagged :attr:`RequestKind.RETRY` so recovery
        bandwidth is a distinct line in the traffic breakdown.
        """
        ctx = self.ctx
        assert ctx is not None
        parts = ctx.granule_lines(granule)
        remaining = [len(parts) + 1]

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                on_done()

        for line_addr, mask in parts:
            self.read_mask(slice_id, line_addr, mask, RequestKind.RETRY,
                           one_done)
        ctx.dram_read(slice_id, ctx.layout.metadata_addr(granule),
                      RequestKind.RETRY, one_done)

    def poison_granule(self, slice_id: int, granule: int) -> None:
        """Mark the granule's resident L2 sectors poisoned."""
        ctx = self.ctx
        assert ctx is not None
        for line_addr, mask in ctx.granule_lines(granule):
            ctx.l2_poison(slice_id, line_addr, mask)

    def invalidate_metadata(self, slice_id: int, granule: int) -> None:
        """Drop any cached copy of the granule's metadata.

        The base implementation is a no-op: schemes that re-read
        metadata from DRAM on every verification have nothing to
        invalidate.  Caching schemes override this.
        """

    def functional_writeback(self, line_addr: int, dirty_mask: int) -> None:
        """Commit dirty sectors to the functional store and re-encode
        the granules they touch."""
        ctx = self.ctx
        assert ctx is not None
        if ctx.functional is None:
            return
        fm = ctx.functional
        base = line_addr * ctx.line_bytes
        for start, length in mask_runs(dirty_mask, ctx.sectors_per_line):
            for s in range(start, start + length):
                addr = base + s * ctx.sector_bytes
                fm.write_sector(addr, _dirty_pattern(addr, ctx.sector_bytes))
        for granule in ctx.granules_of(line_addr, dirty_mask):
            fm.update_metadata(granule)


def _dirty_pattern(addr: int, sector_bytes: int) -> bytes:
    """Deterministic 'new data' for a store — the simulator does not
    track register values, only that the bytes changed."""
    import hashlib

    return hashlib.blake2b(
        addr.to_bytes(8, "little"), digest_size=sector_bytes,
        person=b"store-data",
    ).digest()


#: name -> scheme class; populated by subclasses via register_scheme.
SCHEME_REGISTRY: Dict[str, Type[ProtectionScheme]] = {}


def register_scheme(cls: Type[ProtectionScheme]) -> Type[ProtectionScheme]:
    """Class decorator adding a scheme to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no name")
    if cls.name in SCHEME_REGISTRY:
        raise ValueError(f"duplicate scheme name {cls.name!r}")
    SCHEME_REGISTRY[cls.name] = cls
    return cls


def scheme_class(name: str) -> Type[ProtectionScheme]:
    """The registered scheme class of that name."""
    # Importing here lets `scheme_class("cachecraft")` work without the
    # caller importing repro.core first.
    from repro.core import cachecraft  # noqa: F401  (registers itself)

    try:
        return SCHEME_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; known: {sorted(SCHEME_REGISTRY)}"
        ) from None


def make_scheme(name: str, **kwargs) -> ProtectionScheme:
    """Instantiate a registered scheme by name."""
    return scheme_class(name)(**kwargs)
