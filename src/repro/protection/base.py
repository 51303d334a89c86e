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
Schemes never talk to SMs.  A scheme that never uses the L2 services
and grants exactly what it is asked, in issue order, declares
:attr:`ProtectionScheme.l2_transparent`; the functional tier then runs
it against a recording of the L2 instead of the L2 itself.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.dram.backing import FunctionalMemory
from repro.dram.channel import MemoryChannel, RequestKind
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
                 ecc_check_latency: int = 4, recovery=None):
        self.sim = sim
        self.layout = layout
        self.channels = channels
        self.stats = stats
        #: The latency attributor, set by
        #: :meth:`repro.obs.hub.Observability.attach`.
        self._attributor = None
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
        #: The L2 slices, set by :meth:`wire_l2` once they exist.
        self._slices: Optional[Sequence] = None
        # Granule geometry.  A line's tiling repeats with the data span
        # of one metadata atom, so the line memo keys on the sector mask
        # and the line's phase in that span, never on the line address;
        # a granule's tiles repeat with its phase within a line.
        self._span = layout.data_per_meta_atom
        self._span_granules = layout.granules_per_meta_atom
        self._granule_bytes = layout.granule_bytes
        #: Last line base whose sectors all lie below the metadata region.
        self._last_data_base = layout.metadata_base - line_bytes
        self._tilings: Dict[Tuple[int, int], tuple] = {}
        self._granule_tiles: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    # -- wiring -------------------------------------------------------------

    def wire_l2(self, slices: Optional[Sequence]) -> None:
        """Connect the L2 slices (called by the system once they exist),
        or disconnect them (``None``) once a run is over.

        Each ``l2_*`` service calls the slice's own method —
        ``resident_mask``, ``install_sectors``, ``poison_sectors`` or
        ``invalidate_line`` — so a hand-wired context passes stand-ins
        with those four methods, one per channel.
        """
        self._slices = slices

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
        slices = self._slices
        assert slices is not None, "context not wired"
        return slices[slice_id].resident_mask(line_addr, clean_only)

    def l2_install(self, slice_id: int, line_addr: int, sector_mask: int, *,
                   is_metadata: bool = False, low_priority: bool = False,
                   dirty: bool = False, verified: bool = True) -> None:
        """Insert sectors into a slice's L2 (reconstructed caching).

        ``verified=False`` installs write-only state (masked metadata
        updates) that later reads must not hit."""
        slices = self._slices
        assert slices is not None, "context not wired"
        slices[slice_id].install_sectors(
            line_addr, sector_mask, is_metadata=is_metadata,
            low_priority=low_priority, dirty=dirty, verified=verified)

    def l2_poison(self, slice_id: int, line_addr: int, mask: int) -> None:
        """Mark sectors of a resident L2 line poisoned (recovery)."""
        slices = self._slices
        assert slices is not None, "context not wired"
        slices[slice_id].poison_sectors(line_addr, mask)

    def l2_invalidate(self, slice_id: int, line_addr: int) -> None:
        """Drop a resident L2 line without writeback (recovery)."""
        slices = self._slices
        assert slices is not None, "context not wired"
        slices[slice_id].invalidate_line(line_addr)

    # -- granule geometry -----------------------------------------------------

    def granules_of(self, line_addr: int, sector_mask: int) -> Tuple[int, ...]:
        """Distinct granules under a line's set sectors, in sector order."""
        period, (granules, _atoms) = self._tiling(line_addr, sector_mask)
        first = period * self._span_granules
        if len(granules) == 1:
            return (first + granules[0],)
        return tuple([first + granule for granule in granules])

    def meta_atoms_of(self, line_addr: int, sector_mask: int
                      ) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """``(atom, granules)`` for each metadata atom checking a line's
        set sectors, in the order the metadata reads are issued."""
        period, (_granules, atoms) = self._tiling(line_addr, sector_mask)
        first = period * self._span_granules
        atom0 = period * self.layout.atom_bytes
        if len(atoms) == 1:
            atom, granules = atoms[0]
            if len(granules) == 1:
                return ((atom0 + atom, (first + granules[0],)),)
            return ((atom0 + atom, tuple([first + g for g in granules])),)
        # Atoms rise with the address (see :meth:`_tiling`), so the
        # reads go out in address order.
        return tuple([(atom0 + atom, tuple([first + g for g in granules]))
                      for atom, granules in atoms])

    def granule_lines(self, granule: int) -> Tuple[Tuple[int, int], ...]:
        """``(line_addr, sector_mask)`` tiles covering a granule.

        The tiles repeat with the granule's phase within a line, so the
        memo keys on that phase and holds each tile's line as an offset
        from the granule's first line: it holds at most one entry per
        sector of a line, whatever the footprint.
        """
        first, phase = divmod(granule * self._granule_bytes, self.line_bytes)
        tiles = self._granule_tiles.get(phase)
        if tiles is None:
            tiles = self._granule_tiles[phase] = self._walk_tiles(phase)
        if len(tiles) == 1:
            return ((first, tiles[0][1]),)
        return tuple([(first + offset, mask) for offset, mask in tiles])

    def _walk_tiles(self, phase: int) -> Tuple[Tuple[int, int], ...]:
        """``(line offset, sector_mask)`` tiles of a granule starting
        ``phase`` bytes into its first line."""
        line_bytes, sector_bytes = self.line_bytes, self.sector_bytes
        end = phase + self._granule_bytes
        found = []
        for offset in range((end - 1) // line_bytes + 1):
            line_base = offset * line_bytes
            # Sectors lo..hi-1 of this line hold granule bytes.
            lo = (max(phase, line_base) - line_base) // sector_bytes
            hi = (min(end, line_base + line_bytes) - line_base
                  + sector_bytes - 1) // sector_bytes
            found.append((offset, (1 << hi) - (1 << lo)))
        return tuple(found)

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
        attributor = self._attributor
        if attributor is not None and attributor.current is not None:
            # Inside an attributed fetch scope: stamp the in-scope load
            # token when this read's data returns (data vs metadata).
            callback = attributor.link_read(
                kind is RequestKind.METADATA, callback)
        self.channels[slice_id].enqueue(addr, False, kind, callback, atoms)

    def dram_write(self, slice_id: int, addr: int, kind: RequestKind,
                   atoms: int = 1) -> None:
        self.channels[slice_id].enqueue(addr, True, kind, None, atoms)


class ProtectionScheme(abc.ABC):
    """Base class for all schemes; subclasses register themselves."""

    #: Registry key; subclasses must override.
    name: str = ""

    #: True when the scheme stores metadata inline in data DRAM —
    #: gates the trace-level metadata-locality prediction (see
    #: :mod:`repro.analysis.locality`) and makes the layout's metadata
    #: a DRAM capacity cost (:meth:`storage_overhead`).
    has_inline_metadata: bool = False

    #: True when the scheme leaves the L2 alone: it never calls the
    #: context's L2 services (``l2_resident_verified``, ``l2_install``,
    #: ``l2_poison``, ``l2_invalidate``), grants exactly the sectors it
    #: was asked for, and grants a drain's fetches in the order they
    #: were issued.  The L2 then does the same work under every such
    #: scheme, so the functional tier replays it once per trace and
    #: runs only the scheme in each later cell of that trace (stage 3
    #: of :mod:`repro.sim.functional`).  A fact about the class, like
    #: :attr:`has_inline_metadata`, not a setting.
    l2_transparent: bool = False

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

    def metadata_caches(self) -> tuple:
        """The scheme's dedicated metadata caches, which
        :meth:`repro.obs.hub.Observability.attach` hands to the tracer
        and the inspector.  The base scheme has none; schemes with
        dedicated caches override this."""
        return ()

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
        done = on_done  # one run: its read is the last to return
        if len(runs) > 1:
            remaining = [len(runs)]

            def one_done() -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    on_done()
            done = one_done

        base = line_addr * ctx.line_bytes
        sector_bytes = ctx.sector_bytes
        for start, length in runs:
            ctx.dram_read(slice_id, base + start * sector_bytes, kind, done,
                          length)

    def write_mask(self, slice_id: int, line_addr: int, mask: int,
                   kind: RequestKind) -> None:
        """Write all sectors in ``mask`` of a line (posted)."""
        ctx = self.ctx
        assert ctx is not None
        base = line_addr * ctx.line_bytes
        sector_bytes = ctx.sector_bytes
        for start, length in mask_runs(mask, ctx.sectors_per_line):
            ctx.dram_write(slice_id, base + start * sector_bytes, kind, length)

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
            self._decode_clean.value += 1
            return None
        result = ctx.functional.verify_granule(granule)
        if result is None or result.status is DecodeStatus.CLEAN:
            self._decode_clean.value += 1
            return None if result is None else result.status
        if result.status is DecodeStatus.CORRECTED:
            self._decode_corrected.value += 1
        else:
            self._decode_due.value += 1
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
            if ctx.functional is None:
                # No decoder to run: every decode counts as clean.
                self._decode_clean.value += len(granules)
            else:
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
