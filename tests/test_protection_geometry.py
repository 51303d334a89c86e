"""The protection context's granule geometry against reference walks.

Every scheme reads the line/granule/metadata-atom tiling from
:class:`~repro.protection.base.ProtectionContext`.  The references below
are the straightforward per-sector walks the schemes once carried
themselves; the context's memoized helpers must return equal tuples in
equal order, including the order metadata reads are issued in.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.layout import InlineEccLayout
from repro.protection.base import (
    METADATA_BASE,
    ProtectionContext,
    make_scheme,
    mask_runs,
)
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

SECTOR = 32


# -- reference walks ------------------------------------------------------------


def _sectors(mask, line_bytes):
    for start, length in mask_runs(mask, line_bytes // SECTOR):
        yield from range(start, start + length)


def ref_per_sector(layout, line_bytes, line_addr, mask):
    """One granule per set sector (duplicates kept)."""
    base = line_addr * line_bytes
    return [layout.granule_of(base + s * SECTOR)
            for s in _sectors(mask, line_bytes)]


def ref_granules_of(layout, line_bytes, line_addr, mask):
    """Distinct granules, first seen first."""
    seen = []
    for granule in ref_per_sector(layout, line_bytes, line_addr, mask):
        if granule not in seen:
            seen.append(granule)
    return tuple(seen)


def ref_tiles_by_range(layout, line_bytes, granule):
    """Tile walk over each line's covered sector range."""
    addr = layout.granule_base(granule)
    end = addr + layout.granule_bytes
    tiles = []
    while addr < end:
        line_addr = addr // line_bytes
        line_base = line_addr * line_bytes
        upto = min(end, line_base + line_bytes)
        mask = 0
        for s in range((addr - line_base) // SECTOR,
                       (upto - line_base + SECTOR - 1) // SECTOR):
            mask |= 1 << s
        tiles.append((line_addr, mask))
        addr = upto
    return tuple(tiles)


def ref_tiles_by_sector(layout, line_bytes, granule):
    """Tile walk stepping one sector at a time."""
    addr = layout.granule_base(granule)
    end = addr + layout.granule_bytes
    tiles = []
    while addr < end:
        line_addr = addr // line_bytes
        line_base = line_addr * line_bytes
        mask = 0
        while addr < end and addr // line_bytes == line_addr:
            mask |= 1 << ((addr - line_base) // SECTOR)
            addr += SECTOR
        tiles.append((line_addr, mask))
    return tuple(tiles)


def ref_meta_atoms(layout, line_bytes, line_addr, mask):
    """Atoms in address order, each with its distinct granules in
    sector order."""
    base = line_addr * line_bytes
    atoms = set()
    by_atom = {}
    for s in _sectors(mask, line_bytes):
        granule = layout.granule_of(base + s * SECTOR)
        atom = layout.metadata_atom(granule)
        atoms.add(atom)
        members = by_atom.setdefault(atom, [])
        if granule not in members:
            members.append(granule)
    return tuple((atom, tuple(by_atom[atom])) for atom in sorted(atoms))


def ref_meta_location(line_bytes, atom):
    return atom // line_bytes, 1 << ((atom % line_bytes) // SECTOR)


# -- strategies -------------------------------------------------------------------


def make_ctx(layout, line_bytes):
    # Geometry needs no memory channels.
    return ProtectionContext(Simulator(), layout, [], StatsRegistry(),
                             sector_bytes=SECTOR, line_bytes=line_bytes,
                             slice_chunk_bytes=4096)


@st.composite
def geometries(draw):
    layout = InlineEccLayout(
        granule_bytes=draw(st.sampled_from([32, 64, 128, 256, 512, 1024])),
        meta_per_granule=draw(st.sampled_from([1, 2, 4, 8, 16, 32])),
        metadata_base=METADATA_BASE, atom_bytes=SECTOR)
    line_bytes = draw(st.sampled_from([64, 128, 256]))
    last_data_line = METADATA_BASE // line_bytes
    line = st.one_of(st.integers(0, 1 << 14),
                     st.integers(last_data_line - 40, last_data_line + 40))
    mask = st.integers(0, (1 << (line_bytes // SECTOR)) - 1)
    accesses = draw(st.lists(st.tuples(line, mask), min_size=1, max_size=24))
    return layout, line_bytes, accesses


def _or_none(fn, *args):
    """``fn(*args)``, or ``None`` where it refuses the address."""
    try:
        return fn(*args)
    except ValueError:
        return None


# -- properties -------------------------------------------------------------------


class TestLineTiling:
    @settings(max_examples=300, deadline=None)
    @given(geometries())
    def test_granules_and_atoms_match_reference(self, geometry):
        layout, line_bytes, accesses = geometry
        ctx = make_ctx(layout, line_bytes)
        # Each access twice: the second answer comes from the memo, and
        # lines sharing a phase share memo entries.
        for line_addr, mask in accesses + accesses:
            granules = _or_none(ref_granules_of, layout, line_bytes,
                                line_addr, mask)
            if granules is None:
                assert mask and line_addr * line_bytes >= METADATA_BASE
                with pytest.raises(ValueError):
                    ctx.granules_of(line_addr, mask)
                with pytest.raises(ValueError):
                    ctx.meta_atoms_of(line_addr, mask)
                continue
            assert ctx.granules_of(line_addr, mask) == granules
            assert ctx.meta_atoms_of(line_addr, mask) == ref_meta_atoms(
                layout, line_bytes, line_addr, mask)
            per_sector = ref_per_sector(layout, line_bytes, line_addr, mask)
            if layout.granule_bytes <= SECTOR:
                # Sideband and per-sector codes: one granule per sector.
                assert list(granules) == per_sector
            else:
                assert granules == tuple(dict.fromkeys(per_sector))

    @settings(max_examples=200, deadline=None)
    @given(geometries(), st.lists(st.integers(0, 1 << 20), max_size=8))
    def test_granule_tiles_match_both_walks(self, geometry, extra):
        layout, line_bytes, accesses = geometry
        ctx = make_ctx(layout, line_bytes)
        granules = list(extra)
        for line_addr, mask in accesses:
            if line_addr * line_bytes < METADATA_BASE:
                granules.extend(ref_granules_of(layout, line_bytes,
                                                line_addr, mask))
        for granule in granules + granules:
            tiles = ctx.granule_lines(granule)
            assert tiles == ref_tiles_by_range(layout, line_bytes, granule)
            assert tiles == ref_tiles_by_sector(layout, line_bytes, granule)

    @settings(max_examples=200, deadline=None)
    @given(geometries())
    def test_meta_line_and_bit_matches_reference(self, geometry):
        layout, line_bytes, accesses = geometry
        ctx = make_ctx(layout, line_bytes)
        for line_addr, _mask in accesses:
            granule = line_addr * line_bytes // layout.granule_bytes
            atom = layout.metadata_atom(granule)
            assert ctx.meta_line_and_bit(atom) == ref_meta_location(
                line_bytes, atom)

    def test_atoms_read_in_address_order(self):
        """32 B granules, 32 B of metadata each, 256 B lines: mask
        0b10000011 reads the atoms at offsets 0, 32 and 224 from the
        line's first atom, on every line (set-iteration order read
        line 0's as 0, 224, 32)."""
        layout = InlineEccLayout(granule_bytes=32, meta_per_granule=32,
                                 metadata_base=METADATA_BASE,
                                 atom_bytes=SECTOR)
        ctx = make_ctx(layout, 256)
        for line_addr in (0, 4):
            atoms = [atom for atom, _granules
                     in ctx.meta_atoms_of(line_addr, 0b10000011)]
            first = layout.metadata_atom(line_addr * 256 // 32)
            assert [atom - first for atom in atoms] == [0, 32, 224]

    def test_metadata_region_refused(self):
        layout = InlineEccLayout(granule_bytes=128, meta_per_granule=2)
        ctx = make_ctx(layout, 128)
        line = METADATA_BASE // 128
        assert ctx.granules_of(line - 1, 0b1111) == (line - 1,)
        # Line 0 has the same phase: its tiling is memoized first, and
        # the metadata region must still be refused.
        ctx.granules_of(0, 0b0001)
        ctx.meta_atoms_of(0, 0b1000)
        with pytest.raises(ValueError):
            ctx.granules_of(line, 0b0001)
        with pytest.raises(ValueError):
            ctx.meta_atoms_of(line, 0b1000)
        assert ctx.granules_of(line, 0) == ()


# -- prepare(): layouts and overheads ---------------------------------------------

#: (scheme, kwargs, atom_bytes) -> (granule_bytes, meta_per_granule,
#: storage_overhead, device_overhead, sram_overhead_bytes); the last two
#: only for sideband and cachecraft respectively.
PREPARED = {
    ("none", (), 32): (32, 1, 0.0, None, None),
    ("none", (), 64): (64, 1, 0.0, None, None),
    ("sideband", (), 32): (32, 2, 0.0, 0.0625, None),
    ("sideband", (), 64): (64, 2, 0.0, 0.03125, None),
    ("sideband", (("code_name", "mac64"),), 32): (32, 8, 0.0, 0.25, None),
    ("sideband", (("code_name", "mac64"),), 64): (64, 8, 0.0, 0.125, None),
    ("inline-sector", (), 32): (32, 2, 0.0625, None, None),
    ("inline-sector", (), 64): (64, 2, 0.03125, None, None),
    ("inline-sector", (("code_name", "secded+mac"),), 32):
        (32, 16, 0.5, None, None),
    ("inline-sector", (("code_name", "secded+mac"),), 64):
        (64, 16, 0.25, None, None),
    ("metadata-cache", (), 32): (32, 2, 0.0625, None, None),
    ("metadata-cache", (), 64): (64, 2, 0.03125, None, None),
    ("metadata-cache", (("code_name", "bch"), ("mdcache_kb", 8)), 32):
        (32, 4, 0.125, None, None),
    ("metadata-cache", (("code_name", "bch"), ("mdcache_kb", 8)), 64):
        (64, 4, 0.0625, None, None),
    ("sector-l2", (), 32): (32, 2, 0.0625, None, None),
    ("sector-l2", (), 64): (64, 2, 0.03125, None, None),
    ("sector-l2", (("code_name", "tagged"),), 32): (32, 2, 0.0625, None, None),
    ("sector-l2", (("code_name", "tagged"),), 64):
        (64, 2, 0.03125, None, None),
    ("inline-full", (), 32): (128, 2, 0.015625, None, None),
    ("inline-full", (), 64): (128, 2, 0.015625, None, None),
    ("inline-full", (("code_name", "rs"), ("granule_bytes", 64)), 32):
        (64, 4, 0.0625, None, None),
    ("inline-full", (("code_name", "rs"), ("granule_bytes", 64)), 64):
        (64, 4, 0.0625, None, None),
    ("inline-full", (("code_name", "interleaved"), ("granule_bytes", 512)),
     32): (512, 8, 0.015625, None, None),
    ("inline-full", (("code_name", "interleaved"), ("granule_bytes", 512)),
     64): (512, 8, 0.015625, None, None),
    ("cachecraft", (), 32): (128, 2, 0.015625, None, 65664),
    ("cachecraft", (), 64): (128, 2, 0.015625, None, 49280),
    ("cachecraft", (("code_name", "bch"), ("craft_entries", 8),
                    ("directory_entries", 0), ("granule_bytes", 256)), 32):
        (256, 4, 0.015625, None, 2080),
    ("cachecraft", (("code_name", "bch"), ("craft_entries", 8),
                    ("directory_entries", 0), ("granule_bytes", 256)), 64):
        (256, 4, 0.015625, None, 2080),
    ("cachecraft", (("code_name", "mac64"), ("granule_bytes", 32)), 32):
        (32, 8, 0.25, None, 35328),
    ("cachecraft", (("code_name", "mac64"), ("granule_bytes", 32)), 64):
        (32, 8, 0.25, None, 35328),
}


class TestPrepare:
    @pytest.mark.parametrize("functional", [False, True])
    @pytest.mark.parametrize("case", sorted(PREPARED, key=repr), ids=repr)
    def test_layout_and_overheads_pinned(self, case, functional):
        name, kwargs, atom_bytes = case
        granule, meta, storage, device, sram = PREPARED[case]
        scheme = make_scheme(name, **dict(kwargs))
        layout = scheme.prepare(functional, atom_bytes=atom_bytes)
        assert (layout.granule_bytes, layout.meta_per_granule,
                layout.metadata_base, layout.atom_bytes) \
            == (granule, meta, METADATA_BASE, atom_bytes)
        assert (scheme.code is None) == (not functional or name == "none")
        assert scheme.storage_overhead() == storage
        if device is not None:
            assert scheme.device_overhead == device
        if sram is not None:
            assert scheme.sram_overhead_bytes() == sram
