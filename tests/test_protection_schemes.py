"""Unit tests for the baseline protection schemes and shared machinery."""

import pytest

from repro.dram.channel import MemoryChannel, RequestKind
from repro.dram.timing import DramTiming
from repro.protection.base import (
    SCHEME_REGISTRY,
    ProtectionContext,
    make_scheme,
    mask_runs,
)
from repro.protection.codes import CODE_NAMES, StackedCode, build_code
from repro.protection.mdcache import DedicatedMetadataCache
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


def make_ctx(scheme, slices=1, functional=False):
    sim = Simulator()
    layout = scheme.prepare(functional=functional)
    channels = [MemoryChannel(f"d{i}", sim, DramTiming(refresh_enabled=False))
                for i in range(slices)]
    ctx = ProtectionContext(sim, layout, channels, StatsRegistry(),
                            sector_bytes=32, line_bytes=128,
                            slice_chunk_bytes=1024)
    resident = {}
    installs = []
    ctx.wire_l2([StubSlice(s, resident, installs) for s in range(slices)])
    scheme.bind(ctx)
    return sim, ctx, resident, installs


class StubSlice:
    """L2 slice stand-in: resident masks read from a dict keyed by
    ``(slice, line)``, installs appended to a log."""

    def __init__(self, slice_id, resident, installs):
        self.slice_id = slice_id
        self.resident = resident
        self.installs = installs

    def resident_mask(self, line, clean_only):
        return self.resident.get((self.slice_id, line), 0)

    def install_sectors(self, line, mask, **kw):
        self.installs.append((self.slice_id, line, mask, kw))

    def poison_sectors(self, line, mask):
        pass

    def invalidate_line(self, line):
        pass


class TestRegistry:
    def test_all_schemes_registered(self):
        make_scheme("cachecraft")  # force core import
        for name in ("none", "sideband", "inline-sector", "metadata-cache",
                     "inline-full", "cachecraft"):
            assert name in SCHEME_REGISTRY

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_scheme("magic")


class TestCodes:
    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_build_code_functional(self, name):
        code, meta = build_code(name, 128, functional=True)
        assert code is not None
        assert meta >= code.spec.check_bytes
        assert meta & (meta - 1) == 0  # power of two

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_build_code_timing_only(self, name):
        code, meta = build_code(name, 128, functional=False)
        assert code is None
        assert meta >= 1

    def test_meta_sizing_matches_functional(self):
        for name in CODE_NAMES:
            _c, m1 = build_code(name, 128, functional=True)
            _c, m2 = build_code(name, 128, functional=False)
            assert m1 == m2, name

    def test_unknown_code(self):
        with pytest.raises(ValueError):
            build_code("turbo", 128, functional=True)

    #: Metadata bytes per granule of 32, 64, ... 1024 B (None: the code
    #: cannot cover a granule that large).
    META_BYTES = {
        "secded": (2, 2, 2, 2, 2, 2),
        "tagged": (2, 2, 2, 2, 2, 2),
        "interleaved": (4, 8, 8, 8, 8, 8),
        "bch": (4, 4, 4, 4, 4, None),
        "rs": (4, 4, 4, None, None, None),
        "mac64": (8, 8, 8, 8, 8, 8),
        "secded+mac": (16, 16, 16, 16, 16, 16),
    }

    @pytest.mark.parametrize("functional", [False, True])
    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_meta_bytes_pinned(self, name, functional):
        assert tuple(self.META_BYTES) == CODE_NAMES
        for granule, meta in zip((32, 64, 128, 256, 512, 1024),
                                 self.META_BYTES[name]):
            if meta is None:
                with pytest.raises(ValueError):
                    build_code(name, granule, functional)
            else:
                assert build_code(name, granule, functional)[1] == meta

    def test_secded_timing_only_builds_no_matrix(self, monkeypatch):
        from repro.protection import codes

        def refuse(granule_bytes):
            raise AssertionError("built the parity-check matrix")

        monkeypatch.setitem(codes._CODES, "secded", refuse)
        assert build_code("secded", 1024, functional=False) == (None, 2)

    def test_stacked_code_detects_what_ecc_misses(self):
        import random
        rng = random.Random(0)
        code = StackedCode(32)
        data = bytes(rng.randrange(256) for _ in range(32))
        check = code.encode(data)
        # Flip 4 bits: beyond SEC-DED, the MAC must still catch it.
        from repro.ecc.gf import flip_bits
        bad = flip_bits(data, rng.sample(range(256), 4))
        assert not code.decode(bad, check).ok

    def test_stacked_code_corrects_single(self):
        code = StackedCode(32)
        data = bytes(range(32))
        check = code.encode(data)
        from repro.ecc.gf import flip_bit
        result = code.decode(flip_bit(data, 9), check)
        assert result.ok and result.data == data


class TestMaskRuns:
    def test_runs(self):
        runs = list(mask_runs(0b1011, 4))
        assert runs == [(0, 2), (3, 1)]

    def test_empty(self):
        assert list(mask_runs(0, 4)) == []

    def test_full(self):
        assert list(mask_runs(0xF, 4)) == [(0, 4)]


class TestNoProtection:
    def test_fetch_reads_only_requested(self):
        scheme = make_scheme("none")
        sim, ctx, _r, _i = make_ctx(scheme)
        granted = []
        scheme.fetch(0, 10, 0b0101, granted.append)
        sim.run()
        assert granted == [0b0101]
        assert ctx.channels[0].total_bytes == 64

    def test_writeback_writes_dirty_only(self):
        scheme = make_scheme("none")
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.writeback(0, 10, 0b0011, 0b1111, False)
        sim.run()
        assert ctx.channels[0].bytes_by_kind()["writeback"] == 64

    def test_contiguous_runs_share_bursts(self):
        scheme = make_scheme("none")
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.fetch(0, 10, 0b1111, lambda m: None)
        sim.run()
        flat = ctx.channels[0].stats.flatten()
        # One 4-atom burst, not 4 separate requests.
        assert flat["d0.row_misses"] + flat["d0.row_hits"] == 1


class TestSideband:
    def test_no_metadata_traffic(self):
        scheme = make_scheme("sideband")
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.fetch(0, 10, 0xF, lambda m: None)
        sim.run()
        kinds = ctx.channels[0].bytes_by_kind()
        assert kinds["metadata"] == 0
        assert kinds["data"] == 128

    def test_check_latency_applied(self):
        plain = make_scheme("none")
        sim1, ctx1, _r, _i = make_ctx(plain)
        t_plain = []
        plain.fetch(0, 10, 1, lambda m: t_plain.append(sim1.now))
        sim1.run()

        side = make_scheme("sideband")
        sim2, ctx2, _r2, _i2 = make_ctx(side)
        t_side = []
        side.fetch(0, 10, 1, lambda m: t_side.append(sim2.now))
        sim2.run()
        assert t_side[0] == t_plain[0] + ctx2.ecc_check_latency

    def test_device_overhead_reported(self):
        scheme = make_scheme("sideband")
        make_ctx(scheme)
        assert scheme.device_overhead > 0
        assert scheme.storage_overhead() == 0.0


class TestInlineSector:
    def test_metadata_read_per_fetch(self):
        scheme = make_scheme("inline-sector")
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.fetch(0, 10, 0b0001, lambda m: None)
        sim.run()
        kinds = ctx.channels[0].bytes_by_kind()
        assert kinds["data"] == 32 and kinds["metadata"] == 32

    def test_writeback_updates_metadata_with_masked_write(self):
        scheme = make_scheme("inline-sector")
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.writeback(0, 10, 0b0001, 0b0001, False)
        sim.run()
        kinds = ctx.channels[0].bytes_by_kind()
        assert kinds["writeback"] == 32
        assert kinds["metadata"] == 0         # DM pins: no RMW read
        assert kinds["metadata_write"] == 32

    def test_storage_overhead(self):
        scheme = make_scheme("inline-sector")
        make_ctx(scheme)
        assert scheme.storage_overhead() == pytest.approx(2 / 32)


class TestMetadataCacheScheme:
    def test_repeat_fetch_hits_mdc(self):
        scheme = make_scheme("metadata-cache", mdcache_kb=8)
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.fetch(0, 10, 1, lambda m: None)
        sim.run()
        meta_before = ctx.channels[0].bytes_by_kind()["metadata"]
        scheme.fetch(0, 11, 1, lambda m: None)  # same metadata atom
        sim.run()
        assert ctx.channels[0].bytes_by_kind()["metadata"] == meta_before
        assert scheme.stats.flatten()[
            "protection.metadata-cache.mdc_hits"] == 1

    def test_concurrent_misses_merge(self):
        scheme = make_scheme("metadata-cache", mdcache_kb=8)
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.fetch(0, 10, 1, lambda m: None)
        scheme.fetch(0, 11, 1, lambda m: None)  # same atom, still in flight
        sim.run()
        assert ctx.channels[0].bytes_by_kind()["metadata"] == 32

    def test_dirty_mdc_eviction_writes_back(self):
        scheme = make_scheme("metadata-cache", mdcache_kb=1)
        sim, ctx, _r, _i = make_ctx(scheme)
        # Dirty enough distinct atoms to overflow a 1 KiB MDC (32 atoms).
        for i in range(64):
            scheme.writeback(0, i * 16, 0b0001, 0b0001, False)
            sim.run()
        kinds = ctx.channels[0].bytes_by_kind()
        assert kinds["metadata_write"] > 0

    def test_sram_overhead(self):
        scheme = make_scheme("metadata-cache", mdcache_kb=32)
        make_ctx(scheme, slices=2)
        assert scheme.sram_overhead_bytes() == 2 * 32 * 1024


class TestSectorL2:
    def test_metadata_lands_in_l2(self):
        scheme = make_scheme("sector-l2")
        sim, ctx, _r, installs = make_ctx(scheme)
        scheme.fetch(0, 10, 0b0001, lambda m: None)
        sim.run()
        assert any(kw.get("is_metadata") for _s, _l, _m, kw in installs)
        assert ctx.channels[0].bytes_by_kind()["metadata"] == 32

    def test_resident_metadata_avoids_dram(self):
        scheme = make_scheme("sector-l2")
        sim, ctx, resident, _i = make_ctx(scheme)
        atom = ctx.layout.metadata_atom(ctx.layout.granule_of(10 * 128))
        meta_line = atom // 128
        sector_bit = 1 << ((atom % 128) // 32)
        resident[(0, meta_line)] = sector_bit
        scheme.fetch(0, 10, 0b0001, lambda m: None)
        sim.run()
        assert ctx.channels[0].bytes_by_kind()["metadata"] == 0

    def test_concurrent_metadata_misses_merge(self):
        scheme = make_scheme("sector-l2")
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.fetch(0, 10, 0b0001, lambda m: None)
        scheme.fetch(0, 11, 0b0001, lambda m: None)  # same metadata atom
        sim.run()
        assert ctx.channels[0].bytes_by_kind()["metadata"] == 32

    def test_writeback_coalesces_in_l2(self):
        scheme = make_scheme("sector-l2")
        sim, ctx, _r, installs = make_ctx(scheme)
        scheme.writeback(0, 10, 0b0001, 0b0001, False)
        sim.run()
        kinds = ctx.channels[0].bytes_by_kind()
        assert kinds["metadata"] == 0           # no RMW read
        assert kinds["metadata_write"] == 0     # coalesced, not written yet
        assert any(kw.get("is_metadata") and kw.get("dirty")
                   and kw.get("verified") is False
                   for _s, _l, _m, kw in installs)

    def test_metadata_line_eviction_writes_through(self):
        scheme = make_scheme("sector-l2")
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.writeback(0, 1 << 28, 0b0011, 0b0011, True)
        sim.run()
        assert ctx.channels[0].bytes_by_kind()["metadata_write"] == 64

    def test_no_dedicated_sram(self):
        scheme = make_scheme("sector-l2")
        make_ctx(scheme)
        assert scheme.sram_overhead_bytes() == 0


class TestInlineFull:
    def test_fetch_whole_granule(self):
        scheme = make_scheme("inline-full", granule_bytes=128)
        sim, ctx, _r, installs = make_ctx(scheme)
        granted = []
        scheme.fetch(0, 10, 0b0010, granted.append)
        sim.run()
        assert granted == [0b1111]
        kinds = ctx.channels[0].bytes_by_kind()
        assert kinds["data"] == 32
        assert kinds["verify_fill"] == 96

    def test_granule_spanning_lines(self):
        scheme = make_scheme("inline-full", granule_bytes=256)
        sim, ctx, _r, installs = make_ctx(scheme)
        granted = []
        scheme.fetch(0, 10, 0b0001, granted.append)
        sim.run()
        assert granted == [0b1111]
        # Sibling line of the granule installed separately.
        assert any(line == 11 and mask == 0b1111
                   for _s, line, mask, _kw in installs)

    def test_writeback_rmw_fetches_missing(self):
        scheme = make_scheme("inline-full", granule_bytes=128)
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.writeback(0, 10, 0b0001, 0b0011, False)
        sim.run()
        kinds = ctx.channels[0].bytes_by_kind()
        assert kinds["verify_fill"] == 64  # two absent sectors fetched

    def test_fully_valid_writeback_needs_no_rmw(self):
        scheme = make_scheme("inline-full", granule_bytes=128)
        sim, ctx, _r, _i = make_ctx(scheme)
        scheme.writeback(0, 10, 0b1111, 0b1111, False)
        sim.run()
        assert ctx.channels[0].bytes_by_kind()["verify_fill"] == 0

    def test_lower_storage_overhead_than_sector(self):
        full = make_scheme("inline-full", granule_bytes=128)
        make_ctx(full)
        sector = make_scheme("inline-sector")
        make_ctx(sector)
        assert full.storage_overhead() < sector.storage_overhead()
