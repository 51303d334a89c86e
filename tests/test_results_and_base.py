"""Unit tests for RunResult metrics and protection-base helpers."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.results import RunResult
from repro.core.system import run_workload
from repro.dram.channel import MemoryChannel, RequestKind
from repro.dram.timing import DramTiming
from repro.protection.base import ProtectionContext, make_scheme
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.workloads import make_workload


def make_result(**overrides):
    base = dict(
        workload="wl", scheme="cachecraft", cycles=1000,
        traffic={"data": 800, "metadata": 100, "verify_fill": 50,
                 "writeback": 200, "metadata_write": 20},
        stats={"sm0.l1.hits": 80.0, "sm0.l1.sector_misses": 10.0,
               "sm0.l1.line_misses": 10.0,
               "l2s0.cache.hits": 30.0, "l2s0.cache.sector_misses": 5.0,
               "l2s0.cache.line_misses": 15.0},
        storage_overhead=0.0156,
    )
    base.update(overrides)
    return RunResult(**base)


class TestRunResult:
    def test_totals(self):
        r = make_result()
        assert r.total_dram_bytes == 1170
        assert r.demand_bytes == 800
        assert r.overhead_bytes == 170

    def test_traffic_fraction(self):
        r = make_result()
        assert r.traffic_fraction("data") == pytest.approx(800 / 1170)
        assert r.traffic_fraction("missing") == 0.0

    def test_hit_rates(self):
        r = make_result()
        assert r.l1_hit_rate() == pytest.approx(0.8)
        assert r.l2_hit_rate() == pytest.approx(0.6)

    def test_hit_rate_none_when_no_accesses(self):
        r = make_result(stats={})
        assert r.l1_hit_rate() is None

    def test_stat_sums_matching_suffixes(self):
        r = make_result(stats={"a.hits": 3.0, "b.hits": 4.0, "c.miss": 1.0})
        assert r.stat("hits") == 7.0
        assert r.stat("nothing", default=-1.0) == -1.0

    def test_performance_vs(self):
        fast = make_result(cycles=500)
        slow = make_result(cycles=1000)
        assert fast.performance_vs(slow) == 2.0

    def test_to_json_roundtrips(self):
        payload = json.loads(make_result().to_json())
        assert payload["scheme"] == "cachecraft"
        assert payload["traffic"]["data"] == 800
        assert "stats" not in payload
        with_stats = json.loads(make_result().to_json(include_stats=True))
        assert "stats" in with_stats

    def test_summary_keys(self):
        summary = make_result().summary()
        assert {"workload", "scheme", "cycles", "dram_bytes",
                "overhead_bytes"} <= set(summary)


def reference_key_metrics(result):
    """``RunResult.key_metrics`` written with one :meth:`stat` scan per
    suffix: the oracle for the one-pass version."""
    metrics = {
        "total_dram_bytes": int(result.total_dram_bytes),
        "demand_bytes": int(result.demand_bytes),
        "overhead_bytes": int(result.overhead_bytes),
    }
    if result.fidelity == "event":
        metrics["cycles"] = int(result.cycles)
    for name, prefix in (("l1_hit_rate", "l1."), ("l2_hit_rate", "cache.")):
        hits = result.stat(prefix + "hits")
        misses = (result.stat(prefix + "sector_misses")
                  + result.stat(prefix + "line_misses"))
        total = hits + misses
        if total:
            metrics[name] = round(hits / total, 6)
    events = result.events_executed
    if events:
        metrics["events"] = events
        if result.host_seconds > 0:
            metrics["events_per_sec"] = result.events_per_sec
    row_hits = result.stat("row_hits")
    row_total = row_hits + result.stat("row_misses")
    if row_total:
        metrics["row_hit_rate"] = round(row_hits / row_total, 6)
    verified = result.stat("granules_verified")
    if verified:
        metrics["reconstruction_efficacy"] = round(
            result.stat("granules_no_extra_fetch") / verified, 6)
    for key, value in result.inspect_metrics.items():
        metrics.setdefault(key, value)
    return metrics


_STAT_KEYS = st.builds(
    "{}{}".format,
    st.sampled_from(["", "sm0.", "sm1.", "l2s0.", "l2s1.", "mdcache.",
                     "dram0.", "dram1.", "engine."]),
    st.sampled_from(["l1.hits", "l1.sector_misses", "l1.line_misses",
                     "cache.hits", "cache.sector_misses",
                     "cache.line_misses", "row_hits", "row_misses",
                     "granules_verified", "granules_no_extra_fetch",
                     "events", "cache.evictions", "hits", "l1.hits_x"]))

# Mixed magnitudes with cancellations make the float sums depend on
# the order they are added in.
_STAT_VALUES = st.one_of(
    st.sampled_from([1e16, -1e16, 1.0, 3.0, 0.5]),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-1e16, max_value=1e16, allow_nan=False))


@settings(max_examples=400, deadline=None)
@example(items=[("sm0.l1.hits", 1.0), ("sm1.l1.hits", 1e16),
                ("l2s0.l1.hits", -1e16), ("l2s0.cache.hits", 1.0),
                ("mdcache.cache.hits", 1e16), ("l2s1.cache.hits", -1e16),
                ("l2s0.cache.line_misses", 3.0), ("dram0.row_hits", 5)],
         fidelity="event", host_seconds=0.5, inspect={})
@given(items=st.lists(st.tuples(_STAT_KEYS, _STAT_VALUES), max_size=40),
       fidelity=st.sampled_from(["event", "functional"]),
       host_seconds=st.sampled_from([0.0, 0.5]),
       inspect=st.dictionaries(
           st.sampled_from(["predicted_efficacy", "l1_hit_rate",
                            "mdcache_reuse_p50"]),
           st.floats(0, 1), max_size=2))
def test_key_metrics_matches_per_suffix_reference(items, fidelity,
                                                  host_seconds, inspect):
    result = make_result(stats=dict(items), fidelity=fidelity,
                         host_seconds=host_seconds, inspect_metrics=inspect)
    assert list(result.key_metrics().items()) \
        == list(reference_key_metrics(result).items())


@pytest.mark.parametrize("fidelity", ["event", "functional"])
def test_key_metrics_matches_reference_on_real_results(fidelity,
                                                       small_config,
                                                       tiny_gen):
    cfg = small_config.with_scheme("cachecraft").with_fidelity(fidelity)
    result = run_workload(make_workload("spmv"), cfg, gen_ctx=tiny_gen)
    metrics = result.key_metrics()
    assert "reconstruction_efficacy" in metrics
    assert list(metrics.items()) \
        == list(reference_key_metrics(result).items())


class TestProtectionContextHelpers:
    def _ctx(self, slices=2):
        sim = Simulator()
        scheme = make_scheme("none")
        layout = scheme.prepare(functional=False)
        channels = [
            MemoryChannel(f"d{i}", sim, DramTiming(refresh_enabled=False))
            for i in range(slices)
        ]
        ctx = ProtectionContext(sim, layout, channels, StatsRegistry(),
                                sector_bytes=32, line_bytes=128,
                                slice_chunk_bytes=1024)
        return sim, ctx

    def test_slice_of_addr_chunk_interleave(self):
        _sim, ctx = self._ctx(slices=2)
        assert ctx.slice_of_addr(0) == 0
        assert ctx.slice_of_addr(1024) == 1
        assert ctx.slice_of_addr(2048) == 0

    def test_dram_read_routes_to_slice_channel(self):
        sim, ctx = self._ctx(slices=2)
        done = []
        ctx.dram_read(1, 1024, RequestKind.DATA, lambda: done.append(1))
        sim.run()
        assert done == [1]
        assert ctx.channels[1].total_bytes == 32
        assert ctx.channels[0].total_bytes == 0

    def test_dram_write_is_posted(self):
        sim, ctx = self._ctx()
        ctx.dram_write(0, 0, RequestKind.WRITEBACK, atoms=2)
        sim.run()
        assert ctx.channels[0].bytes_by_kind()["writeback"] == 64

    def test_unwired_context_asserts(self):
        _sim, ctx = self._ctx()
        with pytest.raises(AssertionError):
            ctx.l2_resident_verified(0, 0)

    def test_channel_local_preserves_sector_alignment(self):
        _sim, ctx = self._ctx(slices=2)
        for addr in (0, 32, 1024, 4096 + 64,
                     ctx.layout.metadata_base + 320):
            assert ctx.to_channel_local(addr) % 32 == addr % 32 or \
                ctx.layout.is_metadata(addr)
        meta_local = ctx.to_channel_local(ctx.layout.metadata_base + 320)
        assert meta_local % 32 == 0


class TestSchemeReadMask:
    def test_read_mask_groups_contiguous_runs(self):
        sim = Simulator()
        scheme = make_scheme("none")
        layout = scheme.prepare(functional=False)
        channel = MemoryChannel("d0", sim, DramTiming(refresh_enabled=False))
        ctx = ProtectionContext(sim, layout, [channel], StatsRegistry(),
                                sector_bytes=32, line_bytes=128,
                                slice_chunk_bytes=1024)
        scheme.bind(ctx)
        done = []
        scheme.read_mask(0, 10, 0b1011, RequestKind.DATA,
                         lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        flat = channel.stats.flatten()
        # Two runs (sectors 0-1 and sector 3) -> two DRAM requests.
        assert flat["d0.row_hits"] + flat["d0.row_misses"] == 2
        assert channel.total_bytes == 96

    def test_read_mask_empty_still_completes(self):
        sim = Simulator()
        scheme = make_scheme("none")
        layout = scheme.prepare(functional=False)
        channel = MemoryChannel("d0", sim, DramTiming(refresh_enabled=False))
        ctx = ProtectionContext(sim, layout, [channel], StatsRegistry(),
                                sector_bytes=32, line_bytes=128,
                                slice_chunk_bytes=1024)
        scheme.bind(ctx)
        done = []
        scheme.read_mask(0, 10, 0, RequestKind.DATA,
                         lambda: done.append(True))
        sim.run()
        assert done == [True]
        assert channel.total_bytes == 0
