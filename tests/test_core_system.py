"""Integration tests: the full system running real workloads."""

import gc
import os
import subprocess
import sys
import tracemalloc
import weakref

import pytest

import repro
from repro.analysis.harness import bench_config
from repro.core.config import (
    ALL_SCHEMES,
    FIDELITIES,
    GpuConfig,
    ProtectionConfig,
    SystemConfig,
    test_config as make_test_config,
)
from repro.core.system import GpuSystem, run_workload
from repro.workloads import make_workload
from repro.workloads.base import GenContext


class TestConfig:
    def test_defaults_valid(self):
        cfg = SystemConfig()
        assert cfg.gpu.l2_slice_bytes == 2048 * 1024 // 4

    def test_with_scheme_round_trip(self):
        cfg = SystemConfig().with_scheme("cachecraft", granule_bytes=256)
        assert cfg.protection.scheme == "cachecraft"
        assert cfg.protection.granule_bytes == 256

    def test_with_gpu_override(self):
        cfg = SystemConfig().with_gpu(num_sms=2)
        assert cfg.gpu.num_sms == 2

    def test_scheme_kwargs_cover_all_schemes(self):
        for scheme in ALL_SCHEMES:
            kwargs = ProtectionConfig(scheme=scheme).scheme_kwargs()
            assert isinstance(kwargs, dict)

    def test_scheme_kwargs_reach_every_registered_scheme(self):
        from repro.protection.base import SCHEME_REGISTRY, make_scheme

        make_scheme("none")  # registers cachecraft
        assert "sector-l2" in SCHEME_REGISTRY
        # A value differing from every default, per ProtectionConfig field.
        changed = dict(code_name="bch", granule_bytes=256, mdcache_kb=8,
                       craft_entries=7, directory_entries=9,
                       adaptive_insertion=False, reconstruction=False,
                       verified_bits=False, metadata_in_l2=False,
                       speculative_use=True)
        for name in SCHEME_REGISTRY:
            config = ProtectionConfig(scheme=name, **changed)
            kwargs = config.scheme_kwargs()
            scheme = make_scheme(name, **kwargs)
            assert set(kwargs) <= set(changed), name
            for field_name in kwargs:
                assert getattr(scheme, field_name) == changed[field_name], \
                    (name, field_name)
        with pytest.raises(ValueError):
            ProtectionConfig(scheme="magic").scheme_kwargs()

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            GpuConfig(line_bytes=96)
        with pytest.raises(ValueError):
            GpuConfig(slice_chunk_bytes=100)

    def test_granule_must_divide_chunk(self):
        cfg = make_test_config().with_scheme("cachecraft", granule_bytes=2048)
        with pytest.raises(ValueError):
            GpuSystem(cfg)

    def test_config_hashable(self):
        assert hash(SystemConfig()) == hash(SystemConfig())


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_construction_allocates_under_1mib_with_16mib_l2(fidelity):
    """Cache sets are built on first fill, so constructing a system
    with a 16 MiB L2 stays small.  Counts bytes, not time."""
    def build(l2_size_kb):
        GpuSystem(bench_config(l2_size_kb=l2_size_kb)
                  .with_scheme("cachecraft").with_fidelity(fidelity))

    build(1024)  # one-time imports and memos stay out of the count
    tracemalloc.start()
    try:
        build(16384)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def parts_outliving(run, monkeypatch):
    """Call ``run()`` with the cyclic collector off; returns the names
    of the parts of the last system it took a result from that are
    still alive afterwards."""
    built = []
    real_result = GpuSystem.result

    def result(system, *args, **kwargs):
        built.append(system)
        return real_result(system, *args, **kwargs)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(GpuSystem, "result", result)
            run()
        system = built[-1]
        built.clear()
        parts = {"context": system.ctx, "scheme": system.scheme,
                 "slice": system.slices[0], "channel": system.channels[0],
                 "engine": system.sim}
        refs = {name: weakref.ref(part) for name, part in parts.items()}
        del system, parts
        return [name for name, ref in refs.items() if ref() is not None]
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_finished_system_is_freed_without_the_collector(fidelity, scheme,
                                                        monkeypatch):
    """``run_workload`` breaks the system's reference cycle, so with the
    cyclic collector off nothing of the system outlives the call."""
    config = make_test_config(num_sms=2, warps_per_sm=2) \
        .with_scheme(scheme).with_fidelity(fidelity)
    assert parts_outliving(
        lambda: run_workload(make_workload("histogram"), config,
                             gen_ctx=GenContext(num_sms=2, warps_per_sm=2,
                                                scale=0.02)),
        monkeypatch) == []


def test_scenario_and_campaign_cell_free_their_system(monkeypatch):
    """``Scenario.run`` and the campaign worker release their system as
    ``run_workload`` does."""
    from repro.core.scenario import KernelLaunch, Scenario
    from repro.resilience.campaign import build_cells
    from repro.resilience.worker import run_cell_result

    config = make_test_config(num_sms=2, warps_per_sm=2) \
        .with_scheme("cachecraft")
    scenario = Scenario([KernelLaunch(make_workload("vecadd")),
                         KernelLaunch(make_workload("histogram"))],
                        config=config)
    assert parts_outliving(
        lambda: scenario.run(GenContext(num_sms=2, warps_per_sm=2,
                                        scale=0.02)),
        monkeypatch) == []
    cell = build_cells(["histogram"], ["cachecraft"], scale=0.02)[0]
    assert parts_outliving(lambda: run_cell_result(cell), monkeypatch) == []


def test_event_tier_run_does_not_import_numpy():
    """numpy holds about 10 MB of resident memory; only the functional
    tier and the inspector's trace analytics need it."""
    code = ("import sys\n"
            "from repro.core.config import test_config\n"
            "from repro.core.system import run_workload\n"
            "from repro.workloads import make_workload\n"
            "run_workload(make_workload('bfs'), "
            "test_config().with_scheme('cachecraft'))\n"
            "print('numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("fidelity", ["event", "functional"])
def test_second_run_replays_nothing(fidelity):
    """A warp launches once: running a finished system again changes no
    counter, on either tier."""
    system = GpuSystem(make_test_config().with_fidelity(fidelity))
    system.load_workload(make_workload("vecadd"),
                         GenContext(num_sms=2, warps_per_sm=4, scale=0.02))
    cycles = system.run()
    first = system.result("vecadd", cycles).to_dict()
    again = system.result("vecadd", system.run()).to_dict()
    assert again == first
    assert all(sm.done for sm in system.sms)


class TestEndToEnd:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_every_scheme_completes(self, scheme, small_config, tiny_gen):
        result = run_workload(make_workload("vecadd"),
                              small_config.with_scheme(scheme),
                              gen_ctx=tiny_gen, max_events=3_000_000)
        assert result.cycles > 0
        assert result.total_dram_bytes > 0
        assert result.scheme == scheme

    def test_unprotected_has_no_overhead_traffic(self, small_config, tiny_gen):
        result = run_workload(make_workload("vecadd"), small_config,
                              gen_ctx=tiny_gen)
        assert result.traffic.get("metadata", 0) == 0
        assert result.traffic.get("verify_fill", 0) == 0

    def test_protection_never_speeds_up_streaming(self, small_config,
                                                  tiny_gen):
        base = run_workload(make_workload("vecadd"), small_config,
                            gen_ctx=tiny_gen)
        for scheme in ("inline-sector", "metadata-cache"):
            r = run_workload(make_workload("vecadd"),
                             small_config.with_scheme(scheme),
                             gen_ctx=tiny_gen)
            assert r.cycles >= base.cycles * 0.98, scheme

    def test_sideband_close_to_unprotected(self, small_config, small_gen):
        base = run_workload(make_workload("vecadd"), small_config,
                            gen_ctx=small_gen)
        side = run_workload(make_workload("vecadd"),
                            small_config.with_scheme("sideband"),
                            gen_ctx=small_gen)
        assert side.performance_vs(base) > 0.95

    def test_deterministic_across_runs(self, small_config, tiny_gen):
        a = run_workload(make_workload("spmv"),
                         small_config.with_scheme("cachecraft"),
                         gen_ctx=tiny_gen)
        b = run_workload(make_workload("spmv"),
                         small_config.with_scheme("cachecraft"),
                         gen_ctx=tiny_gen)
        assert a.cycles == b.cycles
        assert a.traffic == b.traffic

    def test_flush_at_end_accounts_writebacks(self, tiny_gen):
        cfg = make_test_config()
        flushed = run_workload(make_workload("vecadd"), cfg, gen_ctx=tiny_gen)
        import dataclasses
        no_flush = run_workload(
            make_workload("vecadd"),
            dataclasses.replace(cfg, flush_at_end=False), gen_ctx=tiny_gen)
        assert flushed.traffic["writeback"] > no_flush.traffic["writeback"]

    def test_result_metrics(self, small_config, tiny_gen):
        result = run_workload(make_workload("vecadd"), small_config,
                              gen_ctx=tiny_gen)
        assert 0 <= result.l1_hit_rate() <= 1
        assert 0 <= result.l2_hit_rate() <= 1
        assert result.performance_vs(result) == 1.0
        summary = result.summary()
        assert summary["workload"] == "vecadd"

    def test_performance_vs_rejects_different_workloads(self, small_config,
                                                        tiny_gen):
        a = run_workload(make_workload("vecadd"), small_config,
                         gen_ctx=tiny_gen)
        b = run_workload(make_workload("scan"), small_config,
                         gen_ctx=tiny_gen)
        with pytest.raises(ValueError):
            a.performance_vs(b)


class TestCrossSchemeInvariants:
    """The relationships any sound protection model must satisfy."""

    @pytest.fixture(scope="class")
    def results(self):
        cfg = make_test_config()
        gen = GenContext(num_sms=2, warps_per_sm=4, scale=0.1, seed=3)
        return {
            scheme: run_workload(make_workload("spmv"),
                                 cfg.with_scheme(scheme), gen_ctx=gen)
            for scheme in ALL_SCHEMES
        }

    def test_unprotected_is_fastest_on_divergent(self, results):
        base = results["none"].cycles
        for scheme in ("inline-sector", "metadata-cache", "inline-full",
                       "cachecraft"):
            assert results[scheme].cycles >= base

    def test_all_schemes_serve_same_demand(self, results):
        """Demand data traffic must be within a factor across schemes —
        they all serve the same misses (full-granule schemes classify
        some demand as data vs fill differently)."""
        base = results["none"].traffic["data"]
        for scheme, r in results.items():
            assert r.traffic["data"] <= base * 1.2, scheme
            assert r.traffic["data"] >= base * 0.5, scheme

    def test_metadata_cache_reduces_metadata_traffic(self, results):
        assert results["metadata-cache"].traffic["metadata"] < \
            results["inline-sector"].traffic["metadata"]

    def test_cachecraft_fills_below_inline_full(self, results):
        assert results["cachecraft"].traffic["verify_fill"] <= \
            results["inline-full"].traffic["verify_fill"]

    def test_granule_schemes_have_less_metadata_traffic(self, results):
        assert results["cachecraft"].traffic["metadata"] < \
            results["inline-sector"].traffic["metadata"]

    def test_storage_overheads_ordered(self, results):
        assert results["none"].storage_overhead == 0
        assert results["cachecraft"].storage_overhead < \
            results["inline-sector"].storage_overhead
