"""Tests for the microarchitectural options: GTO scheduling and L2
metadata way-partitioning."""

import pytest

from repro.cache.replacement import LruPolicy, SrripPolicy, TreePlruPolicy
from repro.cache.sectored import SectoredCache
from repro.core.config import test_config as make_test_config
from repro.core.system import run_workload
from repro.gpu.trace import ComputeOp, MemoryOp
from repro.workloads import make_workload
from repro.workloads.base import GenContext
from tests.conftest import load_warps

GEN = GenContext(num_sms=2, warps_per_sm=4, scale=0.08, seed=9)


class TestVictimAmong:
    def test_lru_respects_partition(self):
        lru = LruPolicy(4)
        for way in (0, 1, 2, 3):
            lru.on_access(way)
        # Global LRU victim is 0, but only ways {2, 3} are allowed.
        assert lru.victim_among([2, 3]) == 2

    def test_srrip_ages_within_partition(self):
        srrip = SrripPolicy(4)
        for way in range(4):
            srrip.on_fill(way)
            srrip.on_access(way)  # everyone protected (rrpv 0)
        victim = srrip.victim_among([1, 2])
        assert victim in (1, 2)

    def test_plru_fallback_stays_in_partition(self):
        plru = TreePlruPolicy(4)
        for _ in range(5):
            assert plru.victim_among([3]) == 3

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            LruPolicy(4).victim_among([])


class TestWayPartitionedCache:
    def make(self, metadata_ways=2):
        return SectoredCache("c", 8 * 1024, 4, line_bytes=128,
                             sector_bytes=32, metadata_ways=metadata_ways)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(metadata_ways=4)  # data needs at least one way

    def test_metadata_never_evicts_data(self):
        cache = self.make(metadata_ways=1)
        sets = cache.num_sets
        data_lines = [i * sets for i in range(3)]  # fill the 3 data ways
        for la in data_lines:
            line, _ = cache.allocate(la)
            cache.fill_sector(line, 0)
        # Flood the set with metadata lines.
        for i in range(3, 10):
            line, _ = cache.allocate(i * sets, is_metadata=True)
            cache.fill_sector(line, 0)
        for la in data_lines:
            assert cache.probe(la) is not None, la

    def test_data_never_evicts_metadata(self):
        cache = self.make(metadata_ways=2)
        sets = cache.num_sets
        meta_lines = [i * sets for i in range(2)]
        for la in meta_lines:
            line, _ = cache.allocate(la, is_metadata=True)
            cache.fill_sector(line, 0)
        for i in range(2, 12):
            line, _ = cache.allocate(i * sets)
            cache.fill_sector(line, 0)
        for la in meta_lines:
            assert cache.probe(la) is not None

    def test_system_runs_with_partitioned_l2(self):
        cfg = make_test_config().with_scheme("cachecraft").with_gpu(
            l2_metadata_ways=2)
        result = run_workload(make_workload("spmv"), cfg, gen_ctx=GEN)
        assert result.cycles > 0
        # Metadata actually lives in the reserved ways.
        assert result.stat("cache.metadata_fills") > 0


class TestGtoScheduler:
    def run_sched(self, scheduler, workload="spmv"):
        cfg = make_test_config().with_gpu(warp_scheduler=scheduler)
        return run_workload(make_workload(workload),
                            cfg.with_scheme("none"), gen_ctx=GEN)

    def test_invalid_scheduler_rejected(self):
        with pytest.raises(ValueError):
            make_test_config().with_gpu(warp_scheduler="fifo")

    def test_invalid_l2_policy_rejected(self):
        # Rejected with the config, not later in a grid worker that
        # builds the system.
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_test_config().with_gpu(l2_policy="belady")
        with pytest.raises(ValueError, match="power-of-two"):
            make_test_config().with_gpu(l2_policy="plru", l2_ways=12)

    def test_gto_completes_all_work(self):
        rr = self.run_sched("rr")
        gto = self.run_sched("gto")
        assert rr.stat("instructions") == gto.stat("instructions")

    @staticmethod
    def _dispatch_order(scheduler):
        """Two warps of fire-and-forget stores, overlapped in time: the
        dispatch order exposes the scheduling policy directly."""
        from repro.core.system import GpuSystem

        cfg = make_test_config().with_gpu(num_sms=1,
                                          warp_scheduler=scheduler)
        system = GpuSystem(cfg)
        sm = system.sms[0]
        order = []
        original = sm._dispatch

        def spy(warp):
            order.append(warp.warp_id)
            original(warp)

        sm._dispatch = spy
        load_warps(system, [[MemoryOp(((w << 20) + i * 4096,), is_store=True)
                             for i in range(30)] for w in range(2)])
        system.run()
        return order

    @staticmethod
    def _alternations(order):
        return sum(1 for a, b in zip(order, order[1:]) if a != b)

    def test_gto_sticks_with_one_warp(self):
        """In the overlapped region RR ping-pongs between the warps;
        GTO runs one warp until it stalls (far fewer switches)."""
        rr = self._alternations(self._dispatch_order("rr"))
        gto = self._alternations(self._dispatch_order("gto"))
        assert gto < rr

    def test_both_schedulers_dispatch_everything(self):
        for sched in ("rr", "gto"):
            order = self._dispatch_order(sched)
            assert order.count(0) == order.count(1) == 31  # 30 ops + done
