"""Unit/integration tests for the SM model (via a tiny full system)."""

import pytest

from repro.core.config import test_config as make_test_config
from repro.core.system import GpuSystem
from repro.gpu.trace import ComputeOp, MemoryOp
from tests.conftest import load_warps


def run_single_warp(ops, **gpu_overrides):
    """One SM, one warp, real hierarchy underneath."""
    config = make_test_config(**gpu_overrides).with_gpu(num_sms=1)
    system = GpuSystem(config)
    load_warps(system, [ops])
    cycles = system.run()
    return system, cycles


class TestBasicExecution:
    def test_compute_only_warp(self):
        system, cycles = run_single_warp([ComputeOp(100)])
        assert cycles >= 100
        assert system.sms[0].done

    def test_empty_warp_finishes(self):
        system, cycles = run_single_warp([])
        assert system.sms[0].done

    def test_load_blocks_until_memory_returns(self):
        _, compute_only = run_single_warp([ComputeOp(1)])
        _, with_load = run_single_warp([MemoryOp((0,)), ComputeOp(1)])
        # The load must add at least DRAM + crossbar latency.
        assert with_load > compute_only + 50

    def test_store_does_not_block(self):
        _, with_store = run_single_warp(
            [MemoryOp((0,), is_store=True)] + [ComputeOp(1)] * 10)
        _, with_load = run_single_warp(
            [MemoryOp((0,))] + [ComputeOp(1)] * 10)
        assert with_store < with_load

    def test_instruction_counting(self):
        system, _ = run_single_warp(
            [ComputeOp(1), MemoryOp((0,)), MemoryOp((128,), is_store=True)])
        flat = system.stats.flatten()
        assert flat["sm0.instructions"] == 3
        assert flat["sm0.loads"] == 1
        assert flat["sm0.stores"] == 1


class TestCachingBehaviour:
    def test_second_load_hits_l1(self):
        system, _ = run_single_warp([MemoryOp((0,)), MemoryOp((0,))])
        flat = system.stats.flatten()
        assert flat["sm0.l1.hits"] >= 1

    def test_divergent_load_makes_many_transactions(self):
        addrs = tuple(i * 4096 for i in range(16))
        system, _ = run_single_warp([MemoryOp(addrs)])
        flat = system.stats.flatten()
        assert flat["sm0.load_transactions"] == 16

    def test_coalesced_load_is_one_transaction(self):
        addrs = tuple(i * 4 for i in range(32))
        system, _ = run_single_warp([MemoryOp(addrs)])
        assert system.stats.flatten()["sm0.load_transactions"] == 1


class TestLatencyHiding:
    def test_more_warps_hide_latency(self):
        def run_n_warps(n):
            config = make_test_config().with_gpu(num_sms=1)
            system = GpuSystem(config)
            load_warps(system, [[MemoryOp((w * 65536 + i * 131072,))
                                 for i in range(8)] for w in range(n)])
            return system.run()

        one = run_n_warps(1)
        eight = run_n_warps(8)
        # 8 warps do 8x the work; with latency hiding the time must be
        # far below 8x one warp's time.
        assert eight < one * 4

    def test_mshr_pressure_counted_under_divergence(self):
        config = make_test_config().with_gpu(num_sms=1, l1_mshr_entries=4)
        system = GpuSystem(config)
        ops = [MemoryOp(tuple(i * 4096 + j * 524288 for i in range(32)))
               for j in range(4)]
        load_warps(system, [ops])
        system.run()
        flat = system.stats.flatten()
        assert flat["sm0.stall_retries"] > 0


class TestStoreBuffer:
    def test_store_buffer_backpressure(self):
        config = make_test_config().with_gpu(num_sms=1, store_buffer=2)
        system = GpuSystem(config)
        ops = [MemoryOp(tuple(i * 4096 + j * 262144 for i in range(16)),
                        is_store=True) for j in range(4)]
        load_warps(system, [ops])
        system.run()
        flat = system.stats.flatten()
        assert flat["sm0.storebuf.full_rejections"] > 0
        assert flat["sm0.store_transactions"] == 64


class TestCompletionInvariants:
    def test_all_warps_complete_under_protection(self):
        for scheme in ("none", "inline-sector", "inline-full", "cachecraft"):
            config = make_test_config().with_scheme(scheme).with_gpu(num_sms=1)
            system = GpuSystem(config)
            load_warps(system, [
                [MemoryOp((w * 8192 + i * 640,)) for i in range(6)]
                + [MemoryOp((w * 8192,), is_store=True)] for w in range(4)])
            system.run()
            assert system.sms[0].done, scheme

    def test_finish_time_recorded(self):
        system, _ = run_single_warp([ComputeOp(10)])
        assert system.sms[0].finish_time is not None
