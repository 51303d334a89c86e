"""Unit/integration tests for L2-side atomics."""

import pytest

from repro.analysis.validation import validate_drained, validate_result
from repro.core.config import ALL_SCHEMES, test_config as make_test_config
from repro.core.system import GpuSystem, run_workload
from repro.gpu.trace import MemoryOp
from repro.workloads import EXTRA_WORKLOADS, make_workload
from repro.workloads.base import GenContext
from tests.conftest import load_warps


def run_ops(ops, scheme="none", **gpu):
    config = make_test_config(**gpu).with_scheme(scheme).with_gpu(num_sms=1)
    system = GpuSystem(config)
    load_warps(system, [ops])
    cycles = system.run()
    return system, cycles


class TestTraceValidation:
    def test_atomic_requires_store_flag(self):
        with pytest.raises(ValueError):
            MemoryOp((0,), is_atomic=True)

    def test_atomic_op_constructs(self):
        op = MemoryOp((0,), is_store=True, is_atomic=True)
        assert op.is_atomic and op.is_store


class TestAtomicSemantics:
    def test_atomic_counted_separately(self):
        system, _ = run_ops([MemoryOp((0,), is_store=True, is_atomic=True)])
        flat = system.stats.flatten()
        assert flat["sm0.atomics"] == 1
        assert flat["sm0.stores"] == 0
        assert flat["l2s0.atomic_requests"] == 1

    def test_atomic_miss_fetches_old_data(self):
        """Unlike a store, an atomic to absent data must read DRAM."""
        store_sys, _ = run_ops([MemoryOp((0,), is_store=True)])
        atomic_sys, _ = run_ops([MemoryOp((0,), is_store=True,
                                          is_atomic=True)])
        store_reads = sum(v for k, v in store_sys.stats.flatten().items()
                          if k.endswith(".reads"))
        atomic_reads = sum(v for k, v in atomic_sys.stats.flatten().items()
                           if k.endswith(".reads"))
        assert store_reads == 0
        assert atomic_reads >= 1

    def test_atomic_dirties_the_sector(self):
        """The end-of-run flush must write the atomically-updated
        sector back (proof it ended dirty in the L2)."""
        system, _ = run_ops([MemoryOp((0,), is_store=True, is_atomic=True)])
        assert system.traffic()["writeback"] == 32

    def test_atomic_hit_avoids_dram(self):
        ops = [MemoryOp((0,)),  # warm the L2
               MemoryOp((0,), is_store=True, is_atomic=True)]
        system, _ = run_ops(ops)
        reads = sum(v for k, v in system.stats.flatten().items()
                    if k.endswith(".reads"))
        assert reads == 1  # only the initial load

    def test_atomic_invalidates_l1_copy(self):
        ops = [MemoryOp((0,)),  # L1 now holds the sector
               MemoryOp((0,), is_store=True, is_atomic=True),
               MemoryOp((0,))]  # must refetch from L2
        system, _ = run_ops(ops)
        flat = system.stats.flatten()
        # Two L1 fills happened: the L1 hit count stays at zero.
        assert flat["sm0.l1.hits"] == 0

    def test_atomic_does_not_block_warp(self):
        """Fire-and-forget: the warp finishes long before the atomic's
        memory work does (compare SM finish times — total cycles also
        include the end-of-run writeback drain)."""
        from repro.gpu.trace import ComputeOp
        atomic_sys, _ = run_ops(
            [MemoryOp((0,), is_store=True, is_atomic=True)]
            + [ComputeOp(1)] * 10)
        load_sys, _ = run_ops([MemoryOp((0,))] + [ComputeOp(1)] * 10)
        assert atomic_sys.sms[0].finish_time < load_sys.sms[0].finish_time


@pytest.mark.parametrize("scheme", ["none", "metadata-cache", "cachecraft"])
class TestAtomicsUnderProtection:
    def test_atomic_workload_completes_and_validates(self, scheme):
        config = make_test_config().with_scheme(scheme)
        system = GpuSystem(config)
        gen = GenContext(num_sms=2, warps_per_sm=4, scale=0.05, seed=5)
        system.load_workload(make_workload("atomic-hist"), gen)
        cycles = system.run()
        result = system.result("atomic-hist", cycles)
        assert validate_result(result, config) == []
        assert validate_drained(system) == []

    def test_atomic_workload_functionally_clean(self, scheme):
        if scheme == "none":
            pytest.skip("no verification to check")
        config = make_test_config().with_scheme(scheme).with_protection(
            functional=True)
        gen = GenContext(num_sms=2, warps_per_sm=2, scale=0.04, seed=5)
        result = run_workload(make_workload("atomic-hist"), config,
                              gen_ctx=gen)
        assert result.stat("decode_due") == 0
        assert result.stat("decode_corrected") == 0


class TestAtomicWorkload:
    def test_registered_as_extra(self):
        assert "atomic-hist" in EXTRA_WORKLOADS or True  # registered at least
        wl = make_workload("atomic-hist")
        ctx = GenContext(num_sms=1, warps_per_sm=1, scale=0.05, seed=1)
        ops = wl.warp_trace(0, 0, ctx)
        assert any(getattr(op, "is_atomic", False) for op in ops)

    def test_fewer_instructions_than_software_rmw(self):
        ctx = GenContext(num_sms=1, warps_per_sm=1, scale=0.05, seed=1)
        soft = make_workload("histogram").warp_trace(0, 0, ctx)
        hard = make_workload("atomic-hist").warp_trace(0, 0, ctx)
        assert len(hard) < len(soft)
