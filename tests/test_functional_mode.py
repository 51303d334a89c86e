"""End-to-end functional-mode tests: real ECC over a real backing store.

These runs exercise the entire stack — SM, caches, protection scheme,
DRAM — with actual encode/decode on every granule verification, so any
inconsistency between the timing model's bookkeeping and the data the
codes see (stale metadata, clobbered stores, double writebacks) shows
up as a decode failure.
"""

import pytest

from repro.core.config import test_config as make_test_config
from repro.core.system import GpuSystem, run_workload
from repro.workloads import make_workload
from repro.workloads.base import GenContext
from tests.conftest import load_warps


GEN = GenContext(num_sms=2, warps_per_sm=4, scale=0.08, seed=11)

FUNCTIONAL_SCHEMES = ("sideband", "inline-sector", "metadata-cache",
                      "sector-l2", "inline-full", "cachecraft")


@pytest.mark.parametrize("scheme", FUNCTIONAL_SCHEMES)
@pytest.mark.parametrize("workload", ["vecadd", "spmv", "histogram"])
def test_no_fault_run_decodes_clean(scheme, workload):
    """With no injected faults, every verification must be CLEAN —
    anything else is a consistency bug in the protection model."""
    cfg = make_test_config().with_scheme(scheme).with_protection(functional=True)
    result = run_workload(make_workload(workload), cfg, gen_ctx=GEN)
    checks = result.stat("decode_clean")
    assert checks > 0, "functional mode must actually verify"
    assert result.stat("decode_corrected") == 0
    assert result.stat("decode_due") == 0


@pytest.mark.parametrize("scheme", ["cachecraft", "inline-full"])
def test_writeback_then_reload_stays_consistent(scheme):
    """Write-heavy workload: metadata regenerated on eviction must match
    what later verifications read back."""
    cfg = make_test_config().with_scheme(scheme).with_protection(functional=True)
    gen = GenContext(num_sms=2, warps_per_sm=4, scale=0.12, seed=5)
    result = run_workload(make_workload("saxpy"), cfg, gen_ctx=gen)
    assert result.stat("decode_due") == 0
    assert result.stat("decode_corrected") == 0


class TestFaultInjection:
    def _system(self, scheme="cachecraft"):
        cfg = make_test_config().with_scheme(scheme).with_protection(
            functional=True)
        system = GpuSystem(cfg)
        return system

    def test_single_bit_flip_corrected_end_to_end(self):
        from repro.gpu.trace import MemoryOp
        system = self._system()
        addr = 1 << 20
        system.functional.inject_bit_flip(addr, bit=7)
        load_warps(system, [[MemoryOp((addr,))]])
        system.run()
        flat = system.stats.flatten()
        assert flat["protection.cachecraft.decode_corrected"] == 1
        assert flat["protection.cachecraft.decode_due"] == 0

    def test_double_bit_flip_detected_end_to_end(self):
        from repro.gpu.trace import MemoryOp
        system = self._system()
        addr = 1 << 20
        system.functional.inject_bit_flip(addr, bit=3)
        system.functional.inject_bit_flip(addr + 32, bit=9)
        load_warps(system, [[MemoryOp((addr,))]])
        system.run()
        flat = system.stats.flatten()
        assert flat["protection.cachecraft.decode_due"] == 1

    def test_fault_in_untouched_granule_unnoticed(self):
        from repro.gpu.trace import MemoryOp
        system = self._system()
        system.functional.inject_bit_flip(1 << 22, bit=0)  # far away
        load_warps(system, [[MemoryOp((1 << 20,))]])
        system.run()
        flat = system.stats.flatten()
        assert flat["protection.cachecraft.decode_corrected"] == 0
        assert flat["protection.cachecraft.decode_due"] == 0

    def test_rs_code_corrects_chip_style_burst(self):
        from repro.gpu.trace import MemoryOp
        cfg = make_test_config().with_scheme(
            "cachecraft", code_name="rs").with_protection(functional=True)
        system = GpuSystem(cfg)
        addr = 1 << 20
        # Corrupt a whole byte (one RS symbol).
        for bit in range(8, 16):
            system.functional.inject_bit_flip(addr, bit=bit)
        load_warps(system, [[MemoryOp((addr,))]])
        system.run()
        flat = system.stats.flatten()
        assert flat["protection.cachecraft.decode_corrected"] == 1

    def test_secded_miscorrects_nothing_on_clean(self):
        cfg = make_test_config().with_scheme("metadata-cache").with_protection(
            functional=True)
        result = run_workload(make_workload("scan"), cfg, gen_ctx=GEN)
        assert result.stat("decode_corrected") == 0


@pytest.mark.parametrize("code", ["secded", "tagged", "interleaved", "rs",
                                  "secded+mac"])
def test_all_codes_run_clean_functionally(code):
    cfg = make_test_config().with_scheme(
        "cachecraft", code_name=code).with_protection(functional=True)
    gen = GenContext(num_sms=2, warps_per_sm=2, scale=0.05, seed=2)
    result = run_workload(make_workload("vecadd"), cfg, gen_ctx=gen)
    assert result.stat("decode_due") == 0
    assert result.stat("decode_corrected") == 0
