"""Unit/integration tests for multi-kernel scenarios."""

import pytest

from repro.analysis.validation import validate_drained
from repro.core.config import test_config as make_test_config
from repro.core.scenario import KernelLaunch, Scenario, producer_consumer
from repro.core.system import run_workload
from repro.workloads import make_workload
from repro.workloads.base import GenContext

GEN = GenContext(num_sms=2, warps_per_sm=4, scale=0.05, seed=7)


def small_scenario(scheme="cachecraft", kernels=("vecadd", "scan"),
                   **protection):
    config = make_test_config().with_scheme(scheme, **protection)
    return Scenario([KernelLaunch(make_workload(k)) for k in kernels],
                    config=config)


class TestBasics:
    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError):
            Scenario([])

    def test_functional_tier_refused(self):
        config = make_test_config().with_fidelity("functional")
        scenario = Scenario([KernelLaunch(make_workload("vecadd"))],
                            config=config)
        with pytest.raises(ValueError, match="functional"):
            scenario.run(gen_ctx=GEN)

    def test_two_kernels_run_and_account(self):
        outcome = small_scenario().run(gen_ctx=GEN)
        assert len(outcome.kernels) == 2
        assert all(k.cycles > 0 for k in outcome.kernels)
        assert outcome.total_cycles == sum(outcome.kernel_cycles)

    def test_per_kernel_traffic_sums_to_total(self):
        outcome = small_scenario().run(gen_ctx=GEN)
        for kind, total in outcome.traffic.items():
            assert total == sum(k.traffic.get(kind, 0)
                                for k in outcome.kernels), kind

    def test_per_kernel_seeds_and_scales(self):
        config = make_test_config()
        scenario = Scenario([
            KernelLaunch(make_workload("vecadd"), seed=1, scale=0.03),
            KernelLaunch(make_workload("vecadd"), seed=2, scale=0.06),
        ], config=config)
        outcome = scenario.run(gen_ctx=GEN)
        # The second kernel is twice the size: measurably more cycles.
        assert outcome.kernels[1].cycles > outcome.kernels[0].cycles

    def test_deterministic(self):
        a = small_scenario().run(gen_ctx=GEN)
        b = small_scenario().run(gen_ctx=GEN)
        assert a.kernel_cycles == b.kernel_cycles
        assert a.traffic == b.traffic

    def test_producer_consumer_helper(self):
        scenario = producer_consumer(
            make_workload("vecadd"), make_workload("scan"),
            config=make_test_config())
        outcome = scenario.run(gen_ctx=GEN)
        assert [k.workload for k in outcome.kernels] == ["vecadd", "scan"]


class TestStatePersistence:
    def test_warm_second_kernel_faster_than_cold(self):
        """Running the same kernel twice: the second run enjoys a warm
        L2 unless flush_between evicts it."""
        warm = small_scenario(kernels=("scan", "scan")).run(gen_ctx=GEN)
        cold = small_scenario(kernels=("scan", "scan")).run(
            gen_ctx=GEN, flush_between=True)
        assert warm.kernels[1].cycles <= cold.kernels[1].cycles

    def test_directory_survives_flush_between(self):
        """The contribution directory is not part of the L2: a flush
        between kernels must not destroy its fills savings."""
        def consumer_fills(directory_entries):
            config = make_test_config().with_scheme(
                "cachecraft", directory_entries=directory_entries)
            wl = make_workload("uniform-random", write_fraction=0.0,
                               footprint_bytes=1 << 20)
            scenario = Scenario([KernelLaunch(wl, seed=3),
                                 KernelLaunch(wl, seed=4)], config=config)
            outcome = scenario.run(gen_ctx=GEN, flush_between=True)
            return outcome.kernels[1].traffic.get("verify_fill", 0)

        assert consumer_fills(4096) < consumer_fills(0)

    def test_system_drained_after_scenario(self):
        config = make_test_config().with_scheme("cachecraft")
        scenario = Scenario([KernelLaunch(make_workload("vecadd")),
                             KernelLaunch(make_workload("histogram"))],
                            config=config)
        # Rebuild manually to inspect the system afterwards.
        from repro.core.system import GpuSystem
        system = GpuSystem(config)
        system.load_workload(make_workload("vecadd"), GEN)
        for sm in system.sms:
            sm.start()
        system.sim.run()
        assert validate_drained(system) == []

    def test_matches_single_run_when_one_kernel(self):
        config = make_test_config().with_scheme("metadata-cache")
        single = run_workload(make_workload("vecadd"), config, gen_ctx=GEN)
        outcome = Scenario([KernelLaunch(make_workload("vecadd"))],
                           config=config).run(gen_ctx=GEN)
        assert outcome.kernels[0].cycles == single.cycles
