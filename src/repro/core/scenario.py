"""Multi-kernel scenarios.

Real applications launch kernels back-to-back over shared data: a
producer writes what a consumer reads. Protection state — cached
metadata, and above all CacheCraft's contribution directory — persists
across launches, so the consumer of a just-written buffer can verify
lone-sector reads without refetching granules the producer already
paid for.

:class:`Scenario` runs a list of kernels *sequentially on one system*
(each kernel's warps launch when the previous kernel has fully
drained), returning per-kernel results plus the scenario total.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.results import RunResult
from repro.core.system import GpuSystem
from repro.workloads.base import GenContext, Workload


@dataclass
class KernelLaunch:
    """One kernel in a scenario."""

    workload: Workload
    #: Optional per-kernel GenContext overrides (seed, scale).
    seed: Optional[int] = None
    scale: Optional[float] = None


@dataclass
class ScenarioResult:
    """Per-kernel and aggregate outcome of a scenario run."""

    kernels: List[RunResult]
    total_cycles: int
    traffic: dict
    host_seconds: float = 0.0

    @property
    def kernel_cycles(self) -> List[int]:
        return [k.cycles for k in self.kernels]


class Scenario:
    """A sequence of kernels sharing one simulated GPU."""

    def __init__(self, launches: Sequence[KernelLaunch],
                 config: Optional[SystemConfig] = None):
        if not launches:
            raise ValueError("a scenario needs at least one kernel")
        self.launches = list(launches)
        self.config = config or SystemConfig()

    def run(self, gen_ctx: Optional[GenContext] = None,
            flush_between: bool = False) -> ScenarioResult:
        """Run every kernel back-to-back on one system.

        ``flush_between=True`` drains the L2 (through the protection
        write path) after each kernel — the cold-start comparison point
        for inter-kernel reuse experiments.  The final kernel always
        flushes if the config says so.  Kernel boundaries are points in
        time, so a scenario needs the event tier.
        """
        config = self.config
        if config.fidelity != "event":
            raise ValueError(
                f"a scenario runs on the event tier, not "
                f"fidelity={config.fidelity!r}: its kernels launch when "
                "the previous one has drained, which takes a clock")
        system = GpuSystem(config)
        gpu = config.gpu
        base_ctx = gen_ctx or GenContext(
            num_sms=gpu.num_sms, warps_per_sm=gpu.warps_per_sm,
            lanes=gpu.lanes, seed=config.seed,
            line_bytes=gpu.line_bytes, sector_bytes=gpu.sector_bytes)

        started = time.perf_counter()
        results: List[RunResult] = []
        prev_cycles = 0
        prev_traffic: dict = {}
        for index, launch in enumerate(self.launches):
            ctx = GenContext(
                num_sms=base_ctx.num_sms, warps_per_sm=base_ctx.warps_per_sm,
                lanes=base_ctx.lanes, elem_bytes=base_ctx.elem_bytes,
                seed=launch.seed if launch.seed is not None else base_ctx.seed,
                scale=launch.scale if launch.scale is not None
                else base_ctx.scale,
                line_bytes=base_ctx.line_bytes,
                sector_bytes=base_ctx.sector_bytes)
            system.load_workload(launch.workload, ctx)
            for sm in system.sms:
                sm.start()
            system.sim.run()
            if not all(sm.done for sm in system.sms):
                raise RuntimeError(
                    f"kernel {index} ({launch.workload.name}) did not drain")
            is_last = index == len(self.launches) - 1
            if flush_between and not is_last:
                for sl in system.slices:
                    sl.flush()
                system.scheme.drain()
                system.sim.run()
            if is_last and config.flush_at_end:
                for sl in system.slices:
                    sl.flush()
                system.scheme.drain()
                system.sim.run()
            now = system.sim.now
            traffic_now = system.traffic()
            delta_traffic = {
                k: traffic_now.get(k, 0) - prev_traffic.get(k, 0)
                for k in traffic_now
            }
            result = system.result(launch.workload.name, now - prev_cycles)
            result.traffic = delta_traffic
            results.append(result)
            prev_cycles = now
            prev_traffic = traffic_now
        system.release()

        return ScenarioResult(
            kernels=results,
            total_cycles=prev_cycles,
            traffic=prev_traffic,
            host_seconds=time.perf_counter() - started,
        )


def producer_consumer(workload_write: Workload, workload_read: Workload,
                      config: Optional[SystemConfig] = None) -> Scenario:
    """Convenience: the canonical two-kernel dependency pattern."""
    return Scenario([KernelLaunch(workload_write),
                     KernelLaunch(workload_read)], config=config)
