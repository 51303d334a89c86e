"""Top-level system assembly and run loop.

:class:`GpuSystem` wires together, in dependency order: the event
engine, one memory channel per partition, the protection scheme (bound
to a context that exposes channels and L2 probes), the L2 slices, the
crossbar, and the SMs.  :func:`run_workload` is the one-call entry
point used by examples, tests and benchmarks.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.core.config import SystemConfig
from repro.core.results import RunResult
from repro.dram.backing import FunctionalMemory
from repro.dram.channel import MemoryChannel
from repro.gpu.columnar import touched_sectors
from repro.gpu.crossbar import Crossbar
from repro.gpu.l2slice import L2Slice
from repro.gpu.sm import StreamingMultiprocessor
from repro.obs.hub import OBS_OFF, Observability
from repro.protection.base import ProtectionContext, make_scheme
from repro.resilience.injector import Injector
from repro.resilience.recovery import RecoveryController
from repro.sim.engine import Simulator, Watchdog
from repro.sim.functional import (FunctionalChannel, ImmediateQueue,
                                  L1Geometry, L2Geometry, replay_columnar,
                                  replay_record)
from repro.sim.stats import StatsRegistry
from repro.workloads.base import (GenContext, Workload,
                                  l2_stream_memoized, materialize_compiled,
                                  materialize_l2_record,
                                  materialize_l2_stream)


class GpuSystem:
    """A fully-wired simulated GPU ready to run one workload.

    ``obs`` is an optional :class:`~repro.obs.hub.Observability` hub,
    attached once every component exists; the default shared
    :data:`~repro.obs.hub.OBS_OFF` disables every observer at near-zero
    cost.
    """

    def __init__(self, config: SystemConfig,
                 obs: Optional[Observability] = None):
        self.config = config
        gpu = config.gpu
        functional_tier = config.fidelity == "functional"
        if functional_tier:
            # The functional tier has no clock: anything that measures
            # or depends on time cannot run under it (see
            # docs/PERFORMANCE.md "Fidelity tiers").
            if config.resilience is not None:
                raise ValueError(
                    "fidelity='functional' cannot run resilience "
                    "(injection/recovery are timed); use fidelity='event'")
            if obs is not None and obs.timed_enabled:
                raise ValueError(
                    "fidelity='functional' produces no timing, so "
                    "tracing/sampling/latency attribution would be empty; "
                    "use fidelity='event' for observed runs (the flame "
                    "profiler counts events, not cycles, and is allowed)")
            self.sim = ImmediateQueue()
        else:
            self.sim = Simulator()
        self.stats = StatsRegistry()
        self.obs = obs if obs is not None else OBS_OFF

        # Protection scheme + layout come first: the layout decides the
        # metadata geometry everything downstream uses.
        prot_cfg = config.protection
        self.scheme = make_scheme(prot_cfg.scheme, **prot_cfg.scheme_kwargs())
        layout = self.scheme.prepare(prot_cfg.functional,
                                     atom_bytes=gpu.sector_bytes)
        if gpu.slice_chunk_bytes % layout.granule_bytes:
            raise ValueError(
                f"granule ({layout.granule_bytes} B) must divide the slice "
                f"chunk ({gpu.slice_chunk_bytes} B)")

        self.functional: Optional[FunctionalMemory] = None
        if prot_cfg.functional:
            self.functional = FunctionalMemory(layout, self.scheme.code,
                                               sector_bytes=gpu.sector_bytes)

        # Resilience: recovery semantics on the protection path plus an
        # optional in-situ fault injector against the functional store.
        res_cfg = config.resilience
        self.recovery: Optional[RecoveryController] = None
        self.injector: Optional[Injector] = None
        if res_cfg is not None:
            self.recovery = RecoveryController(
                self.sim, self.stats.child("resilience"),
                policy=res_cfg.recovery)
            if res_cfg.fault_processes:
                if self.functional is None:
                    raise ValueError(
                        "fault injection needs a functional backing store; "
                        "set protection.functional=True")
                self.injector = Injector(res_cfg.fault_processes,
                                         seed=res_cfg.inject_seed,
                                         interval=res_cfg.inject_interval)
                self.injector.bind(self.sim, self.functional,
                                   stats=self.stats.child("injector"))
                self.recovery.heal_hook = self.injector.heal

        if functional_tier:
            self.channels = [
                FunctionalChannel(f"dram{i}", self.sim, stats=self.stats,
                                  atom_bytes=gpu.sector_bytes)
                for i in range(gpu.num_slices)
            ]
        else:
            self.channels = [
                MemoryChannel(f"dram{i}", self.sim, gpu.dram,
                              stats=self.stats, atom_bytes=gpu.sector_bytes,
                              channels=gpu.num_slices,
                              chunk_bytes=gpu.slice_chunk_bytes,
                              metadata_base=layout.metadata_base)
                for i in range(gpu.num_slices)
            ]

        self.ctx = ProtectionContext(
            sim=self.sim, layout=layout, channels=self.channels,
            stats=self.stats, sector_bytes=gpu.sector_bytes,
            line_bytes=gpu.line_bytes,
            slice_chunk_bytes=gpu.slice_chunk_bytes,
            functional=self.functional,
            ecc_check_latency=gpu.ecc_check_latency,
            recovery=self.recovery,
        )
        self.scheme.bind(self.ctx)

        self.l2_geometry = L2Geometry.of(gpu)
        self.slices: List[L2Slice] = [
            self.l2_geometry.build(i, self.sim, self.scheme,
                                   latency=gpu.l2_latency, stats=self.stats)
            for i in range(gpu.num_slices)
        ]
        self.ctx.wire_l2(self.slices)

        chunk = gpu.slice_chunk_bytes

        def route(line_addr: int) -> int:
            return (line_addr * gpu.line_bytes // chunk) % gpu.num_slices

        self.route = route
        #: The functional tier's loaded artifact (set by
        #: :meth:`load_workload`): what :meth:`run` replays, and
        #: consumes, as event SMs consume their warps.
        self.compiled = None
        #: Whether the functional tier has replayed its workload: a
        #: replay against a recording of the L2 leaves the slices empty,
        #: so no second workload may follow it.
        self._replayed = False
        if functional_tier:
            # No interconnect timing to model — the replay drives the
            # slices directly, through the same receive_* interface.
            self.crossbar = None
            self.l1_geometry = L1Geometry.of(gpu)
        else:
            self.crossbar = Crossbar(
                self.sim, gpu.num_slices, latency=gpu.xbar_latency,
                cycles_per_request=gpu.xbar_cycles_per_request,
                cycles_per_sector=gpu.xbar_cycles_per_sector,
                stats=self.stats)
        self.sms = [
            StreamingMultiprocessor(
                i, self.sim, self.crossbar, self.slices, route,
                l1_size=gpu.l1_size_kb * 1024, l1_ways=gpu.l1_ways,
                line_bytes=gpu.line_bytes, l1_latency=gpu.l1_latency,
                l1_mshr_entries=gpu.l1_mshr_entries,
                store_buffer=gpu.store_buffer, stats=self.stats,
                scheduler=gpu.warp_scheduler,
                blocking_stores=gpu.blocking_stores)
            for i in range(gpu.num_sms)
        ]
        # Every observer connects here, once every component exists.
        self.obs.attach(self)

    # -- running -------------------------------------------------------------------

    def load_workload(self, workload: Workload,
                      gen_ctx: Optional[GenContext] = None) -> GenContext:
        """Compile the workload's traces (memoized) and load the
        artifact: the event tier adds its warps to the SMs, the
        functional tier keeps it for :meth:`run` to replay (one
        workload per system)."""
        gpu = self.config.gpu
        functional_tier = self.config.fidelity == "functional"
        if functional_tier and (self.compiled is not None or self._replayed):
            raise RuntimeError("the functional tier replays one loaded "
                               "workload per system")
        if gen_ctx is None:
            gen_ctx = GenContext(
                num_sms=gpu.num_sms, warps_per_sm=gpu.warps_per_sm,
                lanes=gpu.lanes, seed=self.config.seed,
                line_bytes=gpu.line_bytes, sector_bytes=gpu.sector_bytes)
        compiled = materialize_compiled(workload, gen_ctx,
                                        line_bytes=gpu.line_bytes,
                                        sector_bytes=gpu.sector_bytes)
        if functional_tier:
            self.compiled = compiled
        else:
            for warp, sm_id in enumerate(compiled.warp_sm):
                if sm_id < len(self.sms):
                    self.sms[sm_id].add_warp(compiled, warp)
        if self.obs.inspect is not None:
            self.obs.inspect.set_trace(
                compiled, len(self.sms),
                self.ctx.layout if self.scheme.has_inline_metadata else None)
        if self.injector is not None:
            self._materialize_footprint(compiled)
        return gen_ctx

    def _materialize_footprint(self, compiled) -> None:
        """Touch every sector the workload will access in the
        functional store, so the fault injector can strike data
        *before* its first fetch — otherwise lazily-materialized
        sectors only become fault targets after they are already
        cached and verified.
        """
        assert self.functional is not None
        fm = self.functional
        granules = set()
        for addr in sorted(set(touched_sectors(compiled))):
            fm.read_sector(addr)
            granules.add(fm.layout.granule_of(addr))
        for granule in sorted(granules):
            fm.metadata_of(granule)

    def run(self, max_events: Optional[int] = None,
            watchdog: Optional[Watchdog] = None) -> int:
        """Run to completion (including the optional end flush).

        ``watchdog`` guards against livelock and wall-clock blowups
        (see :class:`~repro.sim.engine.Watchdog`).  Returns total
        simulated cycles (0 on the clock-free functional tier).
        """
        if self.config.fidelity == "functional":
            return self._run_functional(max_events=max_events,
                                        watchdog=watchdog)
        self.obs.start()
        if self.injector is not None:
            self.injector.arm()
        for sm in self.sms:
            sm.start()
        self.sim.run(max_events=max_events, watchdog=watchdog)
        if not all(sm.done for sm in self.sms):
            raise RuntimeError("event queue drained but SMs not finished — "
                               "a request was dropped (simulator bug)")
        kernel_cycles = self.sim.now
        if self.config.flush_at_end:
            for sl in self.slices:
                sl.flush()
            self.scheme.drain()
            self.sim.run(max_events=max_events, watchdog=watchdog)
        self.obs.finish()
        return max(kernel_cycles, self.sim.now)

    def _run_functional(self, max_events: Optional[int] = None,
                        watchdog: Optional[Watchdog] = None) -> int:
        """Clock-free replay (see :mod:`repro.sim.functional`).

        A :class:`Watchdog`'s livelock detector is meaningless here
        (``now`` never advances by design), so only its wall-clock
        budget carries over; ``max_events`` bounds queue micro-tasks.

        Replays the artifact :meth:`load_workload` compiled: its L2
        request stream (stage 1, memoized per trace and L1 geometry by
        :func:`~repro.workloads.base.materialize_l2_stream`).  Under an
        L2-transparent scheme, on an unobserved run of a trace this
        process has replayed before (its stream was memoized), the
        scheme replays against the L2's recording of the stream
        (stage 2, memoized by
        :func:`~repro.workloads.base.materialize_l2_record`; stage 3,
        :func:`repro.sim.functional.replay_record`) with the context's
        L2 unwired, so a scheme that reaches the L2 fails.  A recording
        costs about one fused replay, so a process's first replay of a
        trace, which may be its only one, records nothing.  Otherwise,
        or when the recording declines the stream, the stream drives
        the slices (:func:`repro.sim.functional.replay_columnar`).
        A system with no workload loaded, or whose workload has been
        replayed, replays nothing.  Warps added by hand with
        ``sm.add_warp`` are not the loaded artifact, so a run whose SMs
        hold any raises: load hand-built traces through a
        :class:`~repro.workloads.base.Workload`.
        """
        if not all(sm.done for sm in self.sms):
            raise RuntimeError(
                "the functional tier replays only what load_workload "
                "compiled; load hand-built traces through a Workload, "
                "not sm.add_warp")
        queue = self.sim
        queue.set_budget(
            max_events,
            watchdog.max_wall_seconds if watchdog is not None else None)
        compiled, self.compiled = self.compiled, None
        flush = self.config.flush_at_end
        if compiled is not None:
            self._replayed = True
            replayed_before = l2_stream_memoized(compiled, self.l1_geometry)
            stream = materialize_l2_stream(compiled, self.l1_geometry)
            record = None
            if replayed_before and type(self.scheme).l2_transparent \
                    and not self.obs.enabled:
                record = materialize_l2_record(
                    compiled, stream, self.l1_geometry, self.l2_geometry,
                    flush)
            if record is not None:
                self.ctx.wire_l2(None)
                try:
                    replay_record(stream, record, self.sms, self.slices,
                                  self.scheme, queue, flush)
                finally:
                    self.ctx.wire_l2(self.slices)
                return 0
            replay_columnar(stream, self.sms, self.slices, queue,
                            flame=self.obs.flame)
        if flush:
            for sl in self.slices:
                sl.flush()
            self.scheme.drain()
            queue.drain()
        return 0

    def release(self) -> None:
        """Unwire the L2 slices from the protection context once the
        result is taken (the system cannot run again).  The context
        reaches the slices, and they reach it through the scheme:
        breaking that one cycle lets reference counting free the
        finished system, not the cyclic collector later."""
        self.ctx.wire_l2(None)

    # -- reporting --------------------------------------------------------------------

    def traffic(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for channel in self.channels:
            for kind, nbytes in channel.bytes_by_kind().items():
                totals[kind] = totals.get(kind, 0) + nbytes
        return totals

    def result(self, workload_name: str, cycles: int,
               host_seconds: float = 0.0) -> RunResult:
        gpu = self.config.gpu
        latency = (self.obs.latency.breakdown()
                   if self.obs.latency is not None else {})
        stats = self.stats.flatten()
        # Engine throughput provenance for the run ledger: events/sec
        # is events over host_seconds (both carried on the result).
        stats["engine.events"] = float(self.sim.events_executed)
        inspect_metrics = (self.obs.inspect.key_metrics()
                          if self.obs.inspect is not None else {})
        return RunResult(
            workload=workload_name,
            scheme=self.config.protection.scheme,
            cycles=cycles,
            traffic=self.traffic(),
            stats=stats,
            storage_overhead=self.scheme.storage_overhead(),
            sram_overhead_bytes=self.scheme.sram_overhead_bytes(),
            host_seconds=host_seconds,
            latency=latency,
            config_summary={
                "num_sms": gpu.num_sms,
                "l2_kb": gpu.l2_size_kb,
                "slices": gpu.num_slices,
                "granule": self.config.protection.granule_bytes,
                "code": self.config.protection.code_name,
            },
            fidelity=self.config.fidelity,
            inspect_metrics=inspect_metrics,
        )


def materialize_l2_replay(workload: Workload, config: SystemConfig,
                          gen_ctx: GenContext) -> None:
    """Memoize in this process what functional runs of ``workload`` on
    ``config``'s machine under L2-transparent schemes replay against:
    the compiled trace, its L2 request stream and the L2's recording of
    it.  A grid runner calls it before forking workers for two or more
    such cells; the workers inherit the memos, so each runs stage 3
    alone (a recording made in a worker would die with it)."""
    gpu = config.gpu
    compiled = materialize_compiled(workload, gen_ctx,
                                    line_bytes=gpu.line_bytes,
                                    sector_bytes=gpu.sector_bytes)
    l1_geometry = L1Geometry.of(gpu)
    materialize_l2_record(
        compiled, materialize_l2_stream(compiled, l1_geometry), l1_geometry,
        L2Geometry.of(gpu), config.flush_at_end)


def run_workload(workload: Workload, config: SystemConfig,
                 gen_ctx: Optional[GenContext] = None,
                 max_events: Optional[int] = None,
                 obs: Optional[Observability] = None,
                 watchdog: Optional[Watchdog] = None) -> RunResult:
    """Build a system, run one workload, return its :class:`RunResult`."""
    system = GpuSystem(config, obs=obs)
    system.load_workload(workload, gen_ctx)
    started = time.perf_counter()
    cycles = system.run(max_events=max_events, watchdog=watchdog)
    host_seconds = time.perf_counter() - started
    result = system.result(workload.name, cycles, host_seconds)
    system.release()
    return result
