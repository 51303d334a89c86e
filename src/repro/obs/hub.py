"""The per-run observability hub.

One :class:`Observability` object configures everything this package
offers and carries the live tracer/sampler/attributor for one
simulated system.  The default, :data:`OBS_OFF`, is inert: no tracer,
no sampler, no latency attribution — safe to share between systems.

Construction is two-phase because the hub outlives any single system
configuration: ``Observability(...)`` records *what* to observe;
:meth:`Observability.attach` is the one place observers meet the
model.  ``GpuSystem`` calls it once, after every component exists; it
binds the sampler, attributor and flame profiler to the system's
simulator and stats registry, then hands each watched component its
observers through one attribute per observer kind — ``_tracer``,
``_attributor`` or ``_insp`` — which the component leaves ``None``
otherwise and tests with one ``is not None`` per hook site.  An
enabled hub binds to **one** system: a second :meth:`attach` without
an intervening :meth:`detach` raises, because silently rebinding would
leave the first system's observers orphaned and split one run's
samples across two machines.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.channel import MemoryChannel
from repro.obs.flame import FlameProfiler
from repro.obs.latency import LatencyAttributor
from repro.obs.sampler import MetricsSampler
from repro.obs.tracer import ChromeTracer


class Observability:
    """Configuration + live objects for one run's observability."""

    def __init__(self, tracer: Optional[ChromeTracer] = None,
                 sample_interval: int = 0,
                 attribute_latency: bool = False,
                 flame: Optional[FlameProfiler] = None,
                 inspect=None):
        #: The recording tracer, ``None`` when the run is not traced.
        self.tracer = tracer
        self.sample_interval = sample_interval
        self.attribute_latency = attribute_latency
        #: Optional deterministic self-profiler
        #: (:class:`~repro.obs.flame.FlameProfiler`); attached to the
        #: scheduling surface alongside the timed observers.
        self.flame = flame
        #: Optional memory-hierarchy introspection collector
        #: (:class:`~repro.obs.inspect.MemoryInspector`).  Counter-based
        #: like the flame profiler, so allowed on the functional tier.
        self.inspect = inspect
        self.sampler: Optional[MetricsSampler] = None
        self.latency: Optional[LatencyAttributor] = None
        self._attached_to: Optional[object] = None

    @property
    def timed_enabled(self) -> bool:
        """True when any *timed* observer is configured (tracing,
        sampling, latency attribution) — the ones that are meaningless
        on the clock-free functional tier.  The flame profiler counts
        events, not cycles, so it is deliberately excluded."""
        return (self.tracer is not None or self.sample_interval > 0
                or self.attribute_latency)

    @property
    def enabled(self) -> bool:
        return (self.timed_enabled or self.flame is not None
                or self.inspect is not None)

    def attach(self, system) -> None:
        """Connect every observer to a fully built
        :class:`~repro.core.system.GpuSystem`.

        An enabled hub attaches exactly once; re-attaching raises
        until :meth:`detach` releases the previous system.  The shared
        disabled hub (:data:`OBS_OFF`) has nothing to bind, so every
        system may keep attaching it freely.
        """
        if not self.enabled:
            return
        if self._attached_to is not None:
            raise RuntimeError(
                "Observability hub is already attached to a system; "
                "each enabled hub observes one system — call detach() "
                "first, or build a fresh hub per run")
        self._attached_to = system
        sim, stats = system.sim, system.stats
        if self.sample_interval > 0:
            self.sampler = MetricsSampler(sim, stats, self.sample_interval)
        if self.flame is not None:
            self.flame.instrument(sim)
        mdcaches = system.scheme.metadata_caches()
        tracer = self.tracer
        if tracer is not None:
            # One category answer each; a component outside the
            # recorded categories keeps ``_tracer = None``.
            for category, components in (
                    ("sm", system.sms), ("l2", system.slices),
                    ("dram", system.channels), ("mdcache", mdcaches),
                    ("resilience", (system.recovery, system.injector))):
                if tracer.wants(category):
                    for component in components:
                        if component is not None:
                            component._tracer = tracer
        if self.attribute_latency:
            self.latency = LatencyAttributor(sim, stats.child("latency"))
            for component in (*system.sms, *system.slices, system.ctx):
                component._attributor = self.latency
        insp = self.inspect
        if insp is not None:
            # Every L2 slice's sector cache, each DRAM channel's banks
            # (the functional tier's channels have none) and the
            # scheme's metadata caches.
            for sl in system.slices:
                insp.watch_cache(f"l2s{sl.slice_id}", sl.cache)
            for channel in system.channels:
                if isinstance(channel, MemoryChannel):
                    insp.watch_dram(channel.name, channel)
            for mdc in mdcaches:
                insp.watch_mdcache(mdc.name, mdc)

    def detach(self) -> None:
        """Release the attached system so the hub can be reused.

        Unhooks the flame profiler and drops the sampler/attributor
        bindings; collected data (trace events, flame samples, the
        last latency breakdown) survives for export.
        """
        if self.flame is not None:
            self.flame.release()
        self.sampler = None
        self.latency = None
        self._attached_to = None

    def start(self) -> None:
        """Arm run-time observers (called when the system starts)."""
        if self.sampler is not None:
            self.sampler.start()

    def finish(self) -> None:
        """Close trailing state at end of run."""
        if self.sampler is not None:
            self.sampler.finish()


def make_observability(trace_out: Optional[str] = None,
                       metrics_out: Optional[str] = None,
                       sample_interval: int = 1000,
                       trace_categories: Optional[str] = None,
                       attribute_latency: bool = False,
                       trace_capacity: int = 1_000_000,
                       flame_out: Optional[str] = None,
                       flame_sample_every: int = 64,
                       inspect_out: Optional[str] = None) -> Observability:
    """Build a hub from CLI-flavoured options.

    ``trace_categories`` is a comma-separated list (``"dram,l2"``) or
    ``None`` for all categories.  Sampling is enabled whenever
    ``metrics_out`` is given; the deterministic flame profiler whenever
    ``flame_out`` is; memory-hierarchy introspection whenever
    ``inspect_out`` is.
    """
    if metrics_out and sample_interval < 1:
        raise ValueError(
            f"metrics output requested but sample_interval is "
            f"{sample_interval}; it must be >= 1 cycle")
    tracer: Optional[ChromeTracer] = None
    if trace_out:
        cats = None
        if trace_categories:
            cats = [c.strip() for c in trace_categories.split(",") if c.strip()]
        tracer = ChromeTracer(capacity=trace_capacity, categories=cats)
    inspector = None
    if inspect_out:
        from repro.obs.inspect import MemoryInspector
        inspector = MemoryInspector()
    return Observability(
        tracer=tracer,
        sample_interval=sample_interval if metrics_out else 0,
        attribute_latency=attribute_latency,
        flame=(FlameProfiler(sample_every=flame_sample_every)
               if flame_out else None),
        inspect=inspector,
    )


#: The shared disabled hub; the implicit default everywhere.
OBS_OFF = Observability()
