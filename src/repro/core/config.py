"""Configuration dataclasses for the simulated system.

The defaults (see Table T1) model a mid-size GPU: 8 SMs x 12 warps, a
32 KiB sectored L1 per SM, a 2 MiB L2 in 4 slices, one GDDR6-class
channel per slice.  Sizes are deliberately scaled down ~4x from a
flagship part so that trace-driven Python runs finish in seconds while
keeping every capacity *ratio* (L1:L2:footprint, MSHRs:latency,
bandwidth:compute) in a realistic regime.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from repro.cache.replacement import make_policy
from repro.dram.timing import DramTiming
from repro.resilience.recovery import RecoveryPolicy


@dataclass(frozen=True)
class GpuConfig:
    """Machine shape: SMs, caches, interconnect, DRAM."""

    num_sms: int = 8
    warps_per_sm: int = 12
    lanes: int = 32

    line_bytes: int = 128
    sector_bytes: int = 32

    l1_size_kb: int = 32
    l1_ways: int = 4
    l1_latency: int = 28
    l1_mshr_entries: int = 64
    store_buffer: int = 64

    l2_size_kb: int = 2048
    l2_ways: int = 16
    l2_latency: int = 32
    l2_mshr_entries: int = 192
    l2_policy: str = "lru"
    #: Way partitioning: reserve this many L2 ways per set for metadata
    #: lines (0 = shared ways + insertion-priority control instead).
    l2_metadata_ways: int = 0
    num_slices: int = 4
    #: Warp scheduler: "rr" round-robin or "gto" greedy-then-oldest.
    warp_scheduler: str = "rr"

    #: Partition interleave granularity (bytes); granules must fit in it.
    slice_chunk_bytes: int = 1024

    xbar_latency: int = 20
    xbar_cycles_per_request: float = 1.0
    xbar_cycles_per_sector: float = 1.0

    dram: DramTiming = field(default_factory=DramTiming)
    ecc_check_latency: int = 4
    #: Warps wait for store/atomic acknowledgments before issuing their
    #: next op (default: stores are fire-and-forget through the store
    #: buffer).  With one warp per SM and one lane this serializes the
    #: memory stream completely, which is what makes functional-fidelity
    #: counter parity exact (docs/PERFORMANCE.md "Fidelity tiers").
    blocking_stores: bool = False

    def __post_init__(self) -> None:
        if self.warp_scheduler not in ("rr", "gto"):
            raise ValueError("warp_scheduler must be 'rr' or 'gto'")
        # Raises for an unknown policy name or a way count it rejects,
        # here rather than in whichever process builds the system.
        make_policy(self.l2_policy, self.l2_ways)
        if self.line_bytes % self.sector_bytes:
            raise ValueError("line_bytes must be a multiple of sector_bytes")
        if self.slice_chunk_bytes % self.line_bytes:
            raise ValueError("slice_chunk_bytes must be a multiple of line_bytes")
        if self.l2_size_kb * 1024 % self.num_slices:
            raise ValueError("L2 size must divide evenly across slices")

    @property
    def l2_slice_bytes(self) -> int:
        return self.l2_size_kb * 1024 // self.num_slices


@dataclass(frozen=True)
class ProtectionConfig:
    """Which scheme to run and its knobs."""

    scheme: str = "none"
    code_name: str = "secded"
    granule_bytes: int = 128
    mdcache_kb: int = 32
    craft_entries: int = 64
    #: Contribution-directory capacity per slice (granules); 0 disables.
    directory_entries: int = 4096
    adaptive_insertion: bool = True
    reconstruction: bool = True
    verified_bits: bool = True
    metadata_in_l2: bool = True
    #: Extension (F10): consume demanded data before verification
    #: completes (background check with assumed containment).
    speculative_use: bool = False
    #: Run real ECC encode/decode over a functional backing store.
    functional: bool = False

    def scheme_kwargs(self) -> Dict[str, Any]:
        """Constructor arguments for the configured scheme: each
        parameter of its registered constructor, read from the field of
        the same name."""
        from repro.protection.base import scheme_class

        return {name: getattr(self, name)
                for name in _parameters(scheme_class(self.scheme))}


@lru_cache(maxsize=None)
def _parameters(cls: type) -> Tuple[str, ...]:
    """A constructor's parameter names (memoized: a signature takes tens
    of microseconds and every system build asks for one)."""
    return tuple(inspect.signature(cls).parameters)


@dataclass(frozen=True)
class ResilienceConfig:
    """In-situ fault injection + recovery semantics for one run.

    Attaching a ``ResilienceConfig`` to a :class:`SystemConfig` arms
    the recovery state machine on the protection path; adding
    ``fault_processes`` (frozen dataclasses from
    :mod:`repro.resilience.faults`) additionally corrupts the
    functional backing store during the run — which requires
    ``protection.functional=True``.
    """

    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: Fault processes stepped during the run (hashable frozen dataclasses).
    fault_processes: Tuple[Any, ...] = ()
    inject_seed: int = 1
    #: Cycles between injector ticks (fault-process step window).
    inject_interval: int = 500


#: Simulation fidelity tiers (see docs/PERFORMANCE.md).
FIDELITIES = ("event", "functional")


@dataclass(frozen=True)
class SystemConfig:
    """Everything a run needs."""

    gpu: GpuConfig = field(default_factory=GpuConfig)
    protection: ProtectionConfig = field(default_factory=ProtectionConfig)
    #: Optional fault injection + recovery semantics (None = off: the
    #: protection path only counts decode outcomes).
    resilience: Optional[ResilienceConfig] = None
    #: Drain dirty L2 state through the protection write path at the end
    #: so writeback costs are fully accounted.
    flush_at_end: bool = True
    seed: int = 42
    #: Simulation tier: "event" runs the discrete-event timing model;
    #: "functional" replays the same traces through the same cache /
    #: MSHR / protection state machines with no cycle clock — traffic
    #: and hit/miss counters only, much faster (docs/PERFORMANCE.md).
    fidelity: str = "event"

    def __post_init__(self) -> None:
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"fidelity must be one of {FIDELITIES}, "
                f"got {self.fidelity!r}")

    def with_fidelity(self, fidelity: str) -> "SystemConfig":
        """Same system, different simulation tier."""
        return replace(self, fidelity=fidelity)

    def with_scheme(self, scheme: str, **overrides) -> "SystemConfig":
        """Convenience: same machine, different protection scheme."""
        prot = replace(self.protection, scheme=scheme, **overrides)
        return replace(self, protection=prot)

    def with_gpu(self, **overrides) -> "SystemConfig":
        return replace(self, gpu=replace(self.gpu, **overrides))

    def with_protection(self, **overrides) -> "SystemConfig":
        return replace(self, protection=replace(self.protection, **overrides))

    def with_resilience(self, resilience: Optional[ResilienceConfig] = None,
                        **overrides) -> "SystemConfig":
        """Attach (or override fields of) a :class:`ResilienceConfig`."""
        if resilience is None:
            resilience = self.resilience if self.resilience is not None \
                else ResilienceConfig()
        if overrides:
            resilience = replace(resilience, **overrides)
        return replace(self, resilience=resilience)


#: All scheme names in canonical presentation order.
ALL_SCHEMES = ("none", "sideband", "inline-sector", "metadata-cache",
               "inline-full", "cachecraft")

#: Schemes that actually protect memory (the denominators of F1).
PROTECTED_SCHEMES = ALL_SCHEMES[1:]


def test_config(**gpu_overrides) -> SystemConfig:
    """A small, fast configuration for unit/integration tests.

    Overrides win over the small-machine defaults (so e.g.
    ``test_config(num_sms=1)`` is valid).
    """
    shape: Dict[str, Any] = dict(num_sms=2, warps_per_sm=4, l2_size_kb=256,
                                 num_slices=2, l1_size_kb=16)
    shape.update(gpu_overrides)
    return SystemConfig(gpu=GpuConfig(**shape))
