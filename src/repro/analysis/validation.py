"""Physical-consistency validation of simulation results.

A discrete-event model can silently break conservation laws (lost
requests, negative queues, data faster than the bus).  This module
checks a finished :class:`~repro.core.results.RunResult` (and,
optionally, the live system) against bounds that must hold regardless
of configuration:

* **Bandwidth bound** — simulated cycles cannot be fewer than the
  busiest channel's data-bus occupancy (event tier only: the
  functional tier has no clock and reports 0 cycles);
* **Work conservation** — DRAM demand reads cannot be fewer than L2
  misses require, nor smaller than L1 misses can explain;
* **Counter sanity** — hit/miss/eviction counters are non-negative and
  mutually consistent;
* **Drain check** (live system) — MSHRs, craft buffers, store credits
  and DRAM queues must be empty after a run.

The test-suite runs these after every integration simulation; library
users can call :func:`validate_result` on their own runs.
"""

from __future__ import annotations

from typing import List

from repro.core.config import SystemConfig
from repro.core.results import RunResult


def validate_result(result: RunResult, config: SystemConfig) -> List[str]:
    """Return a list of violated invariants (empty = consistent)."""
    violations: List[str] = []
    gpu = config.gpu
    timed = result.fidelity != "functional"

    # Bandwidth bound: each channel moves one atom per t_burst cycles.
    per_channel_bytes = result.total_dram_bytes / gpu.num_slices
    atoms = per_channel_bytes / gpu.sector_bytes
    min_cycles = atoms * gpu.dram.t_burst
    # Perfectly balanced channels are the best case; tolerate 1% slack
    # for rounding.
    if timed and result.cycles < min_cycles * 0.99:
        violations.append(
            f"bandwidth bound violated: {result.cycles} cycles < "
            f"{min_cycles:.0f} minimum for {result.total_dram_bytes} bytes")

    # Counters must be non-negative.
    for key in ("data", "metadata", "verify_fill", "writeback",
                "metadata_write"):
        if result.traffic.get(key, 0) < 0:
            violations.append(f"negative traffic counter {key}")

    # Hit rates are probabilities.
    for name, rate in (("l1", result.l1_hit_rate()),
                       ("l2", result.l2_hit_rate())):
        if rate is not None and not 0.0 <= rate <= 1.0:
            violations.append(f"{name} hit rate {rate} outside [0, 1]")

    # Every L2 sector miss needs at least one sector from somewhere:
    # demand data + fills must cover the L2's misses (writes allocate
    # without fetching, so only bound reads-from-DRAM by read misses).
    # ``line_misses`` counts accesses; ``line_miss_sectors`` carries
    # the sector volume those accesses requested.
    l2_miss_sectors = result.stat("cache.sector_misses") \
        + result.stat("cache.line_miss_sectors")
    read_bytes = result.traffic.get("data", 0) \
        + result.traffic.get("verify_fill", 0)
    if read_bytes > 0 and l2_miss_sectors == 0 \
            and result.traffic.get("writeback", 0) == 0:
        # Reads need a driver: either L2 misses or writeback-path
        # read-modify-write fills (store-only traces have no misses).
        violations.append("DRAM data read with zero recorded L2 misses "
                          "or writebacks")
    # Reads are driven by L2 misses (granule-amplified) and by
    # write-path read-modify-write fills (bounded by writeback volume,
    # also granule-amplified).
    writeback_bytes = result.traffic.get("writeback", 0)
    max_needed = l2_miss_sectors * gpu.sector_bytes + writeback_bytes
    granule = max(config.protection.granule_bytes, gpu.line_bytes)
    amplification = granule // gpu.sector_bytes + 2
    if read_bytes > max(1, max_needed) * amplification:
        violations.append(
            f"demand+fill reads ({read_bytes} B) exceed {amplification}x "
            f"the L2 miss + writeback volume ({max_needed} B)")

    # Simulation must have made progress if any instructions ran.
    if timed and result.stat("instructions") > 0 and result.cycles <= 0:
        violations.append("instructions executed in zero cycles")

    return violations


def validate_drained(system) -> List[str]:
    """Check a finished :class:`~repro.core.system.GpuSystem` for
    stranded state (lost requests, leaked credits)."""
    violations: List[str] = []
    for sm in system.sms:
        if not sm.done:
            violations.append(f"sm{sm.sm_id} has unfinished warps")
        if len(sm.l1_mshrs):
            violations.append(f"sm{sm.sm_id} L1 MSHRs not drained")
        if sm.store_credits.in_use:
            violations.append(f"sm{sm.sm_id} store credits leaked")
    for sl in system.slices:
        if len(sl.mshrs):
            violations.append(f"l2s{sl.slice_id} MSHRs not drained")
    for channel in system.channels:
        if channel.queue_depth:
            violations.append(f"{channel.name} queue not drained")
    crafts = getattr(system.scheme, "_crafts", None)
    if crafts is not None:
        for slice_id, entries in enumerate(crafts):
            if entries:
                violations.append(
                    f"craft buffer {slice_id} holds {len(entries)} entries")
    overflow = getattr(system.scheme, "_overflow", None)
    if overflow is not None:
        for slice_id, queue in enumerate(overflow):
            if queue:
                violations.append(
                    f"craft overflow queue {slice_id} not drained")
    return violations
