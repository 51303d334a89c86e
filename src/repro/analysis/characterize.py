"""Trace-level workload characterization (Table T2).

Characterization reads a workload's compiled trace
(:class:`~repro.gpu.columnar.CompiledTrace`) directly — no simulation
— so it measures intrinsic workload properties: footprint, the density
of sectors touched per protection granule (the quantity that decides
how much a full-granule-fetch scheme overfetches), write fraction, and
compute intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.gpu.columnar import OP_COMPUTE, OP_STORE, touched_sectors
from repro.workloads.base import GenContext, Workload, materialize_compiled


@dataclass
class WorkloadProfile:
    """Static characterization of one workload's traces."""

    name: str
    category: str
    warp_instructions: int
    memory_ops: int
    store_fraction: float
    footprint_mb: float
    #: Mean distinct lines touched per memory op (1 = coalesced, 32 = divergent).
    lines_per_op: float
    #: Mean sectors per touched granule over the whole run (the F8 axis).
    sectors_per_granule: float
    compute_fraction: float
    #: Compute cycles per memory op — the arithmetic-intensity proxy.
    compute_per_memop: float

    def as_row(self) -> list:
        return [self.name, self.category, self.memory_ops,
                round(self.store_fraction, 2), round(self.footprint_mb, 1),
                round(self.lines_per_op, 1),
                round(self.sectors_per_granule, 2),
                round(self.compute_per_memop, 1)]

    ROW_HEADERS = ["workload", "category", "mem ops", "store frac",
                   "footprint MB", "lines/op", "sectors/granule",
                   "compute cyc/memop"]


def profile_workload(workload: Workload, ctx: GenContext,
                     granule_bytes: int = 128) -> WorkloadProfile:
    """Analyze every warp of a workload's compiled trace (coalesced
    with ``ctx``'s line and sector sizes)."""
    compiled = materialize_compiled(workload, ctx, ctx.line_bytes,
                                    ctx.sector_bytes)
    kinds = compiled.op_kind.tolist()
    total_ops = len(kinds)
    compute_ops = kinds.count(OP_COMPUTE)
    memory_ops = total_ops - compute_ops
    stores = sum(1 for kind in kinds if kind >= OP_STORE)  # and atomics
    compute_cycles = sum(compiled.op_arg)  # memory ops carry 0
    sector_bytes = compiled.sector_bytes
    sectors: Set[int] = set()
    granule_sectors: Dict[int, Set[int]] = {}
    for addr in touched_sectors(compiled):
        sector = addr // sector_bytes
        sectors.add(sector)
        granule_sectors.setdefault(addr // granule_bytes, set()).add(sector)

    sectors_per_granule = (
        sum(len(s) for s in granule_sectors.values()) / len(granule_sectors)
        if granule_sectors else 0.0
    )
    return WorkloadProfile(
        name=workload.name,
        category=workload.category,
        warp_instructions=total_ops,
        memory_ops=memory_ops,
        store_fraction=stores / memory_ops if memory_ops else 0.0,
        footprint_mb=len(sectors) * sector_bytes / (1 << 20),
        lines_per_op=compiled.num_txns / memory_ops if memory_ops else 0.0,
        sectors_per_granule=sectors_per_granule,
        compute_fraction=compute_ops / total_ops if total_ops else 0.0,
        compute_per_memop=compute_cycles / memory_ops if memory_ops else 0.0,
    )
