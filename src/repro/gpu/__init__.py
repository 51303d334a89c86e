"""GPU front end: warps, coalescing, SMs, crossbar, L2 slices.

The execution model is trace-driven: a workload generates each warp as
a stream of :class:`~repro.gpu.trace.WarpOp` items (compute delays and
32-lane memory operations), which :func:`~repro.gpu.columnar.compile_trace`
coalesces once into the columnar artifact both tiers run.  An SM
issues one warp-op per cycle round-robin over its ready warps; loads
block their warp until data returns, which is what makes memory
latency visible exactly when occupancy cannot hide it — the
first-order performance effect protection overheads act on.
"""

from repro.gpu.coalescer import coalesce
from repro.gpu.crossbar import Crossbar
from repro.gpu.l2slice import L2Slice
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.trace import ComputeOp, MemoryOp, WarpOp

__all__ = [
    "WarpOp",
    "ComputeOp",
    "MemoryOp",
    "coalesce",
    "Crossbar",
    "StreamingMultiprocessor",
    "L2Slice",
]
