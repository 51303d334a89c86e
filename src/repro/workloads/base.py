"""Workload base classes and helpers."""

from __future__ import annotations

import abc
import random
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Tuple, Type

from repro.gpu.columnar import compile_trace
from repro.gpu.trace import ComputeOp, MemoryOp, WarpOp

#: Heap base for workload arrays (granule/line/chunk aligned).
HEAP_BASE = 1 << 20


@dataclass
class GenContext:
    """Machine shape and sizing knobs handed to every generator."""

    num_sms: int = 8
    warps_per_sm: int = 12
    lanes: int = 32
    elem_bytes: int = 4
    seed: int = 42
    #: Global size multiplier: tests run ~0.25, benches 1.0.
    scale: float = 1.0
    line_bytes: int = 128
    sector_bytes: int = 32

    @property
    def total_warps(self) -> int:
        return self.num_sms * self.warps_per_sm

    def warp_rng(self, workload: str, sm_id: int, warp_id: int) -> random.Random:
        return random.Random(f"{self.seed}/{workload}/{sm_id}/{warp_id}")

    def scaled(self, n: int, minimum: int = 1) -> int:
        return max(minimum, int(n * self.scale))

    def scaled_dim(self, n: int, minimum: int = 1, dims: int = 2) -> int:
        """Scale one *dimension* of a ``dims``-dimensional extent so
        the total area/volume scales ~linearly with ``scale``.

        Each dimension shrinks by ``scale ** (1/dims)``: a 2D plane
        whose width and height both use ``dims=2`` scales its area by
        ``scale``; a 3D volume must pass ``dims=3`` (the old
        hard-coded square root made volumes scale as ``scale**1.5``).
        The default stays bit-compatible with the original 2D
        behavior (``1.0 / 2`` is exactly ``0.5``).
        """
        if dims < 1:
            raise ValueError("dims must be >= 1")
        return max(minimum, int(n * self.scale ** (1.0 / dims)))


class Workload(abc.ABC):
    """A named trace generator."""

    #: Registry key.
    name: str = ""
    #: Archetype label used in the characterization table (T2).
    category: str = ""

    def __init__(self, **params) -> None:
        self.params = params

    @abc.abstractmethod
    def warp_trace(self, sm_id: int, warp_id: int, ctx: GenContext) -> List[WarpOp]:
        """The full op list for one warp."""

    def build(self, ctx: GenContext) -> List[List[List[WarpOp]]]:
        """Traces for the whole machine: ``[sm][warp] -> ops``."""
        return [
            [self.warp_trace(sm, warp, ctx) for warp in range(ctx.warps_per_sm)]
            for sm in range(ctx.num_sms)
        ]

    # -- shared generator helpers ------------------------------------------------

    @staticmethod
    def coalesced(base: int, first_elem: int, lanes: int,
                  elem_bytes: int, is_store: bool = False) -> MemoryOp:
        """All lanes access consecutive elements — the coalesced ideal."""
        start = base + first_elem * elem_bytes
        return MemoryOp(
            tuple(range(start, start + lanes * elem_bytes, elem_bytes)),
            is_store=is_store,
        )

    @staticmethod
    def gathered(base: int, indices, elem_bytes: int,
                 is_store: bool = False) -> MemoryOp:
        """Lane *l* accesses element ``indices[l]`` — arbitrary scatter."""
        return MemoryOp(
            tuple([base + int(i) * elem_bytes for i in indices]),
            is_store=is_store,
        )

    @staticmethod
    def compute(cycles: int) -> ComputeOp:
        return ComputeOp(max(1, cycles))

    def global_warp_id(self, sm_id: int, warp_id: int, ctx: GenContext) -> int:
        return sm_id * ctx.warps_per_sm + warp_id


#: name -> workload class.
WORKLOAD_REGISTRY: Dict[str, Type[Workload]] = {}


def register_workload(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no name")
    if cls.name in WORKLOAD_REGISTRY:
        raise ValueError(f"duplicate workload {cls.name!r}")
    WORKLOAD_REGISTRY[cls.name] = cls
    return cls


def make_workload(name: str, **params) -> Workload:
    """Instantiate a registered workload by name."""
    try:
        cls = WORKLOAD_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(WORKLOAD_REGISTRY)}"
        ) from None
    return cls(**params)


# -- per-process memos -------------------------------------------------------
#
# Trace generation is deterministic: (workload name, its params, every
# GenContext field) fully determines the op lists.  So `compare` over N
# schemes — or a parity test running event and functional back-to-back
# — compiles each trace once and shares the artifact; the op lists live
# only until they are compiled.  The L2 request stream derived from an
# artifact, and the L2's recording of that stream, memoize under the
# same argument; all three are immutable (frozen columns).

#: What :meth:`_Memo.get` finds for a key it does not hold (a build may
#: memoize None: the L2 recording declines some streams).
_MISSING = object()


class _Memo:
    """A per-process LRU of built values, with hit/miss counters."""

    __slots__ = ("capacity", "entries", "hits", "misses")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple, build: Callable[[], object]):
        """The value memoized under ``key``, calling ``build()`` on a
        miss.  A key that does not hash (unhashable workload params)
        builds uncached: the ``TypeError`` surfaces when the key is
        hashed, at the probe."""
        try:
            value = self.entries.get(key, _MISSING)
        except TypeError:
            self.misses += 1
            return build()
        if value is not _MISSING:
            self.entries.move_to_end(key)
            self.hits += 1
            return value
        self.misses += 1
        value = self.entries[key] = build()
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self.entries.clear()
        self.hits = 0
        self.misses = 0


#: Maximum memoized compiled artifacts per process.  A small LRU
#: covers the common loops (same workload across schemes / fidelities)
#: without hoarding memory.
COMPILED_CACHE_CAPACITY = 16
#: Maximum memoized L2 request streams per process.
STREAM_CACHE_CAPACITY = 16
#: Maximum memoized L2 recordings per process.
RECORD_CACHE_CAPACITY = 16

_compiled = _Memo(COMPILED_CACHE_CAPACITY)
_streams = _Memo(STREAM_CACHE_CAPACITY)
_records = _Memo(RECORD_CACHE_CAPACITY)


def _trace_key(workload: Workload, ctx: GenContext) -> tuple:
    return (workload.name,
            tuple(sorted(workload.params.items())),
            tuple(sorted(asdict(ctx).items())))


def materialize(workload: Workload,
                ctx: GenContext) -> List[List[List[WarpOp]]]:
    """The workload's op lists, ``[sm][warp] -> ops``: an unmemoized
    :meth:`Workload.build` (:func:`materialize_compiled` memoizes
    what is compiled from them)."""
    return workload.build(ctx)


def trace_cache_stats() -> Dict[str, int]:
    """Hit/miss/occupancy counters for ``cache stats`` debug output."""
    return {"compiled_entries": len(_compiled.entries),
            "compiled_hits": _compiled.hits,
            "compiled_misses": _compiled.misses,
            "stream_entries": len(_streams.entries),
            "stream_hits": _streams.hits,
            "stream_misses": _streams.misses,
            "record_entries": len(_records.entries),
            "record_hits": _records.hits,
            "record_misses": _records.misses}


def trace_cache_clear() -> None:
    """Empty the compiled, L2-stream and L2-record memos and reset their
    hit/miss counters."""
    for memo in (_compiled, _streams, _records):
        memo.clear()


# -- compiled (columnar) artifacts -------------------------------------------
#
# Both tiers run the columnar IR (see :mod:`repro.gpu.columnar`):
# coalescing runs once per memory op at compile time, and the compiled
# form is keyed additionally on the coalescing geometry, which is a
# machine property (the GPU's line/sector bytes), not a GenContext one.


def materialize_compiled(workload: Workload, ctx: GenContext,
                         line_bytes: int = 128, sector_bytes: int = 32):
    """Memoized columnar compilation of a workload's traces.

    Returns a :class:`repro.gpu.columnar.CompiledTrace` whose columns
    are frozen; it is shared across runs in this process.  Unhashable
    workload params fall back to an uncached build and compile.
    """
    return _compiled.get(
        (_trace_key(workload, ctx), line_bytes, sector_bytes),
        lambda: compile_trace(materialize(workload, ctx), line_bytes,
                              sector_bytes))


def compiled_digest(workload: Workload, ctx: GenContext,
                    line_bytes: int = 128, sector_bytes: int = 32) -> str:
    """Content address of a workload's compiled trace (see
    :attr:`repro.gpu.columnar.CompiledTrace.digest`) — what the result
    cache mixes into functional-tier keys."""
    return materialize_compiled(workload, ctx, line_bytes,
                                sector_bytes).digest


# -- L2 request streams (stage 1 of the functional tier) ---------------------
#
# With L1 fills installed in issue order, what the L1s send the L2 is a
# function of the compiled trace and the L1 geometry alone (see
# :mod:`repro.sim.functional`), so a sweep over protection schemes
# replays one memoized stream per trace.


def materialize_l2_stream(compiled, geometry):
    """Memoized stage 1 of the functional tier: the
    :class:`repro.sim.functional.L2Stream` of ``compiled`` (a
    :class:`repro.gpu.columnar.CompiledTrace`) on the SMs and L1s of
    ``geometry`` (a :class:`repro.sim.functional.L1Geometry`), keyed on
    the trace's digest and the geometry.  The stream's arrays are
    frozen; callers share it."""
    from repro.sim.functional import compile_l2_stream

    return _streams.get((compiled.digest, geometry),
                        lambda: compile_l2_stream(compiled, geometry))


def l2_stream_memoized(compiled, geometry) -> bool:
    """Whether this process holds the :func:`materialize_l2_stream` of
    ``compiled`` on ``geometry``: it has replayed the trace on those
    L1s before, or materialized it for workers it forks.  Counts
    neither a hit nor a miss."""
    return (compiled.digest, geometry) in _streams.entries


# -- L2 recordings (stage 2 of the functional tier) --------------------------
#
# Under a scheme that leaves the L2 alone, what the L2 does with a stream
# depends only on the stream and the L2's shape, so every such scheme
# replays against one recording per trace and machine.  A recording
# costs about one fused replay, so it pays only where it is reused: the
# functional tier records a trace the process has replayed before (see
# repro.core.system.GpuSystem._run_functional).


def materialize_l2_record(compiled, stream, l1_geometry, l2_geometry,
                          flush_at_end: bool):
    """Memoized stage 2 of the functional tier: the
    :class:`repro.sim.functional.L2Record` of ``stream`` (the
    :func:`materialize_l2_stream` of ``compiled`` on ``l1_geometry``)
    on L2 slices of ``l2_geometry`` (a
    :class:`repro.sim.functional.L2Geometry`), flushed at the end or
    not; None when the recording declines the stream.  Keyed on the
    trace's digest, both geometries and ``flush_at_end``; the record's
    columns are frozen and callers share it."""
    from repro.sim.functional import record_l2

    return _records.get(
        (compiled.digest, l1_geometry, l2_geometry, flush_at_end),
        lambda: record_l2(stream, l2_geometry, flush_at_end))


def array_layout(sizes_bytes: List[int], align: int = 4096,
                 base: int = HEAP_BASE) -> List[int]:
    """Lay out arrays back-to-back with alignment; returns base addresses."""
    bases = []
    addr = base
    for size in sizes_bytes:
        addr = (addr + align - 1) // align * align
        bases.append(addr)
        addr += size
    return bases
