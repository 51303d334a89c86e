"""The columnar warp-trace IR.

:func:`compile_trace` lowers ``Workload.build`` output (``[sm][warp]
-> [WarpOp]``) into a :class:`CompiledTrace`: parallel columns of
(sm, warp, op-kind, line-address, sector-mask, is_store/is_atomic)
with the memory coalescer run **once per memory op at build time**.
It is the only code in the model that reads op lists: both fidelity
tiers run the compiled form (the event SMs' warps are op ranges of it;
the functional tier replays it), :mod:`repro.gpu.tracefile`
serializes it, and its :attr:`CompiledTrace.digest` participates in
functional-tier result-cache keys.

Layout — three parallel levels, all offsets half-open:

* **warps** (flattened SM-major, matching
  :func:`repro.gpu.tracefile.flatten_machine_traces`):
  ``warp_sm[w]`` is the owning SM, ``warp_ptr[w] .. warp_ptr[w+1]``
  the warp's op range.
* **ops**: ``op_kind[o]`` is one of :data:`OP_COMPUTE` /
  :data:`OP_LOAD` / :data:`OP_STORE` / :data:`OP_ATOMIC` (atomics are
  stores — the two flag bits of the op-list IR collapse into the kind
  enum), ``op_arg[o]`` carries a compute op's cycles (0 for memory
  ops), ``op_txn_ptr[o] .. op_txn_ptr[o+1]`` the op's coalesced
  transactions (empty for compute ops).
* **transactions**: ``txn_line[t]`` / ``txn_mask[t]`` — one cache
  line index plus sector mask per transaction, in :func:`coalesce`
  order (sorted by line).

Each column is a read-only ``memoryview`` of a stdlib ``array``'s
bytes (a write raises ``TypeError``): compiled traces are memoized and
shared across runs, so nothing may mutate one.  Code that needs vector
maths takes zero-copy numpy views (:func:`numpy_views`) and is the
only code that imports numpy.  The ``digest`` (blake2b over version,
geometry and the columns' little-endian bytes) is a stable content
address — equal traces compile to equal digests across processes and
machines.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.gpu.coalescer import coalesce
from repro.gpu.trace import ComputeOp, MemoryOp, WarpOp

#: Artifact version: bump on any change to the column set, dtypes or
#: their meaning (participates in the digest and the on-disk header).
COLUMNAR_VERSION = 1

#: Op kinds (``op_kind`` values).
OP_COMPUTE = 0
OP_LOAD = 1
OP_STORE = 2
OP_ATOMIC = 3

#: (name, dtype) of every column in serialization/digest order.  Dtypes
#: are explicit little-endian so digests and files are
#: platform-independent.
ARRAY_SPECS = (
    ("warp_sm", "<i4"),
    ("warp_ptr", "<i8"),
    ("op_kind", "<u1"),
    ("op_arg", "<i8"),
    ("op_txn_ptr", "<i8"),
    ("txn_line", "<i8"),
    ("txn_mask", "<u4"),
)

#: The stdlib ``array`` typecode of each dtype in :data:`ARRAY_SPECS`.
TYPECODES = {"<i4": "i", "<i8": "q", "<u1": "B", "<u4": "I"}


def _swapped(values: array) -> array:
    """``values``, byte-swapped in place on a big-endian host: native
    order <-> the little-endian order of digests and files."""
    if sys.byteorder != "little":
        values.byteswap()
    return values


def frozen_column(values: array) -> memoryview:
    """``values`` as a read-only column (over a copy of its bytes)."""
    return memoryview(values.tobytes()).cast(values.typecode)


def column_bytes(column: memoryview) -> bytes:
    """A column's little-endian bytes."""
    return _swapped(array(column.format, column.tobytes())).tobytes()


def column_from_bytes(data: bytes, dtype: str) -> memoryview:
    """The column of ``dtype`` whose little-endian bytes are ``data``."""
    return frozen_column(_swapped(array(TYPECODES[dtype], data)))


def numpy_views(compiled: "CompiledTrace", *names: str) -> list:
    """Zero-copy, read-only numpy views of ``compiled``'s columns
    ``names`` (numpy arrays pass through unchanged)."""
    import numpy as np

    return [np.asarray(getattr(compiled, name)) for name in names]


@dataclass(frozen=True)
class CompiledTrace:
    """The columnar artifact: geometry + frozen parallel columns."""

    num_sms: int
    line_bytes: int
    sector_bytes: int
    warp_sm: memoryview      # int32  (W,)   owning SM per warp
    warp_ptr: memoryview     # int64  (W+1,) op offsets per warp
    op_kind: memoryview      # uint8  (O,)   OP_* per op
    op_arg: memoryview       # int64  (O,)   compute cycles (0 for memory)
    op_txn_ptr: memoryview   # int64  (O+1,) txn offsets per op
    txn_line: memoryview     # int64  (T,)   line index per transaction
    txn_mask: memoryview     # uint32 (T,)   sector mask per transaction
    digest: str              # blake2b content address

    @property
    def num_warps(self) -> int:
        return len(self.warp_sm)

    @property
    def num_ops(self) -> int:
        return len(self.op_kind)

    @property
    def num_txns(self) -> int:
        return len(self.txn_line)

    def validate(self) -> None:
        """Structural sanity (used after deserialization)."""
        if len(self.warp_ptr) != self.num_warps + 1:
            raise ValueError("warp_ptr length != num_warps + 1")
        if len(self.op_txn_ptr) != self.num_ops + 1:
            raise ValueError("op_txn_ptr length != num_ops + 1")
        if len(self.op_arg) != self.num_ops:
            raise ValueError("op_arg length != num_ops")
        if self.num_ops and self.warp_ptr[-1] != self.num_ops:
            raise ValueError("warp_ptr does not cover the op arrays")
        if self.num_warps and not (0 <= min(self.warp_sm)
                                   <= max(self.warp_sm) < self.num_sms):
            raise ValueError("warp_sm out of range")
        if self.num_ops and self.op_txn_ptr[-1] != self.num_txns:
            raise ValueError("op_txn_ptr does not cover the txn arrays")


def trace_digest(num_sms: int, line_bytes: int, sector_bytes: int,
                 columns: Sequence[memoryview]) -> str:
    """Blake2b content address over version, geometry and the columns'
    little-endian bytes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"repro-columnar/{COLUMNAR_VERSION}/"
             f"{num_sms}/{line_bytes}/{sector_bytes}".encode("ascii"))
    for column in columns:
        h.update(column_bytes(column))
    return h.hexdigest()


def compile_trace(traces: Sequence[Sequence[Sequence[WarpOp]]],
                  line_bytes: int = 128,
                  sector_bytes: int = 32) -> CompiledTrace:
    """Lower ``[sm][warp] -> ops`` traces into a :class:`CompiledTrace`.

    Runs :func:`coalesce` once per memory op here, at build time, so
    neither tier re-derives (line, sector-mask) transactions.  The
    result's columns are frozen; callers share it freely.
    """
    warp_sm: List[int] = []
    warp_ptr: List[int] = [0]
    op_kind: List[int] = []
    op_arg: List[int] = []
    op_txn_ptr: List[int] = [0]
    txn_line: List[int] = []
    txn_mask: List[int] = []

    for sm_id, warp_traces in enumerate(traces):
        for ops in warp_traces:
            warp_sm.append(sm_id)
            for op in ops:
                if isinstance(op, ComputeOp):
                    op_kind.append(OP_COMPUTE)
                    op_arg.append(op.cycles)
                else:
                    assert isinstance(op, MemoryOp)
                    if op.is_atomic:
                        op_kind.append(OP_ATOMIC)
                    elif op.is_store:
                        op_kind.append(OP_STORE)
                    else:
                        op_kind.append(OP_LOAD)
                    op_arg.append(0)
                    for line, mask in coalesce(op.addresses, line_bytes,
                                               sector_bytes):
                        txn_line.append(line)
                        txn_mask.append(mask)
                op_txn_ptr.append(len(txn_line))
            warp_ptr.append(len(op_kind))

    columns = [frozen_column(array(TYPECODES[dtype], values))
               for values, (_name, dtype) in zip(
                   (warp_sm, warp_ptr, op_kind, op_arg, op_txn_ptr,
                    txn_line, txn_mask), ARRAY_SPECS)]
    num_sms = len(traces)
    digest = trace_digest(num_sms, line_bytes, sector_bytes, columns)
    return CompiledTrace(num_sms, line_bytes, sector_bytes,
                         *columns, digest=digest)


def touched_sectors(compiled: CompiledTrace) -> Iterator[int]:
    """The byte address of every sector each transaction touches, in
    transaction order."""
    line_bytes = compiled.line_bytes
    sector_bytes = compiled.sector_bytes
    for line, mask in zip(compiled.txn_line, compiled.txn_mask):
        base = line * line_bytes
        while mask:
            low = mask & -mask
            yield base + (low.bit_length() - 1) * sector_bytes
            mask ^= low


def round_robin_order(compiled: CompiledTrace, machine_sms: int):
    """Global op execution order of the functional tier's replay loop.

    The functional tier runs warps round-robin, one op per
    still-active warp per round, in flattened SM-major warp order;
    because the queue is drained after every memory op, that rotation
    **is** a total sequential order over ops.  This computes it
    vectorized: sort ops by (round = index within warp, warp index),
    dropping warps mapped beyond the machine's SM count
    (``load_workload`` skips those).

    Returns a numpy array of indices into the op columns,
    execution-ordered.
    """
    import numpy as np

    warp_ptr, warp_sm = numpy_views(compiled, "warp_ptr", "warp_sm")
    counts = np.diff(warp_ptr)
    op_warp = np.repeat(np.arange(compiled.num_warps, dtype=np.int64),
                        counts)
    op_round = (np.arange(compiled.num_ops, dtype=np.int64)
                - np.repeat(warp_ptr[:-1], counts))
    order = np.lexsort((op_warp, op_round))
    keep = warp_sm[op_warp[order]] < machine_sms
    return order[keep]
