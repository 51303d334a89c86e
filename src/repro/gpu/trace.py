"""Warp traces.

A warp trace is a finite iterable of :class:`WarpOp`:

* :class:`ComputeOp` — the warp occupies its scheduler slot result for
  ``cycles`` cycles (models arithmetic between memory operations);
* :class:`MemoryOp` — a 32-lane load or store with one byte address per
  active lane.

Traces are plain data so workload generators stay decoupled from the
machine model.  They live only until
:func:`~repro.gpu.columnar.compile_trace` lowers them into the columnar
artifact both fidelity tiers run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence, Tuple, Union


@dataclass(frozen=True)
class ComputeOp:
    """Non-memory work: the issuing warp sleeps for ``cycles``."""

    cycles: int

    def __post_init__(self) -> None:
        cycles = self.cycles
        if type(cycles) is not int:
            # Integer types such as numpy's are stored as ``int``; a
            # fraction would put the engine's clock off the integers.
            try:
                cycles = operator.index(cycles)
            except TypeError:
                raise TypeError("compute cycles must be an integer, got "
                                f"{self.cycles!r}") from None
            object.__setattr__(self, "cycles", cycles)
        if cycles < 1:
            raise ValueError("compute cycles must be >= 1")


@dataclass(frozen=True)
class MemoryOp:
    """A coalesced-at-issue 32-lane memory instruction.

    ``addresses`` holds one byte address per *active* lane (divergent
    warps simply list fewer, or scattered, addresses).

    ``is_atomic`` models GPU global atomics (atomicAdd & co.), which
    execute at the L2: the sector must be fetched (and verified) on a
    miss — unlike plain stores, which write-allocate without fetching —
    and is dirtied in place.  Fire-and-forget (no return value), like
    stores.
    """

    addresses: Tuple[int, ...]
    is_store: bool = False
    is_atomic: bool = False

    def __post_init__(self) -> None:
        if not self.addresses:
            raise ValueError("memory op needs at least one address")
        if len(self.addresses) > 32:
            raise ValueError("a warp has at most 32 lanes")
        if min(self.addresses) < 0:
            raise ValueError("addresses must be non-negative")
        if self.is_atomic and not self.is_store:
            raise ValueError("atomic ops are read-modify-writes: set "
                             "is_store=True as well")


WarpOp = Union[ComputeOp, MemoryOp]


def validate_trace(ops: Sequence[WarpOp]) -> None:
    """Raise if a trace contains anything but WarpOps."""
    for i, op in enumerate(ops):
        if not isinstance(op, (ComputeOp, MemoryOp)):
            raise TypeError(f"trace element {i} is {type(op).__name__}, "
                            "expected ComputeOp or MemoryOp")
