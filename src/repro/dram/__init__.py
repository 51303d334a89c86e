"""GDDR-class DRAM substrate.

* :mod:`repro.dram.timing` — timing parameters (GDDR6-like defaults)
  expressed in core cycles;
* :mod:`repro.dram.channel` — a memory channel: address decode to
  (bank, row), open rows, FR-FCFS scheduling, shared data bus, refresh;
* :mod:`repro.dram.layout` — the inline-ECC carve-out that maps a data
  granule to the DRAM address of its protection metadata;
* :mod:`repro.dram.backing` — optional functional storage so the
  protection layer can run *real* ECC encode/decode over real bits.
"""

from repro.dram.backing import FunctionalMemory
from repro.dram.channel import DramRequest, MemoryChannel, RequestKind
from repro.dram.layout import InlineEccLayout
from repro.dram.timing import DramTiming

__all__ = [
    "DramTiming",
    "MemoryChannel",
    "DramRequest",
    "RequestKind",
    "InlineEccLayout",
    "FunctionalMemory",
]
