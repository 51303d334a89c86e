"""Cache substrate: sectored caches, replacement policies, MSHRs.

GPU caches are *sectored*: a line (128 B here) has one tag but is
filled and validated 32 B at a time, so divergent access patterns do
not pay full-line fetch bandwidth.  This package provides:

* :mod:`repro.cache.replacement` — LRU, Tree-PLRU, SRRIP and random
  replacement, all behind one per-set interface;
* :mod:`repro.cache.sectored` — the sectored set-associative cache with
  per-sector valid/dirty/*verified* state (the verified bit is what the
  CacheCraft protection layer builds on), used by the L2 slices and the
  dedicated metadata caches;
* :mod:`repro.cache.l1` — the SMs' write-through LRU L1;
* :mod:`repro.cache.mshr` — miss-status holding registers with
  same-line merge.
"""

from repro.cache.mshr import MshrEntry, MshrFile
from repro.cache.replacement import (
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SrripPolicy,
    TreePlruPolicy,
    make_policy,
)
from repro.cache.sectored import CacheLine, Eviction, LookupResult, SectoredCache

__all__ = [
    "ReplacementPolicy",
    "LruPolicy",
    "TreePlruPolicy",
    "SrripPolicy",
    "RandomPolicy",
    "make_policy",
    "SectoredCache",
    "CacheLine",
    "LookupResult",
    "Eviction",
    "MshrFile",
    "MshrEntry",
]
