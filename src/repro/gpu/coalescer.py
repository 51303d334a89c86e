"""The memory coalescer.

GPU hardware merges the 32 lane addresses of a memory instruction into
the minimal set of (cache line, sector mask) transactions.  A fully
coalesced access touches 1 line / 4 sectors; a fully divergent one can
touch 32 distinct lines with one sector each — a 32x difference in
transaction count that protection schemes then amplify or absorb.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Tuple


@lru_cache(maxsize=65536)
def _coalesce_cached(addresses: Tuple[int, ...], line_bytes: int,
                     sector_bytes: int) -> Tuple[Tuple[int, int], ...]:
    if line_bytes % sector_bytes:
        raise ValueError("line_bytes must be a multiple of sector_bytes")
    lines: Dict[int, int] = {}
    get = lines.get
    for addr in addresses:
        line, offset = divmod(addr, line_bytes)
        lines[line] = get(line, 0) | (1 << (offset // sector_bytes))
    return tuple(sorted(lines.items()))


def coalesce(addresses: Iterable[int], line_bytes: int = 128,
             sector_bytes: int = 32) -> List[Tuple[int, int]]:
    """Merge lane addresses into ``[(line_addr, sector_mask), ...]``.

    ``line_addr`` is the line index (byte address // line_bytes);
    ``sector_mask`` has bit *i* set when sector *i* of that line is
    touched.  Output is sorted by line for determinism.  The merge is
    memoized — an instruction compiled again (another trace, or the
    same one after its compiled memo entry went) coalesces once per
    process — but each call returns a fresh list, so callers may
    mutate their copy freely.
    """
    if type(addresses) is not tuple:
        addresses = tuple(addresses)
    return list(_coalesce_cached(addresses, line_bytes, sector_bytes))
