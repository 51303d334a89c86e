"""Trace-level memory-hierarchy locality analytics.

Everything here is a vectorized pass over zero-copy numpy views of
the frozen :class:`~repro.gpu.columnar.CompiledTrace` columns
(:func:`~repro.gpu.columnar.numpy_views`) — no simulation.
The transaction stream is walked in the functional replay's global op
order (:func:`~repro.gpu.columnar.round_robin_order`), which is the
order both fidelity tiers issue memory transactions in, so the
analytics describe the same reference stream the caches actually see.

Three families of results:

* **Reuse structure** — exact LRU stack distances (unique lines
  touched between consecutive references to the same line) at line
  and sector granularity, summarized as log2-bucketed histograms and
  percentile CDFs.  ``-1`` marks a cold (first) reference.
* **Working set / footprint / coalescing** — unique-lines-so-far
  curves, total footprints, and transactions-per-op / sector
  utilization from the coalescer's masks.
* **Metadata locality prediction** — map every data transaction
  through a scheme's :class:`~repro.dram.layout.InlineEccLayout` to
  the metadata *atom* it would reference, then measure that stream's
  reuse and how many distinct data granules share each touched atom
  (chunk co-location).  ``predicted_efficacy`` is the fraction of
  metadata references the packed (reconstructed-chunk) layout turns
  into reuses that a naive one-atom-per-granule layout would not:
  locality the scheme gets for free from co-location, straight from
  the trace.

Stack distances are computed with a Fenwick tree over reference
positions — O(n log n) with a small python loop; every other pass is
pure numpy.  Traces at benchmark scales are thousands to a few
hundred thousand transactions, so the whole module runs in well under
a second per scheme.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.gpu.columnar import (OP_COMPUTE, CompiledTrace, numpy_views,
                                round_robin_order)

#: Percentiles reported for every reuse-distance distribution.
PERCENTILES = (50, 90, 99)


def _popcount32(masks: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount over uint32 sector masks."""
    x = masks.astype(np.uint32)
    x = x - ((x >> 1) & np.uint32(0x55555555))
    x = (x & np.uint32(0x33333333)) + ((x >> 2) & np.uint32(0x33333333))
    x = (x + (x >> 4)) & np.uint32(0x0F0F0F0F)
    return ((x * np.uint32(0x01010101)) >> 24).astype(np.int64)


def reuse_distances(keys: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance per reference; ``-1`` for cold misses.

    ``keys`` is any integer reference stream (line indices, sector
    addresses, metadata atoms).  The distance of reference ``i`` is
    the number of *distinct* keys referenced strictly between the
    previous reference to ``keys[i]`` and ``i`` — i.e. the minimal
    fully-associative LRU capacity (in keys) at which reference ``i``
    hits is ``distance + 1``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    _, inv = np.unique(keys, return_inverse=True)
    last = np.full(int(inv.max()) + 1, -1, dtype=np.int64)
    # Fenwick tree over positions; tree[p] marks "position p-1 is the
    # most recent reference to its key".
    tree = [0] * (n + 1)

    def query(pos: int) -> int:  # sum of markers at positions < pos
        total = 0
        while pos > 0:
            total += tree[pos]
            pos -= pos & -pos
        return total

    def update(pos: int, delta: int) -> None:  # marker at position pos
        pos += 1
        while pos <= n:
            tree[pos] += delta
            pos += pos & -pos

    for i in range(n):
        k = inv[i]
        p = last[k]
        if p >= 0:
            out[i] = query(i) - query(p + 1)
            update(p, -1)
        last[k] = i
        update(i, 1)
    return out


def distance_summary(dists: np.ndarray) -> Dict[str, object]:
    """Log2 histogram + percentiles of a stack-distance array."""
    dists = np.asarray(dists, dtype=np.int64)
    total = int(len(dists))
    warm = dists[dists >= 0]
    summary: Dict[str, object] = {
        "refs": total,
        "cold": int(total - len(warm)),
        "reuse_frac": round(len(warm) / total, 4) if total else 0.0,
    }
    # Buckets: [0], [1], [2,3], [4,7], ... — edge i covers [2**(i-1), 2**i).
    if len(warm):
        top = int(warm.max())
        nbuckets = max(1, top.bit_length() + 1)
        edges = [0] + [1 << b for b in range(nbuckets)]
        counts = np.histogram(warm, bins=edges + [edges[-1] + 1])[0]
        summary["histogram"] = {
            "edges": edges,
            "counts": [int(c) for c in counts],
        }
        for p in PERCENTILES:
            summary[f"p{p}"] = float(np.percentile(warm, p))
        summary["mean"] = round(float(warm.mean()), 2)
    else:
        summary["histogram"] = {"edges": [0], "counts": [0]}
        for p in PERCENTILES:
            summary[f"p{p}"] = None
        summary["mean"] = None
    return summary


def distance_cdf(dists: np.ndarray, points: int = 33) -> List[List[float]]:
    """(distance, cumulative fraction of warm refs) pairs for plotting."""
    warm = np.sort(np.asarray(dists)[np.asarray(dists) >= 0])
    if not len(warm):
        return []
    qs = np.linspace(0.0, 1.0, points)
    xs = np.quantile(warm, qs)
    return [[float(x), round(float(q), 4)] for x, q in zip(xs, qs)]


def working_set_curve(keys: np.ndarray,
                      points: int = 64) -> Dict[str, List[int]]:
    """Unique keys touched within the first N references, sampled."""
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    if n == 0:
        return {"refs": [], "unique": []}
    _, first_idx = np.unique(keys, return_index=True)
    first = np.zeros(n, dtype=np.int64)
    first[first_idx] = 1
    cum = np.cumsum(first)
    xs = np.unique(np.linspace(1, n, min(points, n)).astype(np.int64))
    return {"refs": [int(x) for x in xs],
            "unique": [int(cum[x - 1]) for x in xs]}


def ordered_transactions(compiled: CompiledTrace,
                         machine_sms: int) -> np.ndarray:
    """Transaction indices in global execution order.

    Expands :func:`round_robin_order`'s op order to the ops'
    coalesced transactions (which replay issues in array order).
    """
    kinds, op_txn_ptr = numpy_views(compiled, "op_kind", "op_txn_ptr")
    order = round_robin_order(compiled, machine_sms)
    mem = order[kinds[order] != OP_COMPUTE]
    starts = op_txn_ptr[mem]
    counts = op_txn_ptr[mem + 1] - starts
    if not len(mem) or not counts.sum():
        return np.empty(0, dtype=np.int64)
    idx = np.repeat(starts, counts)
    offs = np.arange(len(idx), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)
    return idx + offs


def sector_addresses(compiled: CompiledTrace,
                     txn_idx: np.ndarray) -> np.ndarray:
    """Byte address of every referenced sector, transaction-ordered."""
    sectors_per_line = max(1, compiled.line_bytes // compiled.sector_bytes)
    txn_line, txn_mask = numpy_views(compiled, "txn_line", "txn_mask")
    lines = txn_line[txn_idx]
    masks = txn_mask[txn_idx].astype(np.uint32)
    parts = []
    for s in range(sectors_per_line):
        hit = (masks >> np.uint32(s)) & np.uint32(1)
        sel = np.nonzero(hit)[0]
        if len(sel):
            parts.append((txn_idx[sel], lines[sel] * compiled.line_bytes
                          + s * compiled.sector_bytes))
    if not parts:
        return np.empty(0, dtype=np.int64)
    owner = np.concatenate([p[0] for p in parts])
    addrs = np.concatenate([p[1] for p in parts])
    # Stable order: by position in the txn stream, then sector index.
    pos = np.empty(len(txn_line), dtype=np.int64)
    pos[txn_idx] = np.arange(len(txn_idx), dtype=np.int64)
    order = np.lexsort((addrs, pos[owner]))
    return addrs[order]


def metadata_prediction(compiled: CompiledTrace, txn_idx: np.ndarray,
                        layout) -> Dict[str, object]:
    """Predict metadata locality under a scheme's inline-ECC layout.

    Maps each data transaction to the metadata atom(s) its granules
    live in, then measures the atom stream's reuse and co-location.
    A transaction spanning several granules that share one atom still
    makes a single atom reference, matching what the schemes fetch.
    """
    (txn_line,) = numpy_views(compiled, "txn_line")
    lo = txn_line[txn_idx] * compiled.line_bytes
    hi = lo + compiled.line_bytes - 1
    g_lo = lo // layout.granule_bytes
    g_hi = hi // layout.granule_bytes
    mpg = layout.meta_per_granule
    atom = layout.atom_bytes

    def atom_of(g):
        addr = layout.metadata_base + g * mpg
        return addr - (addr % atom)

    a_lo = atom_of(g_lo)
    a_hi = atom_of(g_hi)
    same = a_lo == a_hi
    if bool(np.all(same)):
        atoms = a_lo
        granules = g_lo  # representative granule per atom reference
    else:  # rare: a line's granules straddle atom boundaries
        straddle = np.nonzero(~same)[0]
        chunks_a: List[np.ndarray] = []
        chunks_g: List[np.ndarray] = []
        for i in straddle:
            span = np.arange(a_lo[i], a_hi[i] + atom, atom, dtype=np.int64)
            chunks_a.append(span)
            chunks_g.append((span - layout.metadata_base) // mpg)
        # Keep execution-stream order: splice a multi-atom reference's
        # expansion at its transaction's position.
        atoms = np.concatenate([a_lo[same]] + chunks_a)
        granules = np.concatenate([g_lo[same]] + chunks_g)
        order = np.argsort(
            np.concatenate([np.nonzero(same)[0]]
                           + [np.full(len(c), i, dtype=np.int64)
                              for c, i in zip(chunks_a, straddle)]),
            kind="stable")
        atoms, granules = atoms[order], granules[order]

    refs = int(len(atoms))
    uniq_atoms = int(len(np.unique(atoms)))
    uniq_granules = int(len(np.unique(granules)))
    dists = reuse_distances(atoms)
    packed_reuse = float((dists >= 0).mean()) if refs else 0.0
    # Naive layout: one private atom per granule, so an atom only
    # re-references when the *same* granule does.
    naive_dists = reuse_distances(granules)
    naive_reuse = float((naive_dists >= 0).mean()) if refs else 0.0
    # Chunk co-location: distinct granules sharing each touched atom.
    if refs:
        pairs = np.unique(np.stack([atoms, granules]), axis=1)
        colocation = round(pairs.shape[1] / uniq_atoms, 3)
    else:
        colocation = 0.0
    return {
        "meta_refs": refs,
        "meta_atoms": uniq_atoms,
        "granules": uniq_granules,
        "granules_per_meta_atom": layout.granules_per_meta_atom,
        "reuse": distance_summary(dists),
        "reuse_cdf": distance_cdf(dists),
        "colocation": colocation,
        "packed_reuse_frac": round(packed_reuse, 4),
        "naive_reuse_frac": round(naive_reuse, 4),
        "predicted_efficacy": round(packed_reuse - naive_reuse, 4),
    }


def trace_analytics(compiled: CompiledTrace, machine_sms: int,
                    layout=None) -> Dict[str, object]:
    """The full trace-level locality report for one workload cell.

    ``layout`` (an :class:`~repro.dram.layout.InlineEccLayout`, or
    ``None`` for schemes without inline metadata) enables the
    metadata-prediction section.
    """
    txn_idx = ordered_transactions(compiled, machine_sms)
    txn_line, txn_mask, kinds = numpy_views(compiled, "txn_line",
                                            "txn_mask", "op_kind")
    lines = txn_line[txn_idx]
    masks = txn_mask[txn_idx]
    sectors_per_line = max(1, compiled.line_bytes // compiled.sector_bytes)
    mem_ops = int((kinds != OP_COMPUTE).sum())

    line_dists = reuse_distances(lines)
    sec_addrs = sector_addresses(compiled, txn_idx)
    sec_dists = reuse_distances(sec_addrs)
    active_sectors = int(_popcount32(masks).sum()) if len(masks) else 0

    report: Dict[str, object] = {
        "ops": int(compiled.num_ops),
        "mem_ops": mem_ops,
        "txns": int(len(txn_idx)),
        "line": {
            "footprint_lines": int(len(np.unique(lines))),
            "footprint_bytes": int(len(np.unique(lines))
                                   * compiled.line_bytes),
            "reuse": distance_summary(line_dists),
            "reuse_cdf": distance_cdf(line_dists),
            "working_set": working_set_curve(lines),
        },
        "sector": {
            "footprint_sectors": int(len(np.unique(sec_addrs))),
            "footprint_bytes": int(len(np.unique(sec_addrs))
                                   * compiled.sector_bytes),
            "reuse": distance_summary(sec_dists),
            "reuse_cdf": distance_cdf(sec_dists),
        },
        "coalescing": {
            "txns_per_mem_op": round(len(txn_idx) / mem_ops, 3)
            if mem_ops else 0.0,
            "sectors_per_txn": round(active_sectors / len(txn_idx), 3)
            if len(txn_idx) else 0.0,
            "sector_utilization": round(
                active_sectors / (len(txn_idx) * sectors_per_line), 4)
            if len(txn_idx) else 0.0,
        },
    }
    if layout is not None:
        report["metadata"] = metadata_prediction(compiled, txn_idx, layout)
    return report


def key_trace_metrics(report: Dict[str, object]) -> Dict[str, float]:
    """The scalar ledger-worthy metrics distilled from a report."""
    metrics: Dict[str, float] = {}
    line = report.get("line", {}).get("reuse", {})
    if line.get("p50") is not None:
        metrics["line_reuse_p50"] = round(float(line["p50"]), 2)
    meta = report.get("metadata")
    if meta:
        p50 = meta["reuse"].get("p50")
        if p50 is not None:
            metrics["mdcache_reuse_p50"] = round(float(p50), 2)
        metrics["meta_colocation"] = float(meta["colocation"])
        metrics["predicted_efficacy"] = float(meta["predicted_efficacy"])
    return metrics
