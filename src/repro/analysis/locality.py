"""Trace-level memory-hierarchy locality analytics.

Everything here is a pass over the frozen
:class:`~repro.gpu.columnar.CompiledTrace` columns on the standard
library — no simulation.
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
positions — O(n log n); every other pass is linear, apart from
sorting the warm distances.  Quantiles and sample points follow
numpy's default definitions bit for bit (:func:`_quantile`,
:func:`_linspace`), the definitions the pinned reports and the
regression baseline's locality bands were recorded with.  Traces
at benchmark scales are thousands to a few hundred thousand
transactions, so the whole module runs in well under a second per
scheme.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence

from repro.gpu.columnar import (OP_COMPUTE, CompiledTrace, round_robin_order,
                                touched_sectors)

#: Percentiles reported for every reuse-distance distribution.
PERCENTILES = (50, 90, 99)


def reuse_distances(keys: Sequence[int]) -> List[int]:
    """Exact LRU stack distance per reference; ``-1`` for cold misses.

    ``keys`` is any integer reference stream (line indices, sector
    addresses, metadata atoms).  The distance of reference ``i`` is
    the number of *distinct* keys referenced strictly between the
    previous reference to ``keys[i]`` and ``i`` — i.e. the minimal
    fully-associative LRU capacity (in keys) at which reference ``i``
    hits is ``distance + 1``.
    """
    n = len(keys)
    out = [-1] * n
    last: Dict[int, int] = {}  # key -> position of its latest reference
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

    for i, key in enumerate(keys):
        p = last.get(key)
        if p is not None:
            out[i] = query(i) - query(p + 1)
            update(p, -1)
        last[key] = i
        update(i, 1)
    return out


def _quantile(sorted_values: Sequence[int], q: float) -> float:
    """The ``q`` quantile of a non-empty sorted sequence, equal bit for
    bit to numpy's default (``"linear"``) method: interpolate at index
    ``(n - 1) * q``, from the lower neighbour below the midpoint and
    from the upper one at or above it."""
    n = len(sorted_values)
    index = (n - 1) * q
    i = int(index)
    g = index - i
    lo = sorted_values[i]
    hi = sorted_values[min(i + 1, n - 1)]
    if g < 0.5:
        return lo + (hi - lo) * g
    return hi - (hi - lo) * (1 - g)


def _linspace(start: float, stop: float, num: int) -> List[float]:
    """``num`` evenly spaced points from ``start`` to ``stop``, equal
    bit for bit to ``numpy.linspace``."""
    if num == 1:
        return [float(start)]
    step = (stop - start) / (num - 1)
    points = [i * step + start for i in range(num)]
    points[-1] = float(stop)
    return points


def distance_summary(dists: Sequence[int]) -> Dict[str, object]:
    """Log2 histogram + percentiles of a stack-distance sequence."""
    total = len(dists)
    warm = sorted(d for d in dists if d >= 0)
    summary: Dict[str, object] = {
        "refs": total,
        "cold": total - len(warm),
        "reuse_frac": round(len(warm) / total, 4) if total else 0.0,
    }
    # Buckets: [0], [1], [2,3], [4,7], ... — edge i covers [2**(i-1), 2**i).
    if warm:
        nbuckets = max(1, warm[-1].bit_length() + 1)
        edges = [0] + [1 << b for b in range(nbuckets)]
        # The last bucket starts above the largest distance: it is empty.
        bounds = [bisect_left(warm, e) for e in edges] + [len(warm)]
        summary["histogram"] = {
            "edges": edges,
            "counts": [hi - lo for lo, hi in zip(bounds, bounds[1:])],
        }
        for p in PERCENTILES:
            summary[f"p{p}"] = _quantile(warm, p / 100)
        summary["mean"] = round(sum(warm) / len(warm), 2)
    else:
        summary["histogram"] = {"edges": [0], "counts": [0]}
        for p in PERCENTILES:
            summary[f"p{p}"] = None
        summary["mean"] = None
    return summary


def distance_cdf(dists: Sequence[int],
                 points: int = 33) -> List[List[float]]:
    """(distance, cumulative fraction of warm refs) pairs for plotting."""
    warm = sorted(d for d in dists if d >= 0)
    if not warm:
        return []
    return [[_quantile(warm, q), round(q, 4)]
            for q in _linspace(0.0, 1.0, points)]


def working_set_curve(keys: Sequence[int],
                      points: int = 64) -> Dict[str, List[int]]:
    """Unique keys touched within the first N references, sampled."""
    n = len(keys)
    if n == 0:
        return {"refs": [], "unique": []}
    seen = set()
    unique_so_far = []
    for key in keys:
        seen.add(key)
        unique_so_far.append(len(seen))
    xs = sorted({int(x) for x in _linspace(1, n, min(points, n))})
    return {"refs": xs, "unique": [unique_so_far[x - 1] for x in xs]}


def ordered_transactions(compiled: CompiledTrace,
                         machine_sms: int) -> List[int]:
    """Transaction indices in global execution order.

    Expands :func:`round_robin_order`'s op order to the ops'
    coalesced transactions (which replay issues in array order).
    """
    txn_ptr = compiled.op_txn_ptr
    return [t for o in round_robin_order(compiled, machine_sms)
            for t in range(txn_ptr[o], txn_ptr[o + 1])]


def metadata_prediction(compiled: CompiledTrace, txn_idx: Sequence[int],
                        layout) -> Dict[str, object]:
    """Predict metadata locality under a scheme's inline-ECC layout.

    Maps each data transaction to the metadata atom(s) its granules
    live in, then measures the atom stream's reuse and co-location.
    A transaction spanning several granules that share one atom still
    makes a single atom reference, matching what the schemes fetch.
    """
    txn_line = compiled.txn_line
    line_bytes = compiled.line_bytes
    granule_bytes = layout.granule_bytes
    mpg = layout.meta_per_granule
    atom = layout.atom_bytes
    base = layout.metadata_base

    def atom_of(g):
        addr = base + g * mpg
        return addr - (addr % atom)

    atoms: List[int] = []
    granules: List[int] = []  # representative granule per atom reference
    for t in txn_idx:
        lo = txn_line[t] * line_bytes
        g_lo = lo // granule_bytes
        a_lo = atom_of(g_lo)
        a_hi = atom_of((lo + line_bytes - 1) // granule_bytes)
        if a_lo == a_hi:
            atoms.append(a_lo)
            granules.append(g_lo)
        else:  # rare: a line's granules straddle atom boundaries
            for a in range(a_lo, a_hi + atom, atom):
                atoms.append(a)
                granules.append((a - base) // mpg)

    refs = len(atoms)
    uniq_atoms = len(set(atoms))
    dists = reuse_distances(atoms)
    packed_reuse = sum(d >= 0 for d in dists) / refs if refs else 0.0
    # Naive layout: one private atom per granule, so an atom only
    # re-references when the *same* granule does.
    naive_dists = reuse_distances(granules)
    naive_reuse = sum(d >= 0 for d in naive_dists) / refs if refs else 0.0
    # Chunk co-location: distinct granules sharing each touched atom.
    colocation = (round(len(set(zip(atoms, granules))) / uniq_atoms, 3)
                  if refs else 0.0)
    return {
        "meta_refs": refs,
        "meta_atoms": uniq_atoms,
        "granules": len(set(granules)),
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
    txn_line = compiled.txn_line
    txn_mask = compiled.txn_mask
    lines = [txn_line[t] for t in txn_idx]
    active_sectors = sum(txn_mask[t].bit_count() for t in txn_idx)
    sectors_per_line = max(1, compiled.line_bytes // compiled.sector_bytes)
    mem_ops = sum(k != OP_COMPUTE for k in compiled.op_kind)
    txns = len(txn_idx)

    line_dists = reuse_distances(lines)
    sec_addrs = list(touched_sectors(compiled, txn_idx))
    sec_dists = reuse_distances(sec_addrs)
    footprint_lines = len(set(lines))
    footprint_sectors = len(set(sec_addrs))

    report: Dict[str, object] = {
        "ops": compiled.num_ops,
        "mem_ops": mem_ops,
        "txns": txns,
        "line": {
            "footprint_lines": footprint_lines,
            "footprint_bytes": footprint_lines * compiled.line_bytes,
            "reuse": distance_summary(line_dists),
            "reuse_cdf": distance_cdf(line_dists),
            "working_set": working_set_curve(lines),
        },
        "sector": {
            "footprint_sectors": footprint_sectors,
            "footprint_bytes": footprint_sectors * compiled.sector_bytes,
            "reuse": distance_summary(sec_dists),
            "reuse_cdf": distance_cdf(sec_dists),
        },
        "coalescing": {
            "txns_per_mem_op": round(txns / mem_ops, 3) if mem_ops else 0.0,
            "sectors_per_txn": round(active_sectors / txns, 3)
            if txns else 0.0,
            "sector_utilization": round(
                active_sectors / (txns * sectors_per_line), 4)
            if txns else 0.0,
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
