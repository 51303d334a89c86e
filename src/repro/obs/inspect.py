"""Opt-in memory-hierarchy introspection.

:class:`MemoryInspector` is the run-time half of the "why does this
scheme hit or thrash" story (the trace-level half lives in
:mod:`repro.analysis.locality`).
:meth:`repro.obs.hub.Observability.attach` hands lightweight per-set,
per-bank and per-structure views to the hardware models once the
system is built:

* :class:`CacheIntrospection` — per-set access/miss/eviction counters
  for a :class:`~repro.cache.sectored.SectoredCache` (both the L2
  slices and a dedicated metadata cache's SRAM array), with every
  eviction classified **conflict** (a free way existed somewhere else
  in the cache — set imbalance, not capacity, displaced the line) or
  **capacity** (every way in the cache was occupied).
* :class:`MdcIntrospection` — reconstruction-efficacy counters for a
  :class:`~repro.protection.mdcache.DedicatedMetadataCache`: a
  *colocation hit* is a readable hit on a metadata atom that none of
  the requesting granules themselves brought in or touched — locality
  a naive one-private-atom-per-granule layout could not have had.
* :class:`DramIntrospection` — per-bank row-buffer locality for a
  :class:`~repro.dram.channel.MemoryChannel`: **hit** (open row
  matched), **miss** (bank had no open row), **conflict** (a different
  row was open and had to be precharged).

The contract is zero impact when off: every hook site in the models
guards on an ``_insp is not None`` attribute that only this module's
``watch_*`` methods set, no simulation counter or event is touched,
and the introspection data is exported through its own artifact —
never through ``stats.flatten()`` — so disabled runs are
bit-identical on both fidelity tiers (``tests/test_inspect.py`` proves it, mirroring
the flame-profiler parity test).
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Version of the ``--inspect-out`` JSON artifact schema.
INSPECT_FORMAT = 1


class CacheIntrospection:
    """Per-set counters for one sectored cache (heatmap columns)."""

    __slots__ = ("label", "num_sets", "ways", "accesses", "misses",
                 "evictions", "conflict_evictions", "fills",
                 "invalidations", "hiwater")

    def __init__(self, label: str, num_sets: int, ways: int):
        self.label = label
        self.num_sets = num_sets
        self.ways = ways
        self.accesses = [0] * num_sets
        self.misses = [0] * num_sets
        self.evictions = [0] * num_sets
        self.conflict_evictions = [0] * num_sets
        self.fills = [0] * num_sets
        self.invalidations = [0] * num_sets
        #: Most ways ever simultaneously occupied, per set.
        self.hiwater = [0] * num_sets

    # -- hot-path hooks (guarded by ``_insp is not None`` in the model) --

    def access(self, set_idx: int, missed: bool) -> None:
        self.accesses[set_idx] += 1
        if missed:
            self.misses[set_idx] += 1

    def evicted(self, set_idx: int, conflict: bool) -> None:
        self.evictions[set_idx] += 1
        if conflict:
            self.conflict_evictions[set_idx] += 1

    def filled(self, set_idx: int, occupied: int) -> None:
        self.fills[set_idx] += 1
        if occupied > self.hiwater[set_idx]:
            self.hiwater[set_idx] = occupied

    def invalidated(self, set_idx: int) -> None:
        self.invalidations[set_idx] += 1

    # -- export ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        evictions = sum(self.evictions)
        conflicts = sum(self.conflict_evictions)
        return {
            "num_sets": self.num_sets,
            "ways": self.ways,
            "accesses": list(self.accesses),
            "misses": list(self.misses),
            "evictions": list(self.evictions),
            "conflict_evictions": list(self.conflict_evictions),
            "fills": list(self.fills),
            "invalidations": list(self.invalidations),
            "hiwater": list(self.hiwater),
            "conflict_eviction_frac": round(conflicts / evictions, 4)
            if evictions else 0.0,
        }


class MdcIntrospection:
    """Reconstruction-efficacy counters for a dedicated metadata cache."""

    __slots__ = ("label", "lookups", "hits", "colocation_hits", "fills",
                 "_owners")

    def __init__(self, label: str):
        self.label = label
        self.lookups = 0
        self.hits = 0
        self.colocation_hits = 0
        self.fills = 0
        # atom line -> granules that filled or touched it since fill.
        self._owners: Dict[int, set] = {}

    def note_lookup(self, line_addr: int, hit: bool, granules) -> None:
        self.lookups += 1
        if not hit:
            return
        self.hits += 1
        owners = self._owners.get(line_addr)
        if owners is None:
            return
        if granules and not any(g in owners for g in granules):
            # The packed chunk layout served a granule that never
            # touched this atom — a naive private-atom layout would
            # have gone to DRAM.
            self.colocation_hits += 1
        owners.update(granules)

    def note_fill(self, line_addr: int, granules,
                  evicted_line: Optional[int]) -> None:
        self.fills += 1
        if evicted_line is not None:
            self._owners.pop(evicted_line, None)
        self._owners[line_addr] = set(granules)

    def note_invalidate(self, line_addr: int) -> None:
        self._owners.pop(line_addr, None)

    def to_dict(self) -> Dict[str, object]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "colocation_hits": self.colocation_hits,
            "fills": self.fills,
            "colocation_hit_frac": round(self.colocation_hits / self.hits, 4)
            if self.hits else 0.0,
        }


class DramIntrospection:
    """Per-bank row-buffer locality for one memory channel."""

    __slots__ = ("label", "banks", "row_hits", "row_misses",
                 "row_conflicts")

    def __init__(self, label: str, banks: int):
        self.label = label
        self.banks = banks
        self.row_hits = [0] * banks
        self.row_misses = [0] * banks
        self.row_conflicts = [0] * banks

    def to_dict(self) -> Dict[str, object]:
        hits = sum(self.row_hits)
        misses = sum(self.row_misses)
        conflicts = sum(self.row_conflicts)
        total = hits + misses + conflicts
        return {
            "banks": self.banks,
            "row_hits": list(self.row_hits),
            "row_misses": list(self.row_misses),
            "row_conflicts": list(self.row_conflicts),
            "row_hit_rate": round(hits / total, 4) if total else 0.0,
            "row_conflict_rate": round(conflicts / total, 4)
            if total else 0.0,
        }


class MemoryInspector:
    """The introspection collector one observed run carries.

    Built by :func:`repro.obs.hub.make_observability` when an
    ``--inspect-out`` style flag is set;
    :meth:`repro.obs.hub.Observability.attach` calls the ``watch_*``
    methods once the system is built, and
    :meth:`~repro.core.system.GpuSystem.load_workload` calls
    :meth:`set_trace` once the workload's columnar artifact exists.
    Like the flame profiler it is counter-based, so it is allowed on
    the clock-free functional tier (the DRAM row view is simply absent
    there — :class:`~repro.sim.functional.FunctionalChannel` has no
    banks).
    """

    def __init__(self) -> None:
        self.caches: Dict[str, CacheIntrospection] = {}
        self.mdcaches: Dict[str, MdcIntrospection] = {}
        self.drams: Dict[str, DramIntrospection] = {}
        self._compiled = None
        self._machine_sms = 0
        self._layout = None
        self._trace_report: Optional[Dict[str, object]] = None

    # -- attachment (at attach and load time) ------------------------------

    def watch_cache(self, label: str, cache) -> CacheIntrospection:
        view = CacheIntrospection(label, cache.num_sets, cache.ways)
        cache._insp = view
        self.caches[label] = view
        return view

    def watch_mdcache(self, label: str, mdc) -> MdcIntrospection:
        view = MdcIntrospection(label)
        mdc._insp = view
        self.mdcaches[label] = view
        # The SRAM array behind it gets a set heatmap of its own.
        self.watch_cache(label, mdc._cache)
        return view

    def watch_dram(self, label: str, channel) -> DramIntrospection:
        view = DramIntrospection(label, channel.timing.banks)
        channel._insp = view
        self.drams[label] = view
        return view

    def set_trace(self, compiled, machine_sms: int, layout=None) -> None:
        """Hand over the columnar artifact for trace-level analytics.

        ``layout`` (the scheme's inline-ECC layout) enables the
        metadata-locality prediction; pass ``None`` for schemes with no
        inline metadata traffic (``none``, ``sideband``).
        """
        self._compiled = compiled
        self._machine_sms = machine_sms
        self._layout = layout
        self._trace_report = None

    # -- reporting ---------------------------------------------------------

    def trace_report(self) -> Optional[Dict[str, object]]:
        """The :func:`repro.analysis.locality.trace_analytics` report
        (memoized; ``None`` when no columnar trace was available)."""
        if self._trace_report is None and self._compiled is not None:
            from repro.analysis.locality import trace_analytics
            self._trace_report = trace_analytics(
                self._compiled, self._machine_sms, layout=self._layout)
        return self._trace_report

    def key_metrics(self) -> Dict[str, float]:
        """Scalar locality metrics for the run ledger."""
        metrics: Dict[str, float] = {}
        report = self.trace_report()
        if report is not None:
            from repro.analysis.locality import key_trace_metrics
            metrics.update(key_trace_metrics(report))
        hits = sum(v.hits for v in self.mdcaches.values())
        if hits:
            coloc = sum(v.colocation_hits for v in self.mdcaches.values())
            metrics["mdc_colocation_frac"] = round(coloc / hits, 4)
        return metrics

    def runtime_section(self) -> Dict[str, object]:
        return {
            "caches": {k: v.to_dict() for k, v in self.caches.items()},
            "mdcache": {k: v.to_dict() for k, v in self.mdcaches.items()},
            "dram": {k: v.to_dict() for k, v in self.drams.items()},
        }

    def artifact(self, workload: Optional[str] = None,
                 scheme: Optional[str] = None,
                 fidelity: Optional[str] = None) -> Dict[str, object]:
        """The full ``--inspect-out`` JSON artifact (see
        docs/OBSERVABILITY.md "Memory-hierarchy introspection")."""
        return {
            "format": INSPECT_FORMAT,
            "workload": workload,
            "scheme": scheme,
            "fidelity": fidelity,
            "trace": self.trace_report(),
            "runtime": self.runtime_section(),
            "metrics": self.key_metrics(),
        }
