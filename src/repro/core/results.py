"""Run results and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Version string of the simulation model itself.  Bump whenever a
#: change alters *what a simulation produces* (timing, traffic,
#: counters) — persistent result caches key on it, so a bump
#: invalidates every stored result.  Pure refactors and new analysis
#: code do not require a bump.
#: v4: results gained the ``engine.events`` counter (events executed,
#: for ledger events/sec accounting).
#: v5: ``GenContext.scaled_dim`` gained per-dimensionality scaling
#: (3D volumes now scale linearly with ``scale``), which changes
#: stencil3d traces — and therefore its traffic — at scale != 1.
#: v6: the functional tier stalls on a full L1 MSHR file (counts
#: ``l1mshr.full_stalls``, drains, redoes the lookup) like the event SM.
MODEL_VERSION = "6"

#: Stat-key suffixes :meth:`RunResult.key_metrics` sums (hit rates,
#: DRAM row locality, CacheCraft reconstruction efficacy).
_KEY_METRIC_SUFFIXES = ("l1.hits", "l1.sector_misses", "l1.line_misses",
                        "cache.hits", "cache.sector_misses",
                        "cache.line_misses", "row_hits", "row_misses",
                        "granules_verified", "granules_no_extra_fetch")


@dataclass
class RunResult:
    """Everything one simulation run produced."""

    workload: str
    scheme: str
    cycles: int
    #: DRAM bytes by request kind (data / metadata / verify_fill /
    #: writeback / metadata_write).
    traffic: Dict[str, int]
    #: Flattened component statistics (see StatGroup.flatten).
    stats: Dict[str, float]
    #: Scheme-reported overheads.
    storage_overhead: float = 0.0
    sram_overhead_bytes: int = 0
    #: Wall-clock seconds the simulation took (host side).
    host_seconds: float = 0.0
    #: Per-request latency attribution (populated only when the run was
    #: observed with ``attribute_latency=True``; see
    #: :meth:`repro.obs.latency.LatencyAttributor.breakdown`).
    latency: Dict[str, float] = field(default_factory=dict)
    config_summary: Dict[str, object] = field(default_factory=dict)
    #: Simulation tier that produced this result.  ``"functional"``
    #: results carry exact traffic / hit-miss / writeback / metadata
    #: counters but **no timing**: ``cycles`` is 0, latency is empty
    #: and timing-only stats are absent (see docs/PERFORMANCE.md
    #: "Fidelity tiers").
    fidelity: str = "event"
    #: Trace-level locality metrics (populated only when the run was
    #: observed with memory-hierarchy introspection; see
    #: :meth:`repro.obs.inspect.MemoryInspector.key_metrics`).  Merged
    #: into :meth:`key_metrics` so the ledger and regression sentinel
    #: can band them.
    inspect_metrics: Dict[str, float] = field(default_factory=dict)

    # -- derived metrics ------------------------------------------------------

    @property
    def total_dram_bytes(self) -> int:
        return sum(self.traffic.values())

    @property
    def demand_bytes(self) -> int:
        return self.traffic.get("data", 0)

    @property
    def overhead_bytes(self) -> int:
        """Traffic beyond demand data + writeback."""
        return (self.traffic.get("metadata", 0)
                + self.traffic.get("verify_fill", 0)
                + self.traffic.get("metadata_write", 0))

    def traffic_fraction(self, kind: str) -> float:
        total = self.total_dram_bytes
        return self.traffic.get(kind, 0) / total if total else 0.0

    def performance_vs(self, baseline: "RunResult") -> float:
        """Performance normalized to a baseline run (same workload)."""
        if self.workload != baseline.workload:
            raise ValueError(
                f"comparing {self.workload} against {baseline.workload}")
        if self.fidelity != "event" or baseline.fidelity != "event":
            raise ValueError(
                "normalized performance needs timing; functional-fidelity "
                "results have none (rerun with fidelity='event')")
        return baseline.cycles / self.cycles if self.cycles else 0.0

    def stat(self, suffix: str, default: float = 0.0) -> float:
        """Sum of all flattened stats whose key ends with ``suffix``."""
        total = 0.0
        found = False
        for key, value in self.stats.items():
            if key.endswith(suffix):
                total += value
                found = True
        return total if found else default

    def _suffix_sums(self) -> Dict[str, float]:
        """:meth:`stat` of every suffix in :data:`_KEY_METRIC_SUFFIXES`
        from one pass over the stats (same values, same summation
        order)."""
        sums = dict.fromkeys(_KEY_METRIC_SUFFIXES, 0.0)
        for key, value in self.stats.items():
            if key.endswith(_KEY_METRIC_SUFFIXES):
                for suffix in _KEY_METRIC_SUFFIXES:
                    if key.endswith(suffix):
                        sums[suffix] += value
        return sums

    @staticmethod
    def _hit_rate(hits: float, sector_misses: float,
                  line_misses: float) -> Optional[float]:
        total = hits + (sector_misses + line_misses)
        return hits / total if total else None

    def l2_hit_rate(self) -> Optional[float]:
        return self._hit_rate(self.stat("cache.hits"),
                              self.stat("cache.sector_misses"),
                              self.stat("cache.line_misses"))

    @property
    def events_executed(self) -> int:
        """Engine events this run executed (0 for pre-v4 results)."""
        return int(self.stats.get("engine.events", 0))

    @property
    def events_per_sec(self) -> int:
        """Host-side engine throughput (0 when unmeasurable)."""
        if self.host_seconds <= 0:
            return 0
        return round(self.events_executed / self.host_seconds)

    def l1_hit_rate(self) -> Optional[float]:
        return self._hit_rate(self.stat("l1.hits"),
                              self.stat("l1.sector_misses"),
                              self.stat("l1.line_misses"))

    def to_json(self, include_stats: bool = False) -> str:
        """Serialize for tooling (``include_stats`` adds the full
        flattened counter map — large)."""
        import json

        payload: Dict[str, object] = {
            "workload": self.workload,
            "scheme": self.scheme,
            "fidelity": self.fidelity,
            "cycles": self.cycles,
            "traffic": self.traffic,
            "storage_overhead": self.storage_overhead,
            "sram_overhead_bytes": self.sram_overhead_bytes,
            "host_seconds": round(self.host_seconds, 3),
            "config": self.config_summary,
            "l1_hit_rate": self.l1_hit_rate(),
            "l2_hit_rate": self.l2_hit_rate(),
        }
        if self.latency:
            payload["latency"] = self.latency
        if include_stats:
            payload["stats"] = self.stats
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_dict(self) -> Dict[str, object]:
        """Full-fidelity serialization (JSON-safe); inverse of
        :meth:`from_dict`.  Unlike :meth:`to_json` this round-trips
        every field, so persistent result caches can rehydrate an
        identical :class:`RunResult`."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "cycles": self.cycles,
            "traffic": dict(self.traffic),
            "stats": dict(self.stats),
            "storage_overhead": self.storage_overhead,
            "sram_overhead_bytes": self.sram_overhead_bytes,
            "host_seconds": self.host_seconds,
            "latency": dict(self.latency),
            "config_summary": dict(self.config_summary),
            "fidelity": self.fidelity,
            "inspect_metrics": dict(self.inspect_metrics),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunResult":
        """Rehydrate a result serialized with :meth:`to_dict`."""
        return cls(
            workload=payload["workload"],
            scheme=payload["scheme"],
            cycles=payload["cycles"],
            traffic={k: int(v) for k, v in payload["traffic"].items()},
            stats=dict(payload["stats"]),
            storage_overhead=payload.get("storage_overhead", 0.0),
            sram_overhead_bytes=payload.get("sram_overhead_bytes", 0),
            host_seconds=payload.get("host_seconds", 0.0),
            latency=dict(payload.get("latency", {})),
            config_summary=dict(payload.get("config_summary", {})),
            fidelity=payload.get("fidelity", "event"),
            inspect_metrics=dict(payload.get("inspect_metrics", {})),
        )

    def key_metrics(self) -> Dict[str, float]:
        """The headline metrics the run ledger and regression sentinel
        track (see docs/OBSERVABILITY.md for which get relative bands
        and which are conserved invariants)."""
        metrics: Dict[str, float] = {
            "total_dram_bytes": int(self.total_dram_bytes),
            "demand_bytes": int(self.demand_bytes),
            "overhead_bytes": int(self.overhead_bytes),
        }
        if self.fidelity == "event":
            # Functional-tier runs have no clock; a constant cycles=0
            # would be a meaningless (and band-breaking) "metric".
            metrics["cycles"] = int(self.cycles)
        sums = self._suffix_sums()
        l1 = self._hit_rate(sums["l1.hits"], sums["l1.sector_misses"],
                            sums["l1.line_misses"])
        if l1 is not None:
            metrics["l1_hit_rate"] = round(l1, 6)
        l2 = self._hit_rate(sums["cache.hits"], sums["cache.sector_misses"],
                            sums["cache.line_misses"])
        if l2 is not None:
            metrics["l2_hit_rate"] = round(l2, 6)
        events = self.events_executed
        if events:
            metrics["events"] = events
            if self.host_seconds > 0:
                metrics["events_per_sec"] = self.events_per_sec
        row_hits = sums["row_hits"]
        row_total = row_hits + sums["row_misses"]
        if row_total:
            # Event tier only (functional channels model no banks).
            metrics["row_hit_rate"] = round(row_hits / row_total, 6)
        verified = sums["granules_verified"]
        if verified:
            # CacheCraft: fraction of granule verifications the
            # reconstructed chunk layout served without any extra
            # DRAM fetch — the paper's reconstruction-efficacy claim.
            metrics["reconstruction_efficacy"] = round(
                sums["granules_no_extra_fetch"] / verified, 6)
        for key, value in self.inspect_metrics.items():
            metrics.setdefault(key, value)
        return metrics

    def summary(self) -> Dict[str, object]:
        """A flat record suitable for table rows."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "cycles": self.cycles,
            "dram_bytes": self.total_dram_bytes,
            "overhead_bytes": self.overhead_bytes,
            "l1_hit_rate": self.l1_hit_rate(),
            "l2_hit_rate": self.l2_hit_rate(),
            "storage_overhead": self.storage_overhead,
        }
