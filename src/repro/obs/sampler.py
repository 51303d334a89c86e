"""Time-series sampling of the statistics registry.

End-of-run aggregates hide dynamics: an mdcache that thrashes for the
first 10k cycles and then settles shows the same hit rate as one that
is mediocre throughout.  The :class:`MetricsSampler` snapshots every
stat in the :class:`~repro.sim.stats.StatsRegistry` every ``interval``
cycles and records *windowed* values:

* **counters** contribute their per-window delta (events in the
  window, not the running total);
* **gauges** contribute their level at sample time;
* **histograms** contribute their per-window count delta;
* **derived series** are computed per window: a ``<group>.hit_rate``
  for every cache-style group exposing hits/misses counters, and a
  ``<channel>.bus_utilization`` for every group exposing a
  ``bus_busy_cycles`` counter.

Sampler ticks are scheduled as engine *observer* events
(:meth:`~repro.sim.engine.Simulator.schedule_observer`): daemons, so a
sampler never keeps the event queue alive after real work drains, that
are not counted as model events, so a sampled run reports the same
``engine.events`` as a bare one.

Export is one JSON object per line (:meth:`to_jsonl`) or CSV over the
union of observed keys (:meth:`to_csv`).  Zero-delta counter entries
are omitted from rows to keep output proportional to activity.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Dict, List, Optional, Union

from repro.sim.engine import Simulator
from repro.sim.stats import Counter, Gauge, Histogram, StatGroup

#: Counter-name pairs that define a derived per-window hit rate.
_MISS_SUFFIXES = ("misses", "sector_misses", "line_misses")


class MetricsSampler:
    """Periodic windowed snapshots of a stats tree."""

    def __init__(self, sim: Simulator, stats: StatGroup, interval: int,
                 max_samples: int = 1_000_000):
        if interval < 1:
            raise ValueError("sample interval must be >= 1 cycle")
        self.sim = sim
        self.stats = stats
        self.interval = interval
        self.max_samples = max_samples
        self.samples: List[Dict[str, float]] = []
        self._prev: Dict[str, float] = {}
        self._prev_cycle = 0
        self._started = False

    # -- scheduling -----------------------------------------------------------

    def start(self) -> None:
        """Arm the sampler; the first window closes one interval in."""
        if self._started:
            return
        self._started = True
        self._prev_cycle = self.sim.now
        self._snapshot_baseline()
        self.sim.schedule_observer(self.interval, self._tick)

    def _tick(self) -> None:
        self.record_window()
        if len(self.samples) < self.max_samples:
            self.sim.schedule_observer(self.interval, self._tick)

    # -- sampling -------------------------------------------------------------

    def _snapshot_baseline(self) -> None:
        for path, stat in self.stats.walk():
            if isinstance(stat, Counter):
                self._prev[path] = stat.value
            elif isinstance(stat, Histogram):
                self._prev[path + ".count"] = stat.count

    def record_window(self) -> Dict[str, float]:
        """Close the current window and append its sample row."""
        now = self.sim.now
        window = max(1, now - self._prev_cycle)
        row: Dict[str, float] = {"cycle": now, "window_cycles": window}
        hits: Dict[str, float] = {}
        misses: Dict[str, float] = {}
        for path, stat in self.stats.walk():
            if isinstance(stat, Counter):
                delta = stat.value - self._prev.get(path, 0)
                self._prev[path] = stat.value
                if delta:
                    row[path] = delta
                self._note_rate_parts(path, delta, hits, misses)
                if path.endswith(".bus_busy_cycles"):
                    group = path[: -len(".bus_busy_cycles")]
                    row[group + ".bus_utilization"] = round(
                        min(1.0, delta / window), 6)
            elif isinstance(stat, Gauge):
                row[path] = stat.value
            elif isinstance(stat, Histogram):
                key = path + ".count"
                delta = stat.count - self._prev.get(key, 0)
                self._prev[key] = stat.count
                if delta:
                    row[key] = delta
        for group, hit_delta in hits.items():
            denominator = hit_delta + misses.get(group, 0)
            if denominator > 0:
                row[group + ".hit_rate"] = round(hit_delta / denominator, 6)
        self.samples.append(row)
        self._prev_cycle = now
        return row

    @staticmethod
    def _note_rate_parts(path: str, delta: float, hits: Dict[str, float],
                         misses: Dict[str, float]) -> None:
        """Accumulate hit/miss deltas per owning group for derived rates."""
        group, _, leaf = path.rpartition(".")
        if leaf == "hits":
            hits[group] = hits.get(group, 0) + delta
        elif leaf in _MISS_SUFFIXES:
            misses[group] = misses.get(group, 0) + delta

    def finish(self) -> None:
        """Close the trailing partial window, if it saw any time."""
        if self._started and self.sim.now > self._prev_cycle:
            self.record_window()

    # -- export ---------------------------------------------------------------

    def series(self, key: str) -> List[float]:
        """One metric across all windows (absent -> 0.0)."""
        return [row.get(key, 0.0) for row in self.samples]

    def keys(self) -> List[str]:
        """Union of keys across all sample rows, sorted."""
        union = set()
        for row in self.samples:
            union.update(row)
        return sorted(union)

    def to_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write one JSON object per window; returns rows written."""
        if hasattr(destination, "write"):
            for row in self.samples:
                destination.write(json.dumps(row, sort_keys=True) + "\n")
        else:
            with open(destination, "w") as fh:
                self.to_jsonl(fh)
        return len(self.samples)

    def to_csv(self, destination: Union[str, IO[str]]) -> int:
        """Write a dense CSV over the key union; returns rows written."""
        if not hasattr(destination, "write"):
            with open(destination, "w", newline="") as fh:
                return self.to_csv(fh)
        fieldnames = self.keys()
        writer = csv.DictWriter(destination, fieldnames=fieldnames,
                                restval=0.0)
        writer.writeheader()
        for row in self.samples:
            writer.writerow(row)
        return len(self.samples)
