"""Statistics primitives.

Every simulated component reports into a :class:`StatGroup`; groups
nest into a :class:`StatsRegistry` owned by the top-level system so a
whole run can be flattened into a ``{dotted.name: value}`` dict for the
analysis layer and for test assertions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterator, List, Tuple, Union


class Counter:
    """A monotonically increasing integer statistic."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value statistic (queue depth, occupancy, selector state).

    Unlike a :class:`Counter`, successive sets overwrite: the flattened
    value — and what the time-series sampler records each window — is
    the level at observation time, not an accumulated total.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def adjust(self, delta: float) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram with mean/percentile summaries.

    Buckets are ``[edges[i], edges[i+1])`` plus an overflow bucket.
    """

    def __init__(self, name: str, edges: List[int]):
        if edges != sorted(edges) or len(edges) < 1:
            raise ValueError("edges must be a sorted non-empty list")
        self.name = name
        self.edges = list(edges)
        self.buckets = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float, weight: int = 1) -> None:
        """Add ``weight`` observations of ``value``: into the bucket of
        the first edge above it (found by bisection), else overflow."""
        self.count += weight
        self.total += value * weight
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[bisect_right(self.edges, value)] += weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate percentile using bucket upper edges.

        Values landing in the overflow bucket interpolate between the
        last edge and the recorded ``max`` (never ``inf``): the bucket
        histogram loses exact values, but the extremum is tracked.
        """
        if not self.count:
            return 0.0
        target = self.count * p
        seen = 0
        for i, b in enumerate(self.buckets):
            seen += b
            if seen >= target:
                if i < len(self.edges):
                    return float(self.edges[i])
                return self._overflow_interpolate(target, seen, b)
        return float(max(self.max, self.edges[-1]))

    def _overflow_interpolate(self, target: float, seen: int,
                              bucket_count: int) -> float:
        """Linear interpolation inside the overflow bucket against the
        recorded max (the bucket has no upper edge of its own)."""
        lower = float(self.edges[-1])
        upper = float(max(self.max, lower))
        if bucket_count <= 0:
            return upper
        into_bucket = target - (seen - bucket_count)
        fraction = min(1.0, max(0.0, into_bucket / bucket_count))
        return lower + (upper - lower) * fraction

    def reset(self) -> None:
        self.buckets = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0
        self.min = math.inf
        self.max = -math.inf


Stat = Union[Counter, Gauge, Histogram]


class StatGroup:
    """A named collection of statistics belonging to one component."""

    def __init__(self, name: str):
        self.name = name
        self._stats: Dict[str, Stat] = {}
        self._children: Dict[str, "StatGroup"] = {}

    def add(self, *stats: Stat) -> None:
        for stat in stats:
            if stat.name in self._stats:
                raise ValueError(f"duplicate stat {stat.name!r} in group {self.name!r}")
            self._stats[stat.name] = stat

    def counter(self, name: str) -> Counter:
        """Create-and-register a counter in one step."""
        c = Counter(name)
        self.add(c)
        return c

    def histogram(self, name: str, edges: List[int]) -> Histogram:
        h = Histogram(name, edges)
        self.add(h)
        return h

    def gauge(self, name: str) -> Gauge:
        """Create-and-register a last-value gauge in one step."""
        g = Gauge(name)
        self.add(g)
        return g

    def child(self, name: str) -> "StatGroup":
        if name not in self._children:
            self._children[name] = StatGroup(name)
        return self._children[name]

    def get(self, name: str) -> Stat:
        return self._stats[name]

    def flatten(self, prefix: str = "") -> Dict[str, float]:
        """Flatten into ``{dotted.path: numeric value}``.

        Histograms contribute ``.count``, ``.mean``, ``.min``, ``.max``,
        ``.p50`` and ``.p95`` entries (extrema are 0 while empty so the
        output stays JSON-serializable).
        """
        base = f"{prefix}{self.name}." if self.name else prefix
        out: Dict[str, float] = {}
        for stat in self._stats.values():
            if isinstance(stat, (Counter, Gauge)):
                out[f"{base}{stat.name}"] = stat.value
            else:
                out[f"{base}{stat.name}.count"] = stat.count
                out[f"{base}{stat.name}.mean"] = stat.mean
                out[f"{base}{stat.name}.min"] = (
                    float(stat.min) if stat.count else 0.0)
                out[f"{base}{stat.name}.max"] = (
                    float(stat.max) if stat.count else 0.0)
                out[f"{base}{stat.name}.p50"] = stat.percentile(0.50)
                out[f"{base}{stat.name}.p95"] = stat.percentile(0.95)
        for childgroup in self._children.values():
            out.update(childgroup.flatten(base))
        return out

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, Stat]]:
        """Yield ``(dotted.path, stat_object)`` pairs depth-first.

        Unlike :meth:`flatten` this exposes the live stat objects with
        their types intact, which is what the time-series sampler needs
        to apply delta semantics to counters but last-value semantics to
        gauges.
        """
        base = f"{prefix}{self.name}." if self.name else prefix
        for stat in self._stats.values():
            yield f"{base}{stat.name}", stat
        for childgroup in self._children.values():
            yield from childgroup.walk(base)

    def reset(self) -> None:
        for stat in self._stats.values():
            stat.reset()
        for childgroup in self._children.values():
            childgroup.reset()

    def __iter__(self) -> Iterator[Stat]:
        return iter(self._stats.values())


class StatsRegistry(StatGroup):
    """The root statistics group for a whole simulated system."""

    def __init__(self) -> None:
        super().__init__("")
