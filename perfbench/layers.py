"""Per-layer metrics of a traced run.

Host times come from the spans (:mod:`perfbench.spans`); the counts and
ratios beside them are the deterministic simulated counters of the
cells' ``RunResult.stats`` and traffic, summed over the grid, so a
host-time change can be shown to do the same work in less time.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Tuple

from repro.core.results import RunResult

from perfbench.spans import TRACING, SpanTracer

#: Every per-layer metric and its unit, in report order.
UNITS: Dict[str, str] = {
    "engine.events": "count", "engine.self_s": "s",
    "engine.dispatch_ns": "ns",
    "dram.requests": "count", "dram.self_s": "s",
    "dram.ns_per_request": "ns", "dram.row_hit_ratio": "ratio",
    "dram.read_latency_p50": "cycles", "dram.read_latency_p99": "cycles",
    "dram.bus_busy_frac": "ratio", "dram.write_frac": "ratio",
    "sm.self_s": "s", "sm.instructions": "count",
    "sm.stall_retries": "count", "sm.storebuf_rejects": "count",
    "sm.l1_hit_ratio": "ratio",
    "sectored.calls": "count", "sectored.ns_per_call": "ns",
    "sectored.self_s": "s",
    "mshr.allocs": "count", "mshr.merge_ratio": "ratio",
    "mshr.full_stalls": "count", "mshr.self_s": "s",
    "xbar.packets": "count", "xbar.queue_cycles": "cycles",
    "xbar.self_s": "s",
    "l2.requests": "count", "l2.hit_ratio": "ratio",
    "l2.mshr_retries": "count", "l2.self_s": "s",
    "scheme.fetches": "count", "scheme.writebacks": "count",
    "scheme.self_s": "s", "scheme.ns_per_fetch": "ns",
    "scheme.overhead_bytes_frac": "ratio",
    "cachecraft.no_extra_fetch_ratio": "ratio",
    "cachecraft.craft_full_stalls": "count",
    "mdcache.lookups": "count", "mdcache.hit_ratio": "ratio",
    "mdcache.self_s": "s",
    "functional.microtasks": "count", "functional.replay_self_s": "s",
    "functional.queue_self_s": "s",
    "materialize.s": "s", "compile.s": "s", "compile.txns": "count",
    "build.s": "s",
    "result_cache.key_ms": "ms", "result_cache.get_ms": "ms",
    "result_cache.put_ms": "ms", "result_cache.bytes": "bytes",
    "ledger.appends": "count", "ledger.append_ms": "ms",
    "executor.cell_overhead_ms": "ms",
    "tracing.self_s": "s", "other.self_s": "s", "traced_wall_s": "s",
    "tracing_overhead": "x",
}

#: Span layers whose self time is reported under a metric of its own;
#: the rest (harness, system, the benchmark's root) is ``other.self_s``,
#: and the tracer's calibrated own cost is ``tracing.self_s``.
SELF_TIME_METRICS: Tuple[Tuple[str, str], ...] = (
    ("engine", "engine.self_s"), ("dram", "dram.self_s"),
    ("sm", "sm.self_s"), ("sectored", "sectored.self_s"),
    ("mshr", "mshr.self_s"), ("xbar", "xbar.self_s"), ("l2", "l2.self_s"),
    ("scheme", "scheme.self_s"), ("mdcache", "mdcache.self_s"),
    ("functional.replay", "functional.replay_self_s"),
    ("functional.queue", "functional.queue_self_s"),
    ("materialize", "materialize.s"), ("compile", "compile.s"),
    ("build", "build.s"), (TRACING, "tracing.self_s"),
)

#: Traffic kinds that exist only because of protection.
OVERHEAD_KINDS = ("metadata", "verify_fill", "metadata_write")


class StatSums:
    """Flattened stats summed key by key over a grid's cells."""

    def __init__(self, results: Iterable[RunResult]):
        self.totals: Dict[str, float] = {}
        for result in results:
            for key, value in result.stats.items():
                self.totals[key] = self.totals.get(key, 0) + value

    def sum(self, pattern: str) -> float:
        rx = re.compile(pattern)
        return sum(v for k, v in self.totals.items() if rx.fullmatch(k))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def per_layer_metrics(tracer: SpanTracer, results: List[RunResult],
                      fidelity: str, traced_wall_s: float,
                      untraced_cold_s: float, traced_cold_s: float,
                      cache_bytes: int, executor_overhead_ms: float
                      ) -> Dict[str, float]:
    """Every metric in :data:`UNITS`, from one traced grid."""
    s = StatSums(results)
    self_ns = tracer.layer_self_ns()
    calls = tracer.calls
    m: Dict[str, float] = {}

    def self_s(layer: str) -> float:
        return self_ns.get(layer, 0) / 1e9

    def ms_per_call(span_name: str) -> float:
        return ratio(tracer.self_ns.get(span_name, 0) / 1e6,
                     calls.get(span_name, 0))

    for layer, name in SELF_TIME_METRICS:
        m[name] = self_s(layer)
    m["other.self_s"] = traced_wall_s - sum(m[name] for _, name
                                            in SELF_TIME_METRICS)
    m["traced_wall_s"] = traced_wall_s
    m["tracing_overhead"] = ratio(traced_cold_s, untraced_cold_s)

    events = s.sum(r"engine\.events")
    m["engine.events"] = events if fidelity == "event" else 0.0
    m["functional.microtasks"] = events if fidelity == "functional" else 0.0
    m["engine.dispatch_ns"] = ratio(self_ns.get("engine", 0),
                                    m["engine.events"])

    row_hits = s.sum(r"dram\d+\.row_hits")
    requests = row_hits + s.sum(r"dram\d+\.row_misses")
    reads = s.sum(r"dram\d+\.reads")
    writes = s.sum(r"dram\d+\.writes")
    channels = len({k.split(".")[0] for k in s.totals
                    if re.fullmatch(r"dram\d+\.reads", k)})
    cycles = sum(r.cycles for r in results)
    latencies = tracer.values.get("dram.read_latency", [])
    m.update({
        "dram.requests": requests,
        "dram.ns_per_request": ratio(self_ns.get("dram", 0), requests),
        "dram.row_hit_ratio": ratio(row_hits, requests),
        "dram.read_latency_p50": percentile(latencies, 50),
        "dram.read_latency_p99": percentile(latencies, 99),
        "dram.bus_busy_frac": ratio(s.sum(r"dram\d+\.bus_busy_cycles"),
                                    cycles * channels),
        "dram.write_frac": ratio(writes, reads + writes) if requests else 0.0,
    })

    l1_hits = s.sum(r"sm\d+\.l1\.hits")
    m.update({
        "sm.instructions": s.sum(r"sm\d+\.instructions"),
        "sm.stall_retries": s.sum(r"sm\d+\.stall_retries"),
        "sm.storebuf_rejects": s.sum(r"sm\d+\.storebuf\.full_rejections"),
        "sm.l1_hit_ratio": ratio(l1_hits, l1_hits + s.sum(
            r"sm\d+\.l1\.(sector_misses|line_miss_sectors)")),
    })

    sectored_calls = tracer.layer_calls("sectored")
    m["sectored.calls"] = sectored_calls
    m["sectored.ns_per_call"] = ratio(self_ns.get("sectored", 0),
                                      sectored_calls)

    allocs = s.sum(r"(sm\d+\.l1mshr|l2s\d+\.mshr)\.allocations")
    merges = s.sum(r"(sm\d+\.l1mshr|l2s\d+\.mshr)\.merges")
    m.update({
        "mshr.allocs": allocs,
        "mshr.merge_ratio": ratio(merges, allocs + merges),
        "mshr.full_stalls": s.sum(
            r"(sm\d+\.l1mshr|l2s\d+\.mshr)\.full_stalls"),
        "xbar.packets": s.sum(r"xbar\.(req|rsp)\d+\.packets"),
        "xbar.queue_cycles": s.sum(r"xbar\.(req|rsp)\d+\.queue_cycles"),
    })

    l2_hits = s.sum(r"l2s\d+\.cache\.hits")
    m.update({
        "l2.requests": s.sum(
            r"l2s\d+\.(load|store|atomic)_requests"),
        "l2.hit_ratio": ratio(l2_hits, l2_hits + s.sum(
            r"l2s\d+\.cache\.(sector_misses|line_miss_sectors)")),
        "l2.mshr_retries": s.sum(r"l2s\d+\.mshr_retries"),
    })

    fetches = tracer.layer_calls("scheme", "fetch")
    data_bytes = sum(r.traffic.get("data", 0) for r in results)
    overhead = sum(r.traffic.get(kind, 0) for r in results
                   for kind in OVERHEAD_KINDS)
    mdc_hits = s.sum(r"protection\.[\w-]+\.mdc_hits")
    mdc_lookups = mdc_hits + s.sum(r"protection\.[\w-]+\.mdc_misses")
    m.update({
        "scheme.fetches": fetches,
        "scheme.writebacks": tracer.layer_calls("scheme", "writeback"),
        "scheme.ns_per_fetch": ratio(self_ns.get("scheme", 0), fetches),
        "scheme.overhead_bytes_frac": ratio(overhead, data_bytes),
        "cachecraft.no_extra_fetch_ratio": ratio(
            s.sum(r"protection\.cachecraft\.granules_no_extra_fetch"),
            s.sum(r"protection\.cachecraft\.granules_verified")),
        "cachecraft.craft_full_stalls": s.sum(
            r"protection\.cachecraft\.craft_full_stalls"),
        "mdcache.lookups": mdc_lookups,
        "mdcache.hit_ratio": ratio(mdc_hits, mdc_lookups),
    })

    m.update({
        "compile.txns": float(sum(tracer.values.get("compile.txns", []))),
        "result_cache.key_ms": ms_per_call("result_cache:ResultCache.key_for"),
        "result_cache.get_ms": ms_per_call("result_cache:ResultCache.get"),
        "result_cache.put_ms": ms_per_call("result_cache:ResultCache.put"),
        "result_cache.bytes": float(cache_bytes),
        "ledger.appends": float(calls.get("ledger:RunLedger.append", 0)),
        "ledger.append_ms": ms_per_call("ledger:RunLedger.append"),
        "executor.cell_overhead_ms": executor_overhead_ms,
    })
    return {name: float(m[name]) for name in UNITS}
