"""Host-time spans around calls into the model's layers.

:class:`Instrumentation` wraps, at class level and before any system is
built, the public entry points of each layer, plus every callback the
model hands to ``Simulator.schedule``/``schedule_at`` and
``ImmediateQueue.schedule``/``schedule_at`` (a callback is credited to
the layer that owns it, as the flame profiler names frames).  Each
wrapped call is one span; a span's *self time* is its duration minus
the durations of the spans it encloses.  The wrappers' own cost around
each enclosed span (and each traced ``schedule`` call) is measured once
by :func:`calibrate` and moved from the caller's self time to a
``tracing`` layer, so the layers' self times plus ``tracing`` sum
exactly to the root's duration.

The wrappers call straight through, one call per call and one queue
entry per scheduled callback, so every simulated counter is unchanged.
Spans are aggregated in memory (calls and self time per span name); the
first :data:`KEEP_SPANS` are also kept whole and written out by
:meth:`SpanTracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Whole spans kept for the written trace (the aggregates cover all).
KEEP_SPANS = 50_000

#: (module, class, methods, layer) wrapped at class level.
METHODS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.sim.engine", "Simulator", ("run",), "engine"),
    ("repro.dram.channel", "MemoryChannel", ("enqueue",), "dram"),
    ("repro.gpu.sm", "StreamingMultiprocessor", ("start",), "sm"),
    ("repro.cache.sectored", "SectoredCache",
     ("lookup", "lookup_mask", "probe", "resident_sectors", "allocate",
      "fill_sector", "fill_sectors", "mark_verified", "write_sector",
      "invalidate", "flush"), "sectored"),
    ("repro.cache.mshr", "MshrFile", ("get", "allocate", "complete"),
     "mshr"),
    ("repro.gpu.crossbar", "Crossbar", ("send_request", "send_response"),
     "xbar"),
    ("repro.gpu.l2slice", "L2Slice",
     ("receive_load", "receive_store", "receive_atomic", "install_sectors",
      "resident_mask", "poison_sectors", "invalidate_line", "flush"), "l2"),
    ("repro.protection.mdcache", "DedicatedMetadataCache",
     ("lookup", "insert", "invalidate", "mark_dirty", "flush_dirty"),
     "mdcache"),
    ("repro.sim.functional", "ImmediateQueue", ("drain",),
     "functional.queue"),
    ("repro.sim.functional", "FunctionalChannel", ("enqueue",),
     "functional.queue"),
    ("repro.core.system", "GpuSystem", ("__init__", "load_workload"),
     "build"),
    ("repro.core.system", "GpuSystem", ("run", "result"), "system"),
    ("repro.analysis.result_cache", "ResultCache",
     ("key_for", "get", "put"), "result_cache"),
    ("repro.obs.ledger", "RunLedger", ("append",), "ledger"),
    ("repro.analysis.harness", "ExperimentHarness", ("run", "matrix"),
     "harness"),
)

#: Methods wrapped on every protection scheme class that defines them.
SCHEME_METHODS = ("fetch", "writeback", "drain")

#: (module, function, layer) wrapped wherever the repro package binds
#: them (modules that imported the name hold their own reference).
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.base", "materialize", "materialize"),
    ("repro.gpu.columnar", "compile_trace", "compile"),
    ("repro.sim.functional", "replay_columnar", "functional.replay"),
)

#: Schedulers whose callbacks become spans.
SCHEDULERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "Simulator"),
    ("repro.sim.functional", "ImmediateQueue"),
)

#: Owning classes whose module does not name their layer.
CLASS_LAYERS = {"FunctionalSm": "sm", "_ColumnarSmState": "sm"}

#: Module prefix -> layer for callbacks, most specific first.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.functional", "functional.queue"),
    ("repro.sim.resources", "sm"),
    ("repro.dram", "dram"),
    ("repro.gpu.sm", "sm"),
    ("repro.gpu.crossbar", "xbar"),
    ("repro.gpu.l2slice", "l2"),
    ("repro.protection.mdcache", "mdcache"),
    ("repro.protection", "scheme"),
    ("repro.core.cachecraft", "scheme"),
    ("repro.ecc", "scheme"),
    ("repro.cache.sectored", "sectored"),
    ("repro.cache.mshr", "mshr"),
    ("repro.core.system", "system"),
)

ROOT = "bench:root"

#: Pseudo-layer holding the tracer's estimated own cost.
TRACING = "tracing"


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


def module_layer(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class SpanTracer:
    """Collects spans: per-name call counts and self time, plus the
    first :data:`KEEP_SPANS` spans whole (id, parent id, name, start,
    end in ns)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.spans: List[Tuple[int, int, str, int, int]] = []
        #: Taps: values the wrappers saw, by tap name.
        self.values: Dict[str, List[Any]] = {}
        #: Direct child spans and traced schedule calls, per span name.
        self.children: Dict[str, int] = {}
        self.scheduled: Dict[str, int] = {}
        #: Calibrated wrapper cost (ns) outside each child span and per
        #: traced schedule call; see :func:`calibrate`.
        self.call_cost_ns = 0.0
        self.schedule_cost_ns = 0.0
        self._names: List[str] = [""]
        self._ids: List[int] = [0]
        self._child_ns: List[int] = [0]
        self._child_n: List[int] = [0]
        self._sched_n: List[int] = [0]
        self._next_id = 1
        self._callback_names: Dict[Any, str] = {}

    def span(self, name: str, fn: Callable[..., Any], args: tuple,
             kwargs: dict) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        names = self._names
        child_ns = self._child_ns
        reentered = names[-1] == name  # e.g. a super() call: one call
        span_id = self._next_id
        self._next_id = span_id + 1
        parent_id = self._ids[-1]
        child_n = self._child_n
        sched_n = self._sched_n
        names.append(name)
        self._ids.append(span_id)
        child_ns.append(0)
        child_n.append(0)
        sched_n.append(0)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            duration = end - start
            names.pop()
            self._ids.pop()
            inner = child_ns.pop()
            kids = child_n.pop()
            scheds = sched_n.pop()
            child_ns[-1] += duration
            child_n[-1] += 1
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - inner
            if kids:
                self.children[name] = self.children.get(name, 0) + kids
            if scheds:
                self.scheduled[name] = self.scheduled.get(name, 0) + scheds
            if not reentered:
                self.calls[name] = self.calls.get(name, 0) + 1
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((span_id, parent_id, name, start, end))

    def root(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn`` under the root span; its self time is the part of
        the traced wall time that no layer claims."""
        return self.span(ROOT, fn, args, {})

    def callback_name(self, fn: Callable[..., Any]) -> str:
        """Span name of a scheduled callback, from its owner."""
        while isinstance(fn, functools.partial):
            fn = fn.func
        owner = getattr(fn, "__self__", None)
        if owner is not None:
            key: Any = (type(owner), getattr(fn, "__name__", ""))
        else:
            key = getattr(fn, "__code__", None) or fn
        name = self._callback_names.get(key)
        if name is None:
            if owner is not None:
                cls = type(owner)
                layer = CLASS_LAYERS.get(cls.__name__) \
                    or module_layer(cls.__module__)
                label = f"{cls.__name__}.{fn.__name__}"
            else:
                layer = module_layer(getattr(fn, "__module__", "") or "")
                label = getattr(fn, "__qualname__", repr(fn))
            name = f"{layer}:cb {label}"
            self._callback_names[key] = name
        return name

    # -- summaries ---------------------------------------------------------

    def overhead_ns(self, name: str) -> float:
        """The tracer's estimated cost inside span ``name``'s self time."""
        return (self.children.get(name, 0) * self.call_cost_ns
                + self.scheduled.get(name, 0) * self.schedule_cost_ns)

    def layer_self_ns(self) -> Dict[str, float]:
        """Self time per layer, the tracer's own cost moved to
        :data:`TRACING`; the values sum to the root span's duration."""
        out: Dict[str, float] = {}
        tracing = 0.0
        for name, ns in self.self_ns.items():
            cost = self.overhead_ns(name)
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + ns - cost
            tracing += cost
        out[TRACING] = tracing
        return out

    def layer_calls(self, layer: str, *methods: str) -> int:
        """Calls of the named methods (all, if none named) of a layer."""
        total = 0
        for name, count in self.calls.items():
            if layer_of(name) != layer:
                continue
            method = name.split(":", 1)[1].rsplit(".", 1)[-1]
            if not methods or method in methods:
                total += count
        return total

    def dump(self, path: Path) -> None:
        """Write the kept spans (Chrome trace events) and aggregates."""
        events = [{"name": name, "cat": layer_of(name), "ph": "X",
                   "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                   "pid": 0, "tid": 0,
                   "args": {"id": span_id, "parent": parent_id}}
                  for span_id, parent_id, name, start, end in self.spans]
        body = {"traceEvents": events,
                "aggregates": {name: {"calls": self.calls.get(name, 0),
                                      "self_ns": ns - self.overhead_ns(name)}
                               for name, ns in sorted(self.self_ns.items())},
                "tracer_cost_ns": {"per_call": self.call_cost_ns,
                                   "per_schedule": self.schedule_cost_ns}}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(body), encoding="utf-8")


class Instrumentation:
    """Installs the span wrappers on enter and restores on exit."""

    def __init__(self, tracer: SpanTracer):
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def __enter__(self) -> "Instrumentation":
        calibrate(self.tracer)
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- installing ----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        for owner, attr, old, had in reversed(self._saved):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def _install(self) -> None:
        tracer = self.tracer
        for module, cls_name, methods, layer in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                self._set(cls, method, spanned(
                    tracer, f"{layer}:{cls_name}.{method}",
                    vars(cls)[method]))

        from repro.core import cachecraft  # noqa: F401  (registers it)
        from repro.protection.base import ProtectionScheme

        pending = [ProtectionScheme]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for method in SCHEME_METHODS:
                if method in vars(cls):
                    self._set(cls, method, spanned(
                        tracer, f"scheme:{cls.__name__}.{method}",
                        vars(cls)[method]))

        txns = tracer.values.setdefault("compile.txns", [])
        for module, fn_name, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module), fn_name)
            on_result = ((lambda compiled: txns.append(compiled.num_txns))
                         if layer == "compile" else None)
            traced = spanned(tracer, f"{layer}:{fn_name}", original,
                             on_result)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") \
                        and vars(mod).get(fn_name) is original:
                    self._set(mod, fn_name, traced)

        for module, cls_name in SCHEDULERS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in ("schedule", "schedule_at"):
                self._set(cls, method,
                          scheduling(tracer, vars(cls)[method]))

        # Tap (no span): the DRAM read latencies, in simulated cycles.
        from repro.sim.stats import Histogram

        latencies = tracer.values.setdefault("dram.read_latency", [])
        record = vars(Histogram)["record"]

        @functools.wraps(record)
        def tapped(hist, value, weight=1):
            if hist.name == "read_latency":
                latencies.extend([value] * weight)
            return record(hist, value, weight)
        self._set(Histogram, "record", tapped)


def spanned(tracer: SpanTracer, name: str, fn: Callable[..., Any],
            on_result: Optional[Callable[[Any], None]] = None
            ) -> Callable[..., Any]:
    """``fn`` wrapped in a span called ``name``."""
    span = tracer.span

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        result = span(name, fn, args, kwargs)
        if on_result is not None:
            on_result(result)
        return result
    return traced


def scheduling(tracer: SpanTracer, schedule: Callable[..., Any]
               ) -> Callable[..., Any]:
    """A ``schedule`` method whose callbacks run inside spans."""
    span = tracer.span
    callback_name = tracer.callback_name
    sched_n = tracer._sched_n

    @functools.wraps(schedule)
    def traced_schedule(queue: Any, when: int, fn: Callable[..., Any],
                        *args: Any) -> None:
        name = callback_name(fn)
        sched_n[-1] += 1

        def callback(*cb_args: Any) -> Any:
            return span(name, fn, cb_args, {})
        schedule(queue, when, callback, *args)
    return traced_schedule


def _noop(*_args: Any) -> None:
    return None


class _NullQueue:
    def schedule(self, _when: int, _fn: Callable[..., Any], *_args: Any
                 ) -> None:
        return None


def calibrate(tracer: SpanTracer, calls: int = 20_000,
              repeats: int = 5) -> None:
    """Measure the wrappers' cost outside the spans they open and set
    ``tracer.call_cost_ns`` / ``tracer.schedule_cost_ns`` (best of
    ``repeats``: the cost is a floor, noise only adds to it).

    The probes are hot loops over one function, so this is a lower
    bound: in a real run part of the tracer's cost stays in the
    callers' self times (``tracing_overhead`` shows the whole cost)."""
    loop = range(calls)
    call_costs, sched_costs = [], []
    for _ in range(repeats):
        probe = SpanTracer()
        traced = spanned(probe, "x:noop", _noop)

        def calls_loop() -> None:
            for _ in loop:
                traced(1, 2, 3)
        started = perf_counter_ns()
        for _ in loop:
            pass
        empty = perf_counter_ns() - started
        probe.root(calls_loop)
        call_costs.append((probe.self_ns[ROOT] - empty) / calls)

        queue = _NullQueue()
        bare = _NullQueue.schedule
        traced_schedule = scheduling(probe, bare)
        started = perf_counter_ns()
        for _ in loop:
            bare(queue, 0, _noop, 1)
        plain = perf_counter_ns() - started
        started = perf_counter_ns()
        for _ in loop:
            traced_schedule(queue, 0, _noop, 1)
        sched_costs.append((perf_counter_ns() - started - plain) / calls)
    tracer.call_cost_ns = max(0.0, min(call_costs))
    tracer.schedule_cost_ns = max(0.0, min(sched_costs))
