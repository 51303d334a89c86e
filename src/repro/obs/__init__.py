"""Simulation observability: tracing, time-series metrics, latency
attribution.

Three orthogonal tools, all off by default and all near-free when off:

* :class:`~repro.obs.tracer.ChromeTracer` — structured spans/instants
  in Chrome trace format (``chrome://tracing`` / Perfetto);
* :class:`~repro.obs.sampler.MetricsSampler` — windowed snapshots of
  every counter/gauge/histogram in the stats registry, exportable as
  JSON-lines or CSV;
* :class:`~repro.obs.latency.LatencyAttributor` — per-request latency
  decomposition into data / protection-metadata / queue cycles.

The :class:`~repro.obs.hub.Observability` hub bundles them for one
run; ``GpuSystem(config, obs=...)`` threads it through the machine.

*Across* runs, the :class:`~repro.obs.ledger.RunLedger` records every
harness/campaign/bench invocation, :mod:`repro.obs.regress` gates on a
committed baseline, and :mod:`repro.obs.htmlreport` renders the
history as a self-contained HTML report (``repro obs ...`` CLI).
See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.hub import OBS_OFF, Observability, make_observability
from repro.obs.latency import LatencyAttributor, LoadToken
from repro.obs.ledger import (RunLedger, default_ledger_path,
                              record_from_bench, record_from_result,
                              resolve_ledger)
from repro.obs.regress import (RegressionReport, check, load_baseline,
                               make_baseline, save_baseline)
from repro.obs.htmlreport import render_html, write_html
from repro.obs.sampler import MetricsSampler
from repro.obs.tracer import NULL_TRACER, ChromeTracer, NullTracer

__all__ = [
    "OBS_OFF",
    "Observability",
    "make_observability",
    "LatencyAttributor",
    "LoadToken",
    "MetricsSampler",
    "NULL_TRACER",
    "ChromeTracer",
    "NullTracer",
    "RunLedger",
    "default_ledger_path",
    "resolve_ledger",
    "record_from_result",
    "record_from_bench",
    "RegressionReport",
    "check",
    "make_baseline",
    "load_baseline",
    "save_baseline",
    "render_html",
    "write_html",
]
