"""Engine events/sec microbenchmark.

Measures the discrete-event core two ways and writes the figures to
``benchmarks/results/BENCH_engine.json`` (override with ``--output``):

* **raw** — a synthetic event chain (each event reschedules its
  successor) drained through :meth:`Simulator.run`.  This isolates the
  queue and dispatch loop itself: no cache model, no workload, just the
  engine hot path.
* **sim** — a real small simulation (vecadd under cachecraft), with
  events/sec derived from ``sim.events_executed`` over host wall time.
  This is what harness and CI throughput actually look like.
* **functional** — the same model driven through the functional
  fidelity tier (:mod:`repro.sim.functional`) on an irregular cell
  (bfs under cachecraft), reported as *equivalent* events/sec: the
  events the event tier executes for that cell divided by the
  functional tier's wall time.  Irregular workloads are where
  traffic-only analysis spends its time and where event-mode timing
  (queueing, retries, row conflicts) costs the most, so this is the
  figure the F2-style sweeps actually experience.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_engine.py

CI runs this in the perf job and uploads the JSON as an artifact, so a
throughput regression shows up as a diffable number rather than a
mysteriously slower pipeline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Any, Dict

from repro.analysis.harness import bench_config, bench_gen_ctx
from repro.core.system import GpuSystem
from repro.sim.engine import Simulator
from repro.workloads import make_workload

DEFAULT_OUTPUT = os.path.join(os.path.dirname(__file__), "results",
                              "BENCH_engine.json")


def bench_raw_engine(events: int = 2_000_000, chains: int = 64) -> Dict[str, Any]:
    """Drain ``events`` no-op events through the engine hot loop.

    ``chains`` independent self-rescheduling callbacks keep the queue at
    a realistic (small, mixed-deadline) size instead of degenerating to
    a single-entry queue.
    """
    sim = Simulator()
    per_chain = events // chains
    remaining = [per_chain] * chains

    def tick(idx: int) -> None:
        remaining[idx] -= 1
        if remaining[idx] > 0:
            sim.schedule(1 + idx % 3, tick, idx)

    for idx in range(chains):
        sim.schedule(idx % 5, tick, idx)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    executed = sim.events_executed
    return {
        "events": executed,
        "seconds": round(elapsed, 4),
        "events_per_sec": round(executed / elapsed) if elapsed else 0,
    }


def bench_real_sim(scale: float = 0.2, seed: int = 42) -> Dict[str, Any]:
    """Run vecadd/cachecraft and report whole-simulation events/sec."""
    config = bench_config().with_scheme("cachecraft")
    system = GpuSystem(config)
    workload = make_workload("vecadd")
    system.load_workload(workload, bench_gen_ctx(config, scale=scale,
                                                 seed=seed))
    started = time.perf_counter()
    cycles = system.run()
    elapsed = time.perf_counter() - started
    executed = system.sim.events_executed
    return {
        "workload": "vecadd",
        "scheme": "cachecraft",
        "scale": scale,
        "cycles": cycles,
        "events": executed,
        "seconds": round(elapsed, 4),
        "events_per_sec": round(executed / elapsed) if elapsed else 0,
    }


def bench_functional_sim(scale: float = 0.2, seed: int = 42,
                         workload: str = "bfs", scheme: str = "cachecraft",
                         repeats: int = 1) -> Dict[str, Any]:
    """Equivalent events/sec of the functional tier on an irregular cell.

    Runs the cell once in event mode (for the deterministic event
    count and a same-cell speedup reference), then ``repeats`` times
    functionally (best wall time wins).  Counter parity between the
    tiers is exact, so dividing the event tier's event count by the
    functional tier's wall time is an apples-to-apples throughput for
    producing the same counters.
    """
    wl = make_workload(workload)

    def run_once(fidelity: str):
        config = bench_config().with_scheme(scheme).with_fidelity(fidelity)
        system = GpuSystem(config)
        system.load_workload(wl, bench_gen_ctx(config, scale=scale,
                                               seed=seed))
        started = time.perf_counter()
        system.run()
        return system, time.perf_counter() - started

    event_system, event_seconds = run_once("event")
    events = event_system.sim.events_executed
    fn_seconds = min(run_once("functional")[1]
                     for _ in range(max(1, repeats)))
    return {
        "workload": workload,
        "scheme": scheme,
        "scale": scale,
        "events": events,
        "seconds": round(fn_seconds, 4),
        "events_per_sec": round(events / fn_seconds) if fn_seconds else 0,
        "event_seconds": round(event_seconds, 4),
        "speedup": round(event_seconds / fn_seconds, 2) if fn_seconds else 0,
    }


def run_benchmark(raw_events: int, scale: float, repeats: int) -> Dict[str, Any]:
    """Best-of-``repeats`` for each figure (min wall time wins)."""
    raw = min((bench_raw_engine(raw_events) for _ in range(repeats)),
              key=lambda r: r["seconds"])
    sim = min((bench_real_sim(scale) for _ in range(repeats)),
              key=lambda r: r["seconds"])
    functional = bench_functional_sim(scale, repeats=repeats)
    return {
        "benchmark": "engine_events_per_sec",
        "python": platform.python_version(),
        "repeats": repeats,
        "raw_engine": raw,
        "real_sim": sim,
        "functional_sim": functional,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", "-o", default=DEFAULT_OUTPUT,
                        help=f"JSON output path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--raw-events", type=int, default=2_000_000,
                        help="synthetic events for the raw loop benchmark")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="workload scale for the real-sim benchmark")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per figure; best (fastest) is reported")
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="run-ledger JSONL to append the figures to "
                             "(default: $REPRO_LEDGER or the cache-dir "
                             "ledger; see docs/OBSERVABILITY.md)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not append this run to the ledger")
    args = parser.parse_args()

    payload = run_benchmark(args.raw_events, args.scale, args.repeats)
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    raw = payload["raw_engine"]
    sim = payload["real_sim"]
    print(f"raw engine : {raw['events_per_sec']:>12,} events/sec "
          f"({raw['events']:,} events in {raw['seconds']}s)")
    print(f"real sim   : {sim['events_per_sec']:>12,} events/sec "
          f"({sim['events']:,} events in {sim['seconds']}s)")
    fn = payload["functional_sim"]
    print(f"functional : {fn['events_per_sec']:>12,} eq events/sec "
          f"({fn['events']:,} events' worth in {fn['seconds']}s; "
          f"{fn['speedup']}x event mode on "
          f"{fn['workload']}/{fn['scheme']})")
    print(f"wrote {args.output}")
    if not args.no_ledger:
        from repro.obs.ledger import record_from_bench, resolve_ledger

        ledger = resolve_ledger(args.ledger)
        if ledger is not None:
            run_id = ledger.safe_append(record_from_bench(payload))
            if run_id:
                print(f"ledger: appended run {run_id} to {ledger.path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
