#!/usr/bin/env python3
"""Run benchmark workloads and print their metrics.

From the repository root::

    python3 perfbench/run.py --workload event-gather --seed 42 \\
        --seconds 30 --trace 0

``--trace 0`` repeats rounds of the workload (see :mod:`perfbench.grid`)
for ``--seconds`` seconds with no instrumentation and reports the
end-to-end metrics: the set-up time's median over the rounds, the grid
times' sums of each cell's fastest round, the fastest warm request
(all four scaled to the reference host speed of
:mod:`perfbench.hostspeed`), the peak resident memory, and the share
of cells whose outputs were correct.  ``--trace 1``
runs the grid untraced once serially and once through a two-worker
pool, then once more serially with every layer wrapped in spans
(:mod:`perfbench.spans`), and reports the per-layer metrics
(:mod:`perfbench.layers`).  Either way every cell's outputs are
fingerprinted and checked against ``perfbench/refs.json``, and the
last line printed is one JSON object: ``correct``, ``attempted`` and
``failed`` (cells) and ``metrics`` (name -> value and unit).

Each run works in its own directory under ``.perfbench/`` at the root:
a private result cache and ledger per grid, no log or progress files,
and nothing written under ``~/.cache/repro``.  A run refuses to start
while ``REPRO_CHAOS`` is armed, because injected host faults would be
measured as the program's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CHAOS_OFF = ("", "off", "0", "none", "disabled")

#: End-to-end metric units, in report order.
END_TO_END = {"setup_s": "s", "sim_s": "s", "cold_s": "s", "warm_s": "s",
              "peak_rss_mb": "MB", "cells_ok_frac": "ratio"}

#: Workers of the traced run's parallel grid (the host has two cores).
EXECUTOR_WORKERS = 2


class BenchError(Exception):
    """The benchmark cannot run here; the message says why."""


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check that the
    program imported from it (not from an installed copy)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}/repro")
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p])
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def refuse_chaos() -> None:
    chaos = os.environ.get("REPRO_CHAOS", "").strip()
    if chaos.lower() not in CHAOS_OFF:
        raise BenchError("REPRO_CHAOS is armed; unset it to benchmark")


def isolate(workdir: Path) -> None:
    """Point every store the program writes at ``workdir``."""
    os.environ.update({
        "REPRO_CACHE_DIR": str(workdir / "cache"),
        "REPRO_LEDGER": str(workdir / "ledger.jsonl"),
        "REPRO_LOG": "off",
        "XDG_CACHE_HOME": str(workdir / "xdg"),
        "TMPDIR": str(workdir),
    })
    os.environ.pop("REPRO_PROGRESS_DIR", None)
    tempfile.tempdir = str(workdir)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or of any child it
    has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def count_failures(label: str, failed: Dict[Tuple[str, str], str]) -> int:
    """Report each failed cell on stderr; return how many failed."""
    for cell, why in sorted(failed.items()):
        print(f"FAILED {label} {cell[0]}/{cell[1]}: {why}", file=sys.stderr)
    return len(failed)


def fastest_per_cell(per_round: List[Dict[tuple, float]]
                     ) -> Dict[tuple, float]:
    """Each cell's smallest time over the rounds it completed in."""
    fastest: Dict[tuple, float] = {}
    for cells in per_round:
        for cell, seconds in cells.items():
            fastest[cell] = min(seconds, fastest.get(cell, seconds))
    return fastest


def run_untraced(spec, seed: int, seconds: float, refs, workdir: Path
                 ) -> Tuple[dict, List[str]]:
    """Repeat rounds for ``seconds`` and report the end-to-end metrics.

    ``setup_s`` is the median over the rounds.  The grid times take
    minima, because noise only ever adds time: ``sim_s`` and ``cold_s``
    sum each cell's fastest round, so that every cell gets a chance at
    a quiet moment of the host, and ``warm_s`` is the fastest warm
    request.  All four are scaled to the reference host speed
    (:mod:`perfbench.hostspeed`), which removes the host's drift over
    minutes that no statistic within one run can.
    """
    from perfbench.grid import measure_round
    from perfbench.hostspeed import speed_factor

    rounds = []
    failed = 0
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(measure_round(spec, seed, refs, workdir))
        failed += count_failures(f"round {len(rounds)}", rounds[-1].failed)
    attempted = sum(r.attempted for r in rounds)
    factor = speed_factor(s for r in rounds for s in r.reference_s)
    raw = {
        "setup_s": (statistics.median(r.setup_s for r in rounds),
                    f"median of {len(rounds)} rounds"),
        "sim_s": (sum(fastest_per_cell(
            [r.cell_sim_s for r in rounds]).values()),
            f"sum of each cell's fastest of {len(rounds)} rounds"),
        "cold_s": (sum(fastest_per_cell(
            [r.cell_cold_s for r in rounds]).values()),
            f"sum of each cell's fastest of {len(rounds)} rounds"),
        "warm_s": (min(r.warm_s for r in rounds),
                   f"fastest of {len(rounds)} rounds"),
    }
    metrics: Dict[str, float] = {}
    lines = [f"{'host speed':<16} {factor:>12.4f} x    this run's over the "
             f"reference speed (times below are scaled by it)"]
    for name, (value, statistic) in raw.items():
        metrics[name] = value * factor
        lines.append(f"{name:<16} {metrics[name]:>12.4f} s    {value:.4f} s "
                     f"as measured, {statistic}")
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["cells_ok_frac"] = 1.0 - failed / attempted
    lines.append(f"{'peak_rss_mb':<16} {metrics['peak_rss_mb']:>12.1f} MB")
    lines.append(f"{'cells_ok_frac':<16} {metrics['cells_ok_frac']:>12.4f}"
                 f"      {attempted - failed} of {attempted} cells correct")
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": metrics[k], "unit": u}
                       for k, u in END_TO_END.items()}}
    return out, lines


def run_traced(spec, seed: int, refs, workdir: Path
               ) -> Tuple[dict, List[str]]:
    from perfbench.grid import Store, fingerprint, request_grid
    from perfbench.layers import UNITS, per_layer_metrics
    from perfbench.spans import Instrumentation, SpanTracer
    from repro.workloads.base import trace_cache_clear

    with Store(workdir) as store:
        trace_cache_clear()
        untraced = request_grid(spec, seed, store)
    failed = count_failures("untraced", {
        **untraced.failed, **refs.check(spec, seed, untraced.results)})
    # The parallel executor, untraced (its workers are other processes):
    # the per-cell time the parent sees beyond the cell's simulation.
    with Store(workdir) as store:
        trace_cache_clear()
        pool = request_grid(spec, seed, store, workers=EXECUTOR_WORKERS)
    failed += count_failures("pool", {
        **pool.failed, **refs.check(spec, seed, pool.results)})
    cells = len(spec.cells)
    executor_ms = 1000.0 * (pool.wall_s * min(EXECUTOR_WORKERS, cells)
                            - pool.sim_s) / cells
    attempted = 2 * cells

    tracer = SpanTracer()
    with Store(workdir) as store, Instrumentation(tracer):
        trace_cache_clear()

        def traced_requests():
            cold = request_grid(spec, seed, store)
            request_grid(spec, seed, store)  # warm
            return cold

        started = time.perf_counter()
        traced = tracer.root(traced_requests)
        traced_wall = time.perf_counter() - started
        cache_bytes = store.cache_bytes()
    attempted += len(spec.cells)
    changed = {cell: "outputs differ from the untraced run"
               for cell, result in traced.results.items()
               if cell in untraced.results and fingerprint(result)
               != fingerprint(untraced.results[cell])}
    failed += count_failures("traced", {**traced.failed, **changed})
    tracer.dump(WORK / f"spans-{spec.name}-seed{seed}.json")

    metrics = per_layer_metrics(
        tracer, list(traced.results.values()), spec.fidelity,
        traced_wall_s=traced_wall, untraced_cold_s=untraced.wall_s,
        traced_cold_s=traced.wall_s, cache_bytes=cache_bytes,
        executor_overhead_ms=executor_ms)
    lines = [f"{name:<32} {value:>16.6g} {UNITS[name]}"
             for name, value in metrics.items()]
    ranked = sorted(tracer.layer_self_ns().items(), key=lambda kv: -kv[1])
    lines.append("self time by span layer: " + ", ".join(
        f"{layer} {ns / 1e9:.3f}s" for layer, ns in ranked))
    out = {"correct": failed == 0, "attempted": attempted,
           "failed": failed,
           "metrics": {k: {"value": v, "unit": UNITS[k]}
                       for k, v in metrics.items()}}
    return out, lines


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="workload name, comma-separated names, or "
                             "'all' (default); see BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed (default 42, the seed the "
                             "bench cells use)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the untraced run repeats rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        refuse_chaos()
        import_program()
        from perfbench.grid import SPECS, References

        names = list(SPECS) if args.workload == "all" \
            else args.workload.split(",")
        unknown = [n for n in names if n not in SPECS]
        if unknown:
            raise BenchError(f"unknown workload(s) {unknown}; "
                             f"known: {sorted(SPECS)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    isolate(workdir)
    try:
        refs = References()
        for name in names:
            spec = SPECS[name]
            if args.trace:
                out, lines = run_traced(spec, args.seed, refs, workdir)
            else:
                out, lines = run_untraced(spec, args.seed, args.seconds,
                                          refs, workdir)
            print(f"== {name} (seed {args.seed}, "
                  f"{'traced' if args.trace else 'untraced'})")
            print("\n".join(lines))
            print(json.dumps(out), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
