"""Command-line interface (``cachecraft-sim``).

Subcommands:

* ``run`` — simulate one workload under one scheme (``--json`` for
  tooling; prints a bottleneck classification);
* ``compare`` — compare all schemes on one workload (``--workers`` for
  parallel cells; results persist in the on-disk cache by default);
* ``cache`` — inspect or clear the persistent result cache
  (docs/PERFORMANCE.md);
* ``profile`` — latency-breakdown and hottest-components report for
  one workload/scheme (see docs/OBSERVABILITY.md);
* ``experiment`` — regenerate one of the reproduced tables/figures;
* ``sweep`` — one-parameter sensitivity sweep (l2/granule/mdcache);
* ``faults`` — fault-injection coverage campaign for any code;
* ``campaign`` — resilient multi-cell sweep in forked workers with
  timeouts, retries and a resumable JSONL journal (docs/RESILIENCE.md);
* ``obs`` — cross-run telemetry: ``history``/``diff`` over the run
  ledger, the ``regress`` sentinel against a committed baseline,
  ``report --html`` (self-contained) and ``baseline`` seeding
  (docs/OBSERVABILITY.md);
* ``trace`` — dump a workload's warp traces to JSON lines;
* ``report`` — assemble a markdown report from saved benchmark results;
* ``list`` — list available workloads, schemes, and experiments.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.harness import bench_config, bench_gen_ctx, compare_schemes
from repro.analysis.result_cache import ResultCache, default_cache_dir
from repro.analysis.tables import format_table
from repro.core.config import ALL_SCHEMES, FIDELITIES
from repro.core.system import run_workload
from repro.obs.hub import Observability, make_observability
from repro.workloads import WORKLOADS, make_workload
from repro.workloads.base import WORKLOAD_REGISTRY


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by run/compare/profile."""
    group = parser.add_argument_group("observability")
    group.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write a Chrome-trace JSON of the run "
                            "(load in Perfetto / chrome://tracing)")
    group.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write sampled time-series metrics "
                            "(.csv for CSV, anything else JSON lines)")
    group.add_argument("--sample-interval", type=int, default=1000,
                       metavar="CYCLES",
                       help="metrics sampling window (default 1000)")
    group.add_argument("--trace-categories", default=None,
                       metavar="CATS",
                       help="comma-separated trace categories "
                            "(sm,l2,mdcache,dram; default all)")
    group.add_argument("--inspect-out", default=None, metavar="FILE",
                       help="write memory-hierarchy introspection JSON "
                            "(reuse distances, set-conflict heatmaps, "
                            "row locality, reconstruction efficacy; "
                            "counter-based, so works on both fidelity "
                            "tiers)")


def _add_ledger_args(parser: argparse.ArgumentParser) -> None:
    """Run-ledger flags shared by run/compare/campaign (and obs)."""
    group = parser.add_argument_group("run ledger")
    group.add_argument("--ledger", default=None, metavar="FILE",
                       help="run-ledger JSONL path (default: $REPRO_LEDGER "
                            "or <cache dir>/ledger.jsonl)")
    group.add_argument("--no-ledger", action="store_true",
                       help="do not record this invocation in the ledger")


def _add_log_args(parser: argparse.ArgumentParser) -> None:
    """Structured-log flags shared by run/compare/campaign."""
    group = parser.add_argument_group("structured log")
    group.add_argument("--log-out", default=None, metavar="FILE",
                       help="append structured JSONL events to FILE "
                            "(default: $REPRO_LOG, off when unset)")
    group.add_argument("--log-level", default=None,
                       choices=("debug", "info", "warn", "error"),
                       help="minimum level to record (default debug)")


def _log_from_args(args: argparse.Namespace):
    """The configured structured logger (flags override environment)."""
    from repro.obs.structlog import StructLog, resolve_log

    if getattr(args, "log_out", None):
        return StructLog(args.log_out, level=args.log_level or "debug")
    return resolve_log(None)


def _add_live_args(parser: argparse.ArgumentParser) -> None:
    """Live-dashboard flags shared by compare/campaign."""
    group = parser.add_argument_group("live telemetry")
    group.add_argument("--live", action="store_true",
                       help="render a live fleet dashboard (plain-text "
                            "frames; works without a TTY)")
    group.add_argument("--live-interval", type=float, default=1.0,
                       metavar="SEC",
                       help="seconds between dashboard frames; 0 prints "
                            "a single final frame (CI mode; default 1)")
    group.add_argument("--progress-dir", default=None, metavar="DIR",
                       help="progress-channel directory (default: a "
                            "temporary directory when --live is given); "
                            "inspect any run with `obs top DIR`")


def _ledger_from_args(args: argparse.Namespace, required: bool = False):
    """The configured ledger, or None when disabled (flag or env)."""
    from repro.obs.ledger import resolve_ledger

    if getattr(args, "no_ledger", False):
        return None
    ledger = resolve_ledger(args.ledger)
    if ledger is None and required:
        raise SystemExit("error: the run ledger is disabled "
                         "(REPRO_LEDGER=off); pass --ledger FILE")
    return ledger


def _reject_timed_flags(args: argparse.Namespace) -> None:
    """Fail fast when a counters-only run is asked for timing output.

    The functional tier has no cycle clock, so a trace or metrics
    time-series would be silently empty — refuse up front with the fix
    spelled out instead of writing a useless file.
    """
    if getattr(args, "fidelity", "event") == "event":
        return
    offending = [flag for flag, value in (("--trace-out", args.trace_out),
                                          ("--metrics-out", args.metrics_out))
                 if value]
    if offending:
        raise SystemExit(
            f"error: {', '.join(offending)} need(s) event timing, but "
            "--fidelity functional produces none; drop the flag(s) or "
            "rerun with --fidelity event")


def _make_obs(args: argparse.Namespace,
              attribute_latency: bool = False) -> Observability:
    try:
        return make_observability(
            trace_out=args.trace_out, metrics_out=args.metrics_out,
            sample_interval=args.sample_interval,
            trace_categories=args.trace_categories,
            attribute_latency=attribute_latency,
            flame_out=getattr(args, "flame_out", None),
            flame_sample_every=getattr(args, "flame_sample_every", 64),
            inspect_out=getattr(args, "inspect_out", None))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _export_obs(obs: Observability, trace_out, metrics_out,
                flame_out=None, inspect_out=None,
                inspect_meta=(None, None, None)) -> None:
    """Write whatever the hub collected to the requested files."""
    if trace_out and obs.tracer.enabled:
        obs.tracer.export(trace_out)
        dropped = getattr(obs.tracer, "dropped", 0)
        note = f" ({dropped} events dropped)" if dropped else ""
        print(f"wrote trace to {trace_out}{note}")
    if metrics_out and obs.sampler is not None:
        with open(metrics_out, "w", newline="") as fh:
            if str(metrics_out).endswith(".csv"):
                obs.sampler.to_csv(fh)
            else:
                obs.sampler.to_jsonl(fh)
        print(f"wrote {len(obs.sampler.samples)} metric windows "
              f"to {metrics_out}")
    if flame_out and obs.flame is not None:
        obs.flame.export(flame_out)
        print(f"wrote {obs.flame.sample_count} flame samples "
              f"({len(obs.flame.samples)} stacks) to {flame_out} "
              "(collapsed-stack format: feed to flamegraph.pl or "
              "speedscope)")
    if inspect_out and obs.inspect is not None:
        import json as _json

        workload, scheme, fidelity = inspect_meta
        artifact = obs.inspect.artifact(workload, scheme, fidelity)
        with open(inspect_out, "w") as fh:
            _json.dump(artifact, fh, indent=2, sort_keys=True)
        print(f"wrote memory-hierarchy introspection to {inspect_out} "
              "(render with `obs inspect --html`; schema in "
              "docs/OBSERVABILITY.md)")


def _scheme_path(path: str, scheme: str) -> str:
    """Insert a scheme tag before the extension (``t.json`` ->
    ``t.cachecraft.json``) for per-scheme compare outputs."""
    import os

    stem, ext = os.path.splitext(path)
    return f"{stem}.{scheme}{ext}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachecraft-sim",
        description="CacheCraft reproduction: GPU memory-protection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one workload/scheme")
    run_p.add_argument("--workload", "-w", default="vecadd",
                       choices=sorted(WORKLOAD_REGISTRY))
    run_p.add_argument("--scheme", "-s", default="cachecraft",
                       choices=ALL_SCHEMES)
    run_p.add_argument("--scale", type=float, default=0.3,
                       help="workload size multiplier (default 0.3)")
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--l2-kb", type=int, default=1024)
    run_p.add_argument("--granule", type=int, default=128)
    run_p.add_argument("--code", default="secded")
    run_p.add_argument("--functional", action="store_true",
                       help="run real ECC decode over a functional store")
    run_p.add_argument("--fidelity", choices=FIDELITIES, default="event",
                       help="simulation tier: 'event' (timed) or "
                            "'functional' (counters only, much faster; "
                            "no cycles/latency)")
    run_p.add_argument("--json", action="store_true",
                       help="emit the result as JSON")
    _add_obs_args(run_p)
    _add_ledger_args(run_p)
    _add_log_args(run_p)

    trace_p = sub.add_parser("trace",
                             help="dump a workload's warp traces to a "
                                  "JSON-lines file")
    trace_p.add_argument("--workload", "-w", default="vecadd",
                         choices=sorted(WORKLOAD_REGISTRY))
    trace_p.add_argument("--scale", type=float, default=0.1)
    trace_p.add_argument("--seed", type=int, default=42)
    trace_p.add_argument("--output", "-o", required=True)

    cmp_p = sub.add_parser("compare", help="compare all schemes on a workload")
    cmp_p.add_argument("--workload", "-w", default="spmv",
                       choices=sorted(WORKLOAD_REGISTRY))
    cmp_p.add_argument("--scale", type=float, default=0.3)
    cmp_p.add_argument("--seed", type=int, default=42)
    cmp_p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="fan per-scheme cells out over N processes")
    cmp_p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent result cache directory "
                            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    cmp_p.add_argument("--no-cache", action="store_true",
                       help="do not read or write the persistent cache")
    cmp_p.add_argument("--fidelity", choices=FIDELITIES, default="event",
                       help="simulation tier: 'event' (timed) or "
                            "'functional' (byte counters only; norm perf "
                            "and cycles are not reported)")
    _add_obs_args(cmp_p)
    _add_ledger_args(cmp_p)
    _add_log_args(cmp_p)
    _add_live_args(cmp_p)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache")
    cache_p.add_argument("action", choices=("stats", "clear"))
    cache_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory (default: $REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")
    cache_p.add_argument("--stale-only", action="store_true",
                         help="clear: drop only entries from other model "
                              "versions")

    prof_p = sub.add_parser(
        "profile", help="latency breakdown + hottest components")
    prof_p.add_argument("--workload", "-w", default="spmv",
                        choices=sorted(WORKLOAD_REGISTRY))
    prof_p.add_argument("--scheme", "-s", default="cachecraft",
                        choices=ALL_SCHEMES)
    prof_p.add_argument("--scale", type=float, default=0.3)
    prof_p.add_argument("--seed", type=int, default=42)
    prof_p.add_argument("--l2-kb", type=int, default=1024)
    prof_p.add_argument("--granule", type=int, default=128)
    prof_p.add_argument("--code", default="secded")
    prof_p.add_argument("--top", type=int, default=8,
                        help="hottest components to show (default 8)")
    prof_p.add_argument("--flame-out", default=None, metavar="FILE",
                        help="write a deterministic collapsed-stack "
                             "profile of the engine itself (flamegraph.pl"
                             "/speedscope input)")
    prof_p.add_argument("--flame-sample-every", type=int, default=64,
                        metavar="N", help="flame sampling period in "
                                          "executed events (default 64)")
    _add_obs_args(prof_p)

    exp_p = sub.add_parser("experiment", help="regenerate a table/figure")
    exp_p.add_argument("ident", choices=sorted(EXPERIMENTS),
                       help="experiment id (T1-T5, F1-F11)")

    sweep_p = sub.add_parser("sweep", help="one-parameter sensitivity sweep")
    sweep_p.add_argument("parameter", choices=("l2", "granule", "mdcache"))
    sweep_p.add_argument("--workload", "-w", default="spmv",
                         choices=sorted(WORKLOAD_REGISTRY))
    sweep_p.add_argument("--scheme", "-s", default="cachecraft",
                         choices=ALL_SCHEMES + ("sector-l2",))
    sweep_p.add_argument("--values", type=int, nargs="+",
                         help="points to sweep (defaults per parameter)")
    sweep_p.add_argument("--scale", type=float, default=0.2)

    faults_p = sub.add_parser("faults",
                              help="fault-injection coverage campaign")
    faults_p.add_argument("--code", default="secded",
                          help="code name (see `list`)")
    faults_p.add_argument("--granule", type=int, default=32)
    faults_p.add_argument("--trials", type=int, default=500)

    camp_p = sub.add_parser(
        "campaign",
        help="resilient workload x scheme sweep (forked workers, "
             "timeouts, retries, resumable journal)")
    camp_p.add_argument("--workloads", "-w", default="vecadd,spmv",
                        help="comma-separated workload list")
    camp_p.add_argument("--schemes", "-s", default="none,cachecraft",
                        help="comma-separated scheme list")
    camp_p.add_argument("--scale", type=float, default=0.1)
    camp_p.add_argument("--seed", type=int, default=42)
    camp_p.add_argument("--journal", default="campaign.jsonl",
                        help="JSONL journal path (default campaign.jsonl); "
                             "rerunning resumes from it")
    camp_p.add_argument("--workers", type=int, default=2,
                        help="parallel worker processes (default 2)")
    camp_p.add_argument("--timeout", type=float, default=300.0,
                        help="per-cell timeout in host seconds "
                             "(default 300)")
    camp_p.add_argument("--max-attempts", type=int, default=2,
                        help="attempts per cell before reporting failure")
    camp_p.add_argument("--retry-backoff", type=float, default=0.5,
                        metavar="SECONDS",
                        help="base retry delay; grows exponentially with "
                             "deterministic per-cell jitter (default 0.5)")
    camp_p.add_argument("--retry-backoff-max", type=float, default=30.0,
                        metavar="SECONDS",
                        help="cap on the exponential retry delay "
                             "(default 30)")
    camp_p.add_argument("--degrade", action="store_true",
                        help="rescue a cell that exhausts its attempts "
                             "with one functional-tier (counters-only) "
                             "attempt, flagged in provenance")
    camp_p.add_argument("--chaos-policy", default=None, metavar="FILE",
                        help="host-fault injection policy (JSON file or "
                             "inline JSON); also honored via the "
                             "REPRO_CHAOS environment variable")
    camp_p.add_argument("--max-events", type=int, default=50_000_000,
                        help="per-cell engine event budget")
    camp_p.add_argument("--no-resume", action="store_true",
                        help="ignore and truncate an existing journal")
    camp_p.add_argument("--inject-rate", type=float, default=0.0,
                        metavar="PER_KCYCLE",
                        help="transient-flip rate per 1000 cycles; >0 "
                             "enables in-situ injection (functional mode)")
    camp_p.add_argument("--inject-target", default="data",
                        choices=("data", "metadata"))
    camp_p.add_argument("--inject-seed", type=int, default=1)
    camp_p.add_argument("--recovery-retries", type=int, default=3,
                        help="bounded DUE re-fetch attempts (default 3)")
    camp_p.add_argument("--sabotage", action="append", default=[],
                        metavar="CELL=MODE",
                        help="testing aid: sabotage a cell "
                             "(MODE: hang|crash|livelock), e.g. "
                             "--sabotage vecadd/none=livelock")
    _add_ledger_args(camp_p)
    _add_log_args(camp_p)
    _add_live_args(camp_p)

    fsck_p = sub.add_parser(
        "fsck", help="scan (and optionally repair) the on-disk stores: "
                     "result cache, ledger, journals, logs, "
                     "progress files")
    fsck_p.add_argument("--repair", action="store_true",
                        help="heal what is safely healable: truncate torn "
                             "tails, drop corrupt records, quarantine bad "
                             "cache entries, release journal quarantines")
    fsck_p.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    fsck_p.add_argument("--ledger", default=None, metavar="FILE",
                        help="ledger path (default: $REPRO_LEDGER or "
                             "<cache dir>/ledger.jsonl)")
    fsck_p.add_argument("--journal", action="append", default=[],
                        metavar="FILE",
                        help="campaign journal to scan (repeatable)")
    fsck_p.add_argument("--log", default=None, metavar="FILE",
                        help="structured log to scan")
    fsck_p.add_argument("--progress-dir", default=None, metavar="DIR",
                        help="progress directory to scan")
    fsck_p.add_argument("--json", action="store_true",
                        help="emit the report as JSON")

    obs_p = sub.add_parser(
        "obs", help="cross-run telemetry: ledger history, regression "
                    "sentinel, HTML run report")
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)

    hist_p = obs_sub.add_parser("history",
                                help="recent ledger records as a table")
    hist_p.add_argument("--limit", type=int, default=20,
                        help="most recent records to show (default 20)")
    hist_p.add_argument("--kind", choices=("run", "bench", "session"),
                        default=None)
    hist_p.add_argument("--workload", "-w", default=None)
    hist_p.add_argument("--scheme", "-s", default=None)
    hist_p.add_argument("--json", action="store_true",
                        help="emit the records as JSON lines")
    _add_ledger_args(hist_p)

    diff_p = obs_sub.add_parser(
        "diff", help="metric-by-metric delta between two ledger records")
    diff_p.add_argument("run_a", help="run id (or unique prefix)")
    diff_p.add_argument("run_b", help="run id (or unique prefix)")
    diff_p.add_argument("--json", action="store_true",
                        help="emit the diff as one JSON object")
    _add_ledger_args(diff_p)

    top_p = obs_sub.add_parser(
        "top", help="live fleet dashboard over a progress directory "
                    "(see compare/campaign --live)")
    top_p.add_argument("progress_dir", metavar="DIR",
                       help="progress directory written by a running "
                            "compare/campaign")
    top_p.add_argument("--watch", action="store_true",
                       help="keep redrawing until interrupted "
                            "(default: one frame)")
    top_p.add_argument("--interval", type=float, default=1.0, metavar="SEC",
                       help="seconds between frames with --watch")
    top_p.add_argument("--stale-after", type=float, default=10.0,
                       metavar="SEC",
                       help="report a worker stale after this many "
                            "seconds without a heartbeat (default 10)")

    flame_p = obs_sub.add_parser(
        "flame", help="deterministic engine flamegraph for one cell "
                      "(collapsed-stack output; bit-identical across "
                      "runs of the same cell)")
    flame_p.add_argument("--workload", "-w", default="spmv",
                         choices=sorted(WORKLOAD_REGISTRY))
    flame_p.add_argument("--scheme", "-s", default="cachecraft",
                         choices=ALL_SCHEMES)
    flame_p.add_argument("--scale", type=float, default=0.3)
    flame_p.add_argument("--seed", type=int, default=42)
    flame_p.add_argument("--fidelity", choices=FIDELITIES, default="event",
                         help="tier to profile (the flame profiler counts "
                              "events, so the functional tier works too)")
    flame_p.add_argument("--sample-every", type=int, default=64, metavar="N",
                         help="sampling period in executed events "
                              "(default 64)")
    flame_p.add_argument("--out", "-o", default=None, metavar="FILE",
                         help="write collapsed stacks to FILE "
                              "(default: stdout)")
    flame_p.add_argument("--top", type=int, default=10,
                         help="hottest stacks to summarize with --out "
                              "(default 10)")

    inspect_p = obs_sub.add_parser(
        "inspect", help="memory-hierarchy introspection for one "
                        "workload across schemes: reuse-distance CDFs, "
                        "set-conflict heatmaps, DRAM row locality and "
                        "reconstruction efficacy (JSON + HTML)")
    inspect_p.add_argument("--workload", "-w", default="vecadd",
                           choices=sorted(WORKLOAD_REGISTRY))
    inspect_p.add_argument("--schemes", "-s",
                           default="none,metadata-cache,cachecraft",
                           help="comma-separated scheme list (default "
                                "none,metadata-cache,cachecraft)")
    inspect_p.add_argument("--scale", type=float, default=0.1)
    inspect_p.add_argument("--seed", type=int, default=42)
    inspect_p.add_argument("--fidelity", choices=FIDELITIES,
                           default="event",
                           help="tier to inspect (introspection is "
                                "counter-based, so the functional tier "
                                "works too; it just has no DRAM row "
                                "view)")
    inspect_p.add_argument("--json-out", default=None, metavar="FILE",
                           help="write per-scheme introspection JSON "
                                "(scheme tag inserted before the "
                                "extension)")
    inspect_p.add_argument("--html", default=None, metavar="FILE",
                           help="write a self-contained HTML heatmap "
                                "report")

    regress_p = obs_sub.add_parser(
        "regress", help="compare latest records against a baseline; "
                        "exits nonzero on breach")
    regress_p.add_argument("--baseline", default=None, metavar="FILE",
                           help="baseline JSON (default "
                                "benchmarks/results/BASELINE.json)")
    regress_p.add_argument("--tolerance", action="append", default=[],
                           metavar="METRIC=REL",
                           help="override a relative tolerance band, "
                                "e.g. --tolerance cycles=0.1")
    regress_p.add_argument("--ignore-model-version", action="store_true",
                           help="compare even when the baseline was "
                                "seeded for another MODEL_VERSION")
    _add_ledger_args(regress_p)

    report_html_p = obs_sub.add_parser(
        "report", help="self-contained HTML run report from the ledger")
    report_html_p.add_argument("--html", required=True, metavar="FILE",
                               help="output HTML path")
    report_html_p.add_argument("--title", default="CacheCraft run report")
    report_html_p.add_argument("--limit", type=int, default=None,
                               help="only the most recent N records")
    _add_ledger_args(report_html_p)

    baseline_p = obs_sub.add_parser(
        "baseline", help="seed/update a regression baseline from the "
                         "latest ledger records")
    baseline_p.add_argument("--output", "-o", default=None, metavar="FILE",
                            help="baseline JSON to write (default "
                                 "benchmarks/results/BASELINE.json)")
    baseline_p.add_argument("--tolerance", action="append", default=[],
                            metavar="METRIC=REL",
                            help="store a tolerance override in the "
                                 "baseline file")
    _add_ledger_args(baseline_p)

    report_p = sub.add_parser("report",
                              help="assemble a markdown report from saved "
                                   "benchmark results")
    report_p.add_argument("--results-dir", default="benchmarks/results")
    report_p.add_argument("--output", "-o", default=None,
                          help="write to a file instead of stdout")

    sub.add_parser("list", help="list workloads, schemes, experiments")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    _reject_timed_flags(args)
    config = bench_config(l2_size_kb=args.l2_kb).with_protection(
        scheme=args.scheme, granule_bytes=args.granule,
        code_name=args.code, functional=args.functional)
    if args.fidelity != "event":
        config = config.with_fidelity(args.fidelity)
    gen_ctx = bench_gen_ctx(config, scale=args.scale, seed=args.seed)
    obs = _make_obs(args)
    log = _log_from_args(args)
    if log.enabled:
        from repro.obs.structlog import run_context

        log = log.bind(**run_context(run="cli.run",
                                     cell=f"{args.workload}/{args.scheme}",
                                     fidelity=args.fidelity))
    log.info("run.start", scale=args.scale, seed=args.seed)
    try:
        workload = make_workload(args.workload)
        result = run_workload(workload, config, gen_ctx=gen_ctx, obs=obs)
    except Exception as exc:
        log.error("run.failed", error=f"{type(exc).__name__}: {exc}")
        raise
    log.info("run.done", cycles=result.cycles,
             events=int(result.events_executed),
             host_seconds=round(result.host_seconds, 3))
    _export_obs(obs, args.trace_out, args.metrics_out,
                inspect_out=args.inspect_out,
                inspect_meta=(args.workload, args.scheme, args.fidelity))
    ledger = _ledger_from_args(args)
    if ledger is not None:
        from repro.analysis.result_cache import cache_key
        from repro.obs.ledger import record_from_result
        from repro.workloads.base import compiled_digest

        # The key a harness would file this cell under: functional
        # cells are addressed by their compiled trace (memoized by the
        # run above).
        digest = (compiled_digest(workload, gen_ctx,
                                  line_bytes=config.gpu.line_bytes,
                                  sector_bytes=config.gpu.sector_bytes)
                  if config.fidelity == "functional" else None)
        ledger.safe_append(record_from_result(
            result, label="cli.run",
            config_key=cache_key(args.workload, config, args.scale,
                                 args.seed, trace_digest=digest),
            scale=args.scale, seed=args.seed,
            log_path=str(log.path) if log.enabled else None))
    if args.json:
        print(result.to_json())
        return 0
    print(f"workload={result.workload} scheme={result.scheme}")
    if result.fidelity == "event":
        print(f"cycles={result.cycles}")
    else:
        print(f"fidelity={result.fidelity} (counters only; no "
              "cycles/latency)")
    print(f"dram_bytes={result.total_dram_bytes} "
          f"(overhead {result.overhead_bytes})")
    rows = [[k, v] for k, v in sorted(result.traffic.items()) if v]
    print(format_table(["traffic kind", "bytes"], rows))
    l1 = result.l1_hit_rate()
    l2 = result.l2_hit_rate()
    print(f"l1_hit_rate={l1:.3f} l2_hit_rate={l2:.3f}"
          if l1 is not None and l2 is not None else "")
    if result.fidelity == "event":
        from repro.analysis.bottleneck import analyze

        report = analyze(result, config)
        print(f"bottleneck={report.classification} "
              f"(bus {report.peak_bus_utilization:.0%}, "
              f"latency x{report.latency_multiple:.1f})")
        for note in report.notes:
            print(f"  note: {note}")
    print(f"host_seconds={result.host_seconds:.2f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.harness import ExperimentHarness

    _reject_timed_flags(args)
    observers = {}
    obs_factory = None
    if args.trace_out or args.metrics_out or args.inspect_out:
        def obs_factory(_workload: str, scheme: str) -> Observability:
            obs = _make_obs(args)
            observers[scheme] = obs
            return obs
    # Persistent caching is on by default, but an observed run must
    # actually execute (and its results carry attribution data), so
    # observability flags disable it — as does --no-cache.
    cache_dir = None
    if not args.no_cache and obs_factory is None:
        cache_dir = args.cache_dir if args.cache_dir is not None \
            else default_cache_dir()
    if obs_factory is not None and not args.no_cache:
        print("note: persistent result cache disabled for this invocation "
              "(observability flags force live runs; pass --no-cache to "
              "silence this notice)")
    workers = args.workers
    if workers is not None and workers > 1 and obs_factory is not None:
        # Observers bind to in-process objects, so a parallel matrix
        # would silently drop --trace-out/--metrics-out; degrade to
        # serial (and say so) rather than lose the requested output.
        print("warning: --workers requires unobserved runs; running "
              "serially so --trace-out/--metrics-out/--inspect-out "
              "are not lost", file=sys.stderr)
        workers = None
    log = _log_from_args(args)
    progress_dir = args.progress_dir
    if progress_dir is None and args.live:
        import tempfile

        progress_dir = tempfile.mkdtemp(prefix="repro-progress-")
    ledger = _ledger_from_args(args)
    harness = ExperimentHarness(scale=args.scale, seed=args.seed,
                                obs_factory=obs_factory,
                                cache_dir=cache_dir,
                                ledger=ledger or False,
                                ledger_label="cli.compare",
                                fidelity=args.fidelity,
                                log=log, progress_dir=progress_dir)
    renderer = None
    if args.live:
        from repro.obs.progress import LiveRenderer

        print(f"live telemetry: progress dir {progress_dir} "
              f"(follow along with `obs top {progress_dir}`)")
        renderer = LiveRenderer(progress_dir, interval=args.live_interval,
                                title=f"compare: {args.workload}").start()
    try:
        rows = compare_schemes(args.workload, scale=args.scale,
                               seed=args.seed, obs_factory=obs_factory,
                               workers=workers, harness=harness,
                               fidelity=args.fidelity)
    finally:
        if renderer is not None:
            renderer.stop()
    if ledger is not None and progress_dir is not None:
        from repro.obs.ledger import record_from_session
        from repro.obs.progress import read_progress, snapshot, summary_dict

        summary = summary_dict(snapshot(read_progress(progress_dir)))
        ledger.safe_append(record_from_session(
            "cli.compare", summary,
            log_path=str(log.path) if log.enabled else None,
            progress_dir=str(progress_dir)))
    timed = args.fidelity == "event"
    table = [[r["scheme"],
              r["norm_perf"] if timed else "-",
              r["cycles"] if timed else "-",
              r["dram_bytes"], r["overhead_bytes"]] for r in rows]
    title = f"scheme comparison: {args.workload}"
    if not timed:
        title += " (functional: traffic only)"
    print(format_table(
        ["scheme", "norm perf", "cycles", "DRAM bytes", "overhead bytes"],
        table, title=title))
    if harness.result_cache is not None:
        print(f"{harness.sims_run} simulated, "
              f"{harness.result_cache.hits} from cache "
              f"({harness.result_cache.dir})")
    else:
        print(f"{harness.sims_run} simulated (persistent cache off)")
    for scheme, obs in observers.items():
        _export_obs(
            obs,
            _scheme_path(args.trace_out, scheme) if args.trace_out else None,
            _scheme_path(args.metrics_out, scheme)
            if args.metrics_out else None,
            inspect_out=_scheme_path(args.inspect_out, scheme)
            if args.inspect_out else None,
            inspect_meta=(args.workload, scheme, args.fidelity))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache dir: {stats['dir']}")
        print(f"entries: {stats['entries']} "
              f"({stats['bytes']} bytes on disk)")
        print(f"current model (v{stats['model_version']}): "
              f"{stats['current_model_entries']} entries")
        for version, bucket in sorted(stats["by_model_version"].items()):
            tag = " (current)" if version == stats["model_version"] else ""
            print(f"  model v{version}: {bucket['entries']} entries, "
                  f"{bucket['bytes']} bytes{tag}")
        stale = stats["entries"] - stats["current_model_entries"]
        if stale:
            print(f"stale entries: {stale} "
                  "(run `cache clear --stale-only` to drop them)")
        if stats["quarantined_entries"]:
            print(f"quarantined entries: {stats['quarantined_entries']} "
                  "(.bad siblings; `cache clear` removes, "
                  "`repro fsck` reports)")
        from repro.workloads.base import trace_cache_stats

        memo = trace_cache_stats()
        print(f"trace memo (this process): {memo['entries']} entries "
              f"(cap {memo['capacity']}), {memo['hits']} hits, "
              f"{memo['misses']} misses")
        print(f"compiled memo (this process): "
              f"{memo['compiled_entries']} entries, "
              f"{memo['compiled_hits']} hits, "
              f"{memo['compiled_misses']} misses")
        return 0
    removed = cache.clear(stale_only=args.stale_only)
    what = "stale entries" if args.stale_only else "entries"
    print(f"removed {removed} {what} from {cache.dir}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import check_breakdown_sums, render_profile

    config = bench_config(l2_size_kb=args.l2_kb).with_protection(
        scheme=args.scheme, granule_bytes=args.granule, code_name=args.code)
    gen_ctx = bench_gen_ctx(config, scale=args.scale, seed=args.seed)
    obs = _make_obs(args, attribute_latency=True)
    result = run_workload(make_workload(args.workload), config,
                          gen_ctx=gen_ctx, obs=obs)
    print(render_profile(result, k=args.top))
    if not check_breakdown_sums(result.latency):
        print("warning: latency components do not sum to the total "
              "(attribution bug)", file=sys.stderr)
        return 1
    _export_obs(obs, args.trace_out, args.metrics_out, args.flame_out,
                inspect_out=args.inspect_out,
                inspect_meta=(args.workload, args.scheme, "event"))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    output = EXPERIMENTS[args.ident]()
    print(output)
    return 0


_SWEEP_DEFAULTS = {
    "l2": (512, 1024, 2048, 4096),
    "granule": (64, 128, 256, 512),
    "mdcache": (8, 16, 32, 64, 128),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = args.values or _SWEEP_DEFAULTS[args.parameter]
    rows = []
    for value in values:
        if args.parameter == "l2":
            config = bench_config(l2_size_kb=value)
        elif args.parameter == "granule":
            config = bench_config().with_protection(granule_bytes=value)
        else:
            config = bench_config().with_protection(mdcache_kb=value)
        gen = bench_gen_ctx(config, scale=args.scale)
        base = run_workload(make_workload(args.workload), config,
                            gen_ctx=gen)
        result = run_workload(make_workload(args.workload),
                              config.with_scheme(args.scheme), gen_ctx=gen)
        rows.append([value, result.performance_vs(base), result.cycles,
                     result.total_dram_bytes])
    print(format_table(
        [args.parameter, "norm perf", "cycles", "DRAM bytes"], rows,
        title=f"{args.parameter} sweep: {args.workload} / {args.scheme}"))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.ecc import BurstFault, ChipFault, FaultCampaign, MultiBitFault, SingleBitFault
    from repro.protection.codes import build_code

    code, _meta = build_code(args.code, args.granule, functional=True)
    campaign = FaultCampaign(code)
    rows = []
    for fault in (SingleBitFault(), MultiBitFault(2), BurstFault(4),
                  ChipFault(8)):
        res = campaign.run(fault, args.trials)
        d = res.as_dict()
        rows.append([fault.name, d["corrected_rate"], d["detected_rate"],
                     d["sdc_rate"], d["benign_rate"]])
    print(format_table(
        ["fault", "corrected", "detected", "SDC", "benign"], rows,
        title=f"fault coverage: {code.spec.name} ({args.trials} trials)"))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.resilience.campaign import CampaignRunner, build_cells

    workloads = [w for w in args.workloads.split(",") if w]
    schemes = [s for s in args.schemes.split(",") if s]
    for workload in workloads:
        if workload not in WORKLOAD_REGISTRY:
            raise SystemExit(f"error: unknown workload {workload!r}")
    for scheme in schemes:
        if scheme not in ALL_SCHEMES:
            raise SystemExit(f"error: unknown scheme {scheme!r}")
    sabotage = {}
    for item in args.sabotage:
        cell, sep, mode = item.partition("=")
        if not sep or mode not in ("hang", "crash", "livelock"):
            raise SystemExit(f"error: bad --sabotage spec {item!r} "
                             "(want CELL=hang|crash|livelock)")
        sabotage[cell] = mode
    protection = None
    resilience = None
    if args.inject_rate > 0:
        # In-situ injection decodes real codewords, so the backing
        # store must be functional.
        protection = {"functional": True}
        resilience = {
            "recovery": {"max_retries": args.recovery_retries},
            "fault_processes": [{"kind": "transient",
                                 "rate_per_kcycle": args.inject_rate,
                                 "target": args.inject_target}],
            "inject_seed": args.inject_seed,
        }
    cells = build_cells(workloads, schemes, scale=args.scale,
                        seed=args.seed, protection=protection,
                        resilience=resilience, max_events=args.max_events,
                        sabotage=sabotage or None)
    if args.chaos_policy:
        from repro.resilience.chaos import CHAOS_ENV, ChaosPolicy

        try:
            policy = ChaosPolicy.load(args.chaos_policy)
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"error: bad --chaos-policy {args.chaos_policy!r}: {exc}")
        # Export through the environment so forked workers inherit
        # the same policy (and the append seams in this process arm).
        os.environ[CHAOS_ENV] = args.chaos_policy
        print(f"chaos policy armed: {policy.to_json()}")
    log = _log_from_args(args)
    progress_dir = args.progress_dir
    if progress_dir is None and args.live:
        import tempfile

        progress_dir = tempfile.mkdtemp(prefix="repro-progress-")
    runner = CampaignRunner(args.journal, workers=args.workers,
                            timeout=args.timeout,
                            max_attempts=args.max_attempts,
                            retry_backoff=args.retry_backoff,
                            retry_backoff_max=args.retry_backoff_max,
                            degrade=args.degrade,
                            ledger=_ledger_from_args(args),
                            log=log, progress_dir=progress_dir)
    renderer = None
    progress_cb = print
    if args.live:
        from repro.obs.progress import LiveRenderer

        print(f"live telemetry: progress dir {progress_dir} "
              f"(follow along with `obs top {progress_dir}`)")
        renderer = LiveRenderer(progress_dir, interval=args.live_interval,
                                title="campaign").start()
        # The dashboard supersedes the per-cell progress lines (both on
        # stdout would interleave).
        progress_cb = None
    try:
        summary = runner.run(cells, resume=not args.no_resume,
                             progress=progress_cb)
    finally:
        if renderer is not None:
            renderer.stop()
    rows = []
    for cell in cells:
        cell_id = cell["cell"]
        record = summary.records.get(cell_id, {})
        if cell_id in summary.skipped:
            status = "skipped (journal)"
        elif cell_id in summary.quarantined:
            status = "QUARANTINED"
        elif cell_id in summary.failed:
            status = "FAILED"
        elif cell_id in summary.degraded:
            status = "done (degraded)"
        else:
            status = "done"
        detail = record.get("error", "") or ""
        if not detail and record.get("cycles") is not None:
            detail = f"{record['cycles']} cycles"
        rows.append([cell_id, status, detail])
    title = (f"campaign: {len(summary.done)} done, "
             f"{len(summary.skipped)} skipped, "
             f"{len(summary.failed)} failed")
    if summary.quarantined:
        title += f", {len(summary.quarantined)} quarantined"
    print(format_table(["cell", "status", "detail"], rows, title=title))
    print(f"journal: {args.journal}")
    if summary.quarantined:
        print(f"quarantined cells stay parked on resume; "
              f"`repro fsck --repair --journal {args.journal}` releases "
              f"them")
    return 0 if summary.ok else 1


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json as _json

    from repro.resilience.fsck import fsck_all

    report = fsck_all(cache_dir=args.cache_dir, ledger=args.ledger,
                      journals=args.journal, log=args.log,
                      progress_dir=args.progress_dir, repair=args.repair)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    if report.issues:
        rows = []
        for issue in report.issues:
            state = ("repaired" if issue.repaired
                     else "repairable" if issue.repairable else issue.severity)
            rows.append([issue.store, issue.kind, state,
                         f"{issue.path}: {issue.detail}"])
        print(format_table(["store", "kind", "state", "detail"], rows,
                           title=f"fsck: {len(report.issues)} issue(s)"))
    scanned = ", ".join(f"{store} {n}" for store, n
                        in sorted(report.scanned.items())) or "nothing"
    print(f"scanned: {scanned}")
    if report.ok:
        print("fsck: clean" if not report.issues
              else "fsck: clean (all error-severity issues repaired)")
        return 0
    unrepaired = len(report.unrepaired)
    print(f"fsck: {unrepaired} unrepaired issue(s)"
          + ("" if args.repair else " (re-run with --repair to heal)"))
    return 1


def _parse_tolerances(items) -> dict:
    tolerances = {}
    for item in items:
        metric, sep, value = item.partition("=")
        try:
            if not sep:
                raise ValueError
            tolerances[metric.strip()] = float(value)
        except ValueError:
            raise SystemExit(f"error: bad --tolerance spec {item!r} "
                             "(want METRIC=REL, e.g. cycles=0.1)")
    return tolerances


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.progress import read_progress, render_top, snapshot

    def frame() -> str:
        records = read_progress(args.progress_dir)
        snap = snapshot(records, stale_after=args.stale_after)
        return render_top(snap, title=f"repro fleet: {args.progress_dir}")

    if not args.watch:
        print(frame())
        return 0
    try:
        while True:
            print(frame())
            print()
            _time.sleep(max(args.interval, 0.1))
    except KeyboardInterrupt:
        return 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    from repro.obs.flame import FlameProfiler

    config = bench_config().with_scheme(args.scheme)
    if args.fidelity != "event":
        config = config.with_fidelity(args.fidelity)
    gen_ctx = bench_gen_ctx(config, scale=args.scale, seed=args.seed)
    flame = FlameProfiler(sample_every=args.sample_every)
    obs = Observability(flame=flame)
    run_workload(make_workload(args.workload), config,
                 gen_ctx=gen_ctx, obs=obs)
    if args.out:
        flame.export(args.out)
        print(f"wrote {flame.sample_count} flame samples "
              f"({len(flame.samples)} stacks) to {args.out} "
              "(collapsed-stack format; feed to flamegraph.pl or "
              "speedscope)")
        if args.top:
            print(f"hottest {min(args.top, len(flame.samples))} stacks:")
            for stack, count in flame.top_stacks(args.top):
                print(f"  {count:8d}  {stack}")
    else:
        sys.stdout.write(flame.collapsed())
    return 0


def _cmd_obs_inspect(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.htmlreport import write_inspect_html
    from repro.obs.inspect import MemoryInspector

    schemes = [s for s in args.schemes.split(",") if s]
    for scheme in schemes:
        if scheme not in ALL_SCHEMES:
            raise SystemExit(f"error: unknown scheme {scheme!r}")
    shown_keys = ("row_hit_rate", "reconstruction_efficacy",
                  "mdc_colocation_frac", "predicted_efficacy",
                  "mdcache_reuse_p50", "line_reuse_p50")
    artifacts = []
    for scheme in schemes:
        config = bench_config().with_scheme(scheme)
        if args.fidelity != "event":
            config = config.with_fidelity(args.fidelity)
        gen_ctx = bench_gen_ctx(config, scale=args.scale, seed=args.seed)
        inspector = MemoryInspector()
        obs = Observability(inspect=inspector)
        result = run_workload(make_workload(args.workload), config,
                              gen_ctx=gen_ctx, obs=obs)
        artifacts.append(inspector.artifact(args.workload, scheme,
                                            args.fidelity))
        metrics = result.key_metrics()
        summary = " ".join(f"{k}={metrics[k]}" for k in shown_keys
                           if k in metrics)
        print(f"{args.workload}/{scheme}: "
              f"{summary or 'no locality metrics'}")
        if args.json_out:
            path = _scheme_path(args.json_out, scheme)
            with open(path, "w") as fh:
                _json.dump(artifacts[-1], fh, indent=2, sort_keys=True)
            print(f"  wrote {path}")
    if args.html:
        write_inspect_html(
            artifacts, args.html,
            title=f"memory-hierarchy introspection: {args.workload}")
        print(f"wrote {args.html} ({len(artifacts)} scheme(s), "
              "self-contained HTML)")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from datetime import datetime

    from repro.obs import htmlreport, regress

    # `obs top`, `obs flame` and `obs inspect` read a progress
    # directory / run cells themselves; none takes ledger args, so
    # dispatch before resolving the ledger.
    if args.obs_command == "top":
        return _cmd_obs_top(args)
    if args.obs_command == "flame":
        return _cmd_obs_flame(args)
    if args.obs_command == "inspect":
        return _cmd_obs_inspect(args)

    ledger = _ledger_from_args(args, required=True)

    def when(rec) -> str:
        ts = rec.get("ts")
        if not isinstance(ts, (int, float)):
            return "-"
        return datetime.fromtimestamp(ts).strftime("%Y-%m-%d %H:%M:%S")

    if args.obs_command == "history":
        all_records = ledger.records()
        records = all_records
        if args.kind:
            records = [r for r in records if r.get("kind") == args.kind]
        if args.workload:
            records = [r for r in records
                       if r.get("workload") == args.workload]
        if args.scheme:
            records = [r for r in records if r.get("scheme") == args.scheme]
        records = records[-args.limit:] if args.limit else records
        if args.json:
            import json as _json

            for rec in records:
                print(_json.dumps(rec, sort_keys=True))
            return 0
        rows = []
        for rec in records:
            metrics = rec.get("metrics") or {}
            rows.append([
                str(rec.get("run_id", "?"))[:12], when(rec),
                rec.get("kind", "?"), rec.get("label", "-"),
                rec.get("cell") or "-",
                metrics.get("cycles"),
                metrics.get("total_dram_bytes"),
                metrics.get("sim_events_per_sec")
                or metrics.get("events_per_sec"),
                "cached" if rec.get("cached") else "",
                str(rec.get("git_sha") or "-")[:8],
            ])
        print(format_table(
            ["run id", "when", "kind", "label", "cell", "cycles",
             "DRAM bytes", "events/s", "src", "git"],
            rows, title=f"run ledger: {ledger.path}"))
        cells = {rec.get("cell") or rec.get("kind", "?")
                 for rec in all_records}
        print(f"{len(all_records)} records, {len(cells)} distinct cells")
        return 0

    if args.obs_command == "diff":
        records = {}
        for name in ("run_a", "run_b"):
            prefix = getattr(args, name)
            try:
                rec = ledger.find(prefix)
            except ValueError as exc:
                raise SystemExit(f"error: {exc}")
            if rec is None:
                raise SystemExit(f"error: no ledger record matches "
                                 f"{prefix!r} in {ledger.path}")
            records[name] = rec
        rec_a, rec_b = records["run_a"], records["run_b"]
        if args.json:
            import json as _json

            rows = regress.diff_records(rec_a, rec_b)
            print(_json.dumps({
                "a": rec_a, "b": rec_b,
                "rows": [{"metric": m, "a": a, "b": b, "delta": d}
                         for m, a, b, d in rows],
            }, sort_keys=True))
            return 0
        for tag, rec in (("A", rec_a), ("B", rec_b)):
            print(f"{tag}: {str(rec.get('run_id'))[:12]}  {when(rec)}  "
                  f"{rec.get('cell') or rec.get('kind')}  "
                  f"git {str(rec.get('git_sha') or '-')[:8]}  "
                  f"model v{rec.get('model_version', '?')}"
                  f"{'  (cached)' if rec.get('cached') else ''}")
        rows = regress.diff_records(rec_a, rec_b)
        print(format_table(["metric", "A", "B", "B vs A"], rows))
        return 0

    if args.obs_command == "regress":
        baseline_path = args.baseline or regress.default_baseline_path()
        try:
            baseline = regress.load_baseline(baseline_path)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot load baseline "
                             f"{baseline_path}: {exc}")
        report = regress.check(
            ledger.records(), baseline,
            tolerances=_parse_tolerances(args.tolerance),
            ignore_model_version=args.ignore_model_version)
        print(f"baseline: {baseline_path}")
        print(f"ledger:   {ledger.path}")
        print(report.render())
        return 0 if report.ok else 1

    if args.obs_command == "report":
        records = ledger.records()
        if args.limit:
            records = records[-args.limit:]
        if not records:
            raise SystemExit(f"error: no ledger records in {ledger.path}")
        htmlreport.write_html(records, args.html, title=args.title)
        print(f"wrote {args.html} ({len(records)} records, "
              "self-contained HTML)")
        return 0

    # baseline
    records = ledger.records()
    if not any(r.get("kind") == "run" for r in records):
        raise SystemExit(f"error: no run records in {ledger.path}; "
                         "run a compare/experiment first")
    baseline = regress.make_baseline(
        records, tolerances=_parse_tolerances(args.tolerance) or None)
    output = args.output or regress.default_baseline_path()
    regress.save_baseline(baseline, output)
    print(f"wrote baseline {output}: {len(baseline['cells'])} cells"
          + (", bench figures" if baseline.get("bench") else "")
          + f" (model v{baseline['model_version']})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.gpu.tracefile import dump_traces, flatten_machine_traces

    config = bench_config()
    gen_ctx = bench_gen_ctx(config, scale=args.scale, seed=args.seed)
    workload = make_workload(args.workload)
    traces = flatten_machine_traces(workload.build(gen_ctx))
    with open(args.output, "w") as fh:
        count = dump_traces(traces, fh, workload=args.workload)
    print(f"wrote {count} warp traces to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report

    text = build_report(args.results_dir)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_list() -> int:
    print("workloads: " + ", ".join(WORKLOADS))
    print("extra workloads: " + ", ".join(
        sorted(set(WORKLOAD_REGISTRY) - set(WORKLOADS))))
    print("schemes: " + ", ".join(ALL_SCHEMES))
    print("experiments: " + ", ".join(sorted(EXPERIMENTS)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``cachecraft-sim`` console script."""
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "obs":
        return _cmd_obs(args)
    return _cmd_list()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
