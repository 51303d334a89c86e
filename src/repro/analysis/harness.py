"""Run matrices of simulations with consistent sizing.

The benchmark configuration is deliberately smaller than the default
machine (4 SMs, 1 MiB L2, 4 channels, scale 0.3) so a full
(14 workloads x 6 schemes) matrix finishes in minutes of host time
while keeping the capacity ratios that drive the results.  Every
experiment runs through :class:`ExperimentHarness` so results are
cached per (workload, scheme, config) within a process.
"""

from __future__ import annotations

import math
import os
import tempfile
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from repro.analysis.result_cache import (ResultCache, cache_key,
                                         trace_digest_for)
from repro.core.config import ALL_SCHEMES, FIDELITIES, SystemConfig
from repro.core.results import RunResult
from repro.core.system import materialize_l2_replay, run_workload
from repro.obs.ledger import RunLedger, record_from_result, resolve_ledger
from repro.obs.progress import ProgressWriter
from repro.obs.structlog import NullLog, resolve_log, run_context
from repro.protection.base import scheme_class
from repro.sim.engine import Watchdog
from repro.workloads import make_workload
from repro.workloads.base import RECORD_CACHE_CAPACITY, GenContext, Workload


def bench_config(**gpu_overrides) -> SystemConfig:
    """The standard benchmark machine (Table T1's 'simulated' column)."""
    defaults = dict(num_sms=4, warps_per_sm=8, l2_size_kb=1024, num_slices=4)
    defaults.update(gpu_overrides)
    return SystemConfig().with_gpu(**defaults)


def bench_gen_ctx(config: SystemConfig, scale: float = 0.3,
                  seed: int = 42) -> GenContext:
    """A GenContext matching a config's machine shape."""
    gpu = config.gpu
    return GenContext(num_sms=gpu.num_sms, warps_per_sm=gpu.warps_per_sm,
                      lanes=gpu.lanes, seed=seed, scale=scale,
                      line_bytes=gpu.line_bytes, sector_bytes=gpu.sector_bytes)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the standard cross-workload summary)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


class ExperimentHarness:
    """Runs and caches (workload, scheme) simulations."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 scale: float = 0.3, seed: int = 42,
                 workload_params: Optional[Dict[str, dict]] = None,
                 obs_factory: Optional[Callable[[str, str], object]] = None,
                 max_events: Optional[int] = 50_000_000,
                 max_wall_seconds: Optional[float] = None,
                 cache_dir: Union[None, str, os.PathLike,
                                  ResultCache] = None,
                 ledger: Union[None, bool, str, os.PathLike,
                               RunLedger] = None,
                 ledger_label: str = "harness",
                 fidelity: str = "event",
                 log: Union[None, bool, str, os.PathLike, NullLog] = None,
                 progress_dir: Union[None, str, os.PathLike] = None):
        if fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {fidelity!r}; known: {FIDELITIES}")
        self.config = config or bench_config()
        self.scale = scale
        self.seed = seed
        #: Simulation tier for every cell this harness runs:
        #: ``"event"`` (timed) or ``"functional"`` (counters only, much
        #: faster — see :mod:`repro.sim.functional`).  Counter parity
        #: between the tiers is exact, so traffic-only analyses can use
        #: ``"functional"`` freely; anything reading ``cycles`` or
        #: latency needs ``"event"``.
        self.fidelity = fidelity
        self.workload_params = workload_params or {}
        #: Optional ``(workload, scheme) -> Observability`` hook; each
        #: uncached run gets its own hub (hubs bind to one system).
        self.obs_factory = obs_factory
        #: Safety valves: a misconfigured workload raises
        #: :class:`~repro.sim.engine.SimulationError` instead of
        #: spinning forever.  ``None`` disables either guard.
        self.max_events = max_events
        self.max_wall_seconds = max_wall_seconds
        #: Optional persistent result store (see
        #: :mod:`repro.analysis.result_cache`): pass a directory (or a
        #: :class:`ResultCache`) to reuse results across processes and
        #: sessions.  Observed runs (``obs_factory``) bypass it — their
        #: results carry run-specific latency attribution, and the
        #: observers themselves must actually run.
        self.result_cache: Optional[ResultCache] = (
            cache_dir if isinstance(cache_dir, ResultCache)
            else ResultCache(cache_dir) if cache_dir is not None
            else None)
        #: Cross-run telemetry ledger (see :mod:`repro.obs.ledger`):
        #: every cell this harness resolves — simulated or pulled from
        #: the persistent cache — appends one provenance record, once
        #: per harness.  ``None``/``True`` uses the environment default
        #: (``REPRO_LEDGER=off`` disables); ``False`` opts out.
        self.ledger: Optional[RunLedger] = resolve_ledger(ledger)
        self.ledger_label = ledger_label
        self._ledger_logged: set = set()
        #: Structured event log (see :mod:`repro.obs.structlog`):
        #: cell lifecycle, cache traffic and parallel fan-out narrate
        #: into a JSONL file shared by every process of the run.
        #: ``None``/``True`` uses the environment default
        #: (``REPRO_LOG``); ``False`` opts out.
        self.log = resolve_log(log)
        if self.log.enabled:
            self.log = self.log.bind(**run_context(
                run=ledger_label, fidelity=fidelity))
        #: Live progress channel (see :mod:`repro.obs.progress`): when
        #: a progress directory is given, every cell's lifecycle is
        #: mirrored there for ``obs top`` / ``--live`` rendering.
        self.progress: Optional[ProgressWriter] = (
            ProgressWriter(progress_dir, role="parent")
            if progress_dir else None)
        if self.result_cache is not None and self.log.enabled:
            self.result_cache.log = self.log
        #: Simulations actually executed by this harness (cache hits,
        #: in-memory or persistent, do not count).
        self.sims_run = 0
        self._cache: Dict[Tuple, RunResult] = {}

    def _gen_ctx(self, config: SystemConfig) -> GenContext:
        return bench_gen_ctx(config, scale=self.scale, seed=self.seed)

    def _apply_fidelity(self, cfg: SystemConfig) -> SystemConfig:
        return cfg if cfg.fidelity == self.fidelity \
            else cfg.with_fidelity(self.fidelity)

    def _build_workload(self, name: str) -> Workload:
        return make_workload(name, **self.workload_params.get(name, {}))

    # -- result caching -----------------------------------------------------

    def _mem_key(self, workload: str, cfg: SystemConfig) -> Tuple:
        return (workload, cfg.protection.scheme, cfg, self.scale, self.seed,
                tuple(sorted(self.workload_params.get(workload, {}).items())))

    def _store(self) -> Optional[ResultCache]:
        """The persistent cache this harness reads and writes, if any."""
        return self.result_cache if self.obs_factory is None else None

    def _persistent_key(self, workload: str,
                        cfg: SystemConfig) -> Optional[str]:
        """The cell's content hash, computed once per cell: its
        result-cache address and its ledger record's ``config_key``
        (None when neither store is in use)."""
        store = self._store()
        if store is None and self.ledger is None:
            return None
        args = (workload, cfg, self.scale, self.seed,
                self.workload_params.get(workload, {}))
        digest = trace_digest_for(self._build_workload(workload),
                                  self._gen_ctx(cfg), cfg)
        if store is None:
            return cache_key(*args, trace_digest=digest)
        return store.key_for(*args, trace_digest=digest)

    def _lookup(self, workload: str, cfg: SystemConfig
                ) -> Tuple[Tuple, Optional[str], Optional[RunResult]]:
        """``(memory key, persistent key, cached result or None)`` for
        one cell: the in-memory dict, then the persistent cache.  A
        persistent hit is kept in memory and recorded in the ledger."""
        key = self._mem_key(workload, cfg)
        result = self._cache.get(key)
        if result is not None:
            # Its ledger record went out when it was first resolved.
            return key, None, result
        pkey = self._persistent_key(workload, cfg)
        store = self._store()
        result = store.get(pkey) if store is not None else None
        if result is not None:
            cell_id = f"{workload}/{cfg.protection.scheme}"
            self.log.info("cell.cached", cell=cell_id, source="persistent")
            if self.progress is not None:
                self.progress.cell(cell_id, "cached")
            self._cache[key] = result
            self._ledger_record(result, True, key, pkey)
        return key, pkey, result

    def _keep(self, workload: str, cfg: SystemConfig, key: Tuple,
              pkey: Optional[str], result: RunResult) -> None:
        """The store step for a simulated cell: count it, keep it in
        memory and in the persistent cache, record it in the ledger."""
        self.sims_run += 1
        store = self._store()
        if store is not None:
            store.put(pkey, result,
                      meta={"workload": workload,
                            "scheme": cfg.protection.scheme,
                            "scale": self.scale, "seed": self.seed})
        self._cache[key] = result
        self._ledger_record(result, False, key, pkey)

    def _ledger_record(self, result: RunResult, cached: bool, key: Tuple,
                       pkey: Optional[str]) -> None:
        """Append one ledger record per cell per harness (a failing
        ledger never fails the experiment)."""
        if self.ledger is None or key in self._ledger_logged:
            return
        self._ledger_logged.add(key)
        self.ledger.safe_append(record_from_result(
            result, label=self.ledger_label, config_key=pkey,
            scale=self.scale, seed=self.seed, cached=cached,
            log_path=str(self.log.path) if self.log.enabled else None))

    def run(self, workload: str, scheme: str,
            config: Optional[SystemConfig] = None, **protection_overrides
            ) -> RunResult:
        """Run (or fetch from cache) one simulation."""
        cfg = self._apply_fidelity(
            (config or self.config).with_scheme(scheme,
                                                **protection_overrides))
        key, pkey, result = self._lookup(workload, cfg)
        if result is not None:
            return result
        cell_id = f"{workload}/{scheme}"
        log = self.log.bind(cell=cell_id) if self.log.enabled else self.log
        log.info("cell.start", scale=self.scale, seed=self.seed)
        if self.progress is not None:
            self.progress.cell(cell_id, "start")
        obs = self.obs_factory(workload, scheme) if self.obs_factory else None
        try:
            result = run_workload(
                self._build_workload(workload), cfg,
                gen_ctx=self._gen_ctx(cfg), obs=obs,
                max_events=self.max_events,
                watchdog=Watchdog(max_wall_seconds=self.max_wall_seconds))
        except Exception as exc:
            log.error("cell.failed", error=f"{type(exc).__name__}: {exc}")
            if self.progress is not None:
                self.progress.cell(cell_id, "failed",
                                   error=f"{type(exc).__name__}: {exc}")
            raise
        log.info("cell.done", cycles=result.cycles,
                 events=int(result.events_executed),
                 host_seconds=round(result.host_seconds, 3))
        if self.progress is not None:
            self.progress.cell(cell_id, "done",
                               events=int(result.events_executed),
                               host_seconds=round(result.host_seconds, 3))
        self._keep(workload, cfg, key, pkey, result)
        return result

    def run_campaign(self, workloads: Sequence[str],
                     schemes: Sequence[str] = ALL_SCHEMES,
                     journal_path: str = "campaign.jsonl",
                     workers: int = 2, timeout: Optional[float] = None,
                     max_attempts: int = 2, resume: bool = True,
                     resilience: Optional[dict] = None,
                     max_events: Optional[int] = None,
                     retry_backoff: float = 0.5,
                     retry_backoff_max: float = 30.0,
                     degrade: bool = False,
                     progress=None):
        """Run the workload x scheme grid as a resumable campaign.

        The same runner as a parallel :meth:`matrix`, but the JSONL
        journal at ``journal_path`` is kept, so a killed campaign
        resumes with only the unfinished cells.  Each cell runs in its
        own worker process with a timeout; failures are classified
        (transient / persistent / crash-looping) and retried with
        jittered backoff or quarantined.  ``degrade=True`` rescues a
        cell that exhausts its budget with one functional-tier attempt.
        Cells run on this harness's machine, scale, seed and workload
        parameters.  Returns a
        :class:`repro.resilience.campaign.CampaignSummary`.
        """
        # Imported lazily: in-process experiments never need the runner.
        from repro.resilience.campaign import CampaignRunner, build_cells

        if self.fidelity != "event":
            raise ValueError(
                "run_campaign needs fidelity='event': campaigns exist to "
                "exercise fault injection/recovery, which is timed")

        cells = build_cells(
            workloads, schemes, config=self._apply_fidelity(self.config),
            scale=self.scale, seed=self.seed,
            workload_params=self.workload_params, resilience=resilience,
            max_events=max_events if max_events is not None
            else self.max_events,
            max_wall_seconds=self.max_wall_seconds)
        runner = CampaignRunner(
            journal_path, workers=workers, timeout=timeout,
            max_attempts=max_attempts, retry_backoff=retry_backoff,
            retry_backoff_max=retry_backoff_max, degrade=degrade,
            ledger=self.ledger, log=self.log,
            progress_dir=(self.progress.dir if self.progress is not None
                          else None))
        return runner.run(cells, resume=resume, progress=progress)

    def matrix(self, workloads: Sequence[str],
               schemes: Sequence[str] = ALL_SCHEMES,
               config: Optional[SystemConfig] = None,
               workers: Optional[int] = None
               ) -> Dict[str, Dict[str, RunResult]]:
        """``{workload: {scheme: result}}`` for a full grid.

        ``workers=N`` (N > 1) hands the cells no cache holds to a
        :class:`~repro.resilience.campaign.CampaignRunner` with N
        forked workers and a temporary journal, so a dying or hung
        worker costs only its own cell and gets the runner's retries
        and quarantine.  Each cell runs the exact same simulation the
        serial path would, so the returned results are identical
        (modulo ``host_seconds``, which measures the wall clock);
        iteration order of the returned dicts matches the serial path
        regardless of completion order.  Cells are looked up and
        stored exactly as :meth:`run` does, in the same in-memory and
        persistent caches and ledger.  If a cell fails or is
        quarantined, or its cache key cannot be computed, the healthy
        cells are stored and then ``RuntimeError`` names the lost ones.
        """
        workloads, schemes = list(workloads), list(schemes)
        if self.progress is not None:
            self.progress.plan(len(workloads) * len(schemes),
                               label=self.ledger_label)
        if workers is None or workers <= 1:
            return {
                wl: {sc: self.run(wl, sc, config=config) for sc in schemes}
                for wl in workloads
            }
        if self.obs_factory is not None:
            raise ValueError(
                "parallel matrix cannot observe runs (obs hubs bind to "
                "in-process systems); use workers=1 with obs_factory")
        # Imported lazily: in-process experiments never need the runner.
        from repro.resilience.campaign import (CampaignRunner,
                                               CampaignSummary, build_cells)

        grid: Dict[str, Dict[str, RunResult]] = {wl: {} for wl in workloads}
        misses: Dict[str, Tuple[Tuple, Optional[str]]] = {}
        specs = []
        lost: Dict[str, str] = {}  # cell -> error, for every lost cell
        for spec in build_cells(
                workloads, schemes,
                config=self._apply_fidelity(config or self.config),
                scale=self.scale, seed=self.seed,
                workload_params=self.workload_params,
                max_events=self.max_events,
                max_wall_seconds=self.max_wall_seconds):
            try:
                key, pkey, result = self._lookup(spec["workload"],
                                                 spec["config"])
            except Exception as exc:
                # A functional cell's key compiles its trace: a generator
                # that raises loses its cell, as a failed worker does.
                error = lost[spec["cell"]] = f"{type(exc).__name__}: {exc}"
                self.log.error("cell.failed", cell=spec["cell"], error=error)
                if self.progress is not None:
                    self.progress.cell(spec["cell"], "failed", error=error)
                continue
            if result is None:
                misses[spec["cell"]] = (key, pkey)
                specs.append(spec)
            else:
                grid[spec["workload"]][spec["scheme"]] = result
        attempted = len(specs) + len(lost)
        if specs:
            self._share_l2_replays(specs, misses)
            summary = CampaignSummary()
            with tempfile.TemporaryDirectory(prefix="repro-matrix-") as tmp:
                runner = CampaignRunner(
                    os.path.join(tmp, "journal.jsonl"), workers=workers,
                    log=self.log,
                    progress_dir=(self.progress.dir
                                  if self.progress is not None else None))
                for spec, result in runner.completions(specs, summary,
                                                       resume=False):
                    self._keep(spec["workload"], spec["config"],
                               *misses[spec["cell"]], result)
                    grid[spec["workload"]][spec["scheme"]] = result
            for cell in summary.failed + summary.quarantined:
                lost[cell] = summary.records[cell].get("error")
        if lost:
            raise RuntimeError(
                f"{len(lost)} of {attempted} parallel cells did not "
                "complete: " + "; ".join(
                    f"{cell} ({error})" for cell, error in lost.items()))
        return {wl: {sc: grid[wl][sc] for sc in schemes}
                for wl in workloads}

    def _share_l2_replays(self, specs: Sequence[Dict],
                          misses: Dict[str, Tuple[Tuple, Optional[str]]]
                          ) -> None:
        """Before a parallel grid forks its workers: memoize here
        (:func:`~repro.core.system.materialize_l2_replay`) the L2
        recording of each functional trace that two or more of
        ``specs`` replay under L2-transparent schemes, so that their
        workers inherit it and each replays its scheme alone.  Only
        traces this process compiled to key their cells are recorded
        (a generator runs here only where the key already ran it), at
        most as many as the record memo holds.  A trace that fails here
        is left to its workers, which report the failure per cell."""
        counts: Dict[str, int] = {}
        for spec in specs:
            if (spec["config"].fidelity == "functional"
                    and misses[spec["cell"]][1] is not None
                    and scheme_class(spec["scheme"]).l2_transparent):
                counts[spec["workload"]] = counts.get(spec["workload"], 0) + 1
        shared = [wl for wl, count in counts.items() if count >= 2]
        configs = {spec["workload"]: spec["config"] for spec in specs}
        for workload in shared[:RECORD_CACHE_CAPACITY]:
            config = configs[workload]
            try:
                materialize_l2_replay(self._build_workload(workload),
                                      config, self._gen_ctx(config))
            except Exception as exc:  # noqa: BLE001 - its workers report it
                self.log.warn("matrix.share_failed", workload=workload,
                              error=f"{type(exc).__name__}: {exc}")

    def normalized_performance(self, workloads: Sequence[str],
                               schemes: Sequence[str] = ALL_SCHEMES,
                               baseline: str = "none",
                               workers: Optional[int] = None
                               ) -> Dict[str, Dict[str, float]]:
        """Per-workload performance of each scheme relative to baseline,
        plus a ``geomean`` pseudo-workload row.

        ``baseline`` need not be in ``schemes``: it is then run
        implicitly as the denominator and omitted from the output rows.
        """
        run_schemes = list(schemes)
        if baseline not in run_schemes:
            run_schemes.append(baseline)
        grid = self.matrix(workloads, run_schemes, workers=workers)
        out: Dict[str, Dict[str, float]] = {}
        for wl in workloads:
            by_scheme = grid[wl]
            base = by_scheme[baseline]
            out[wl] = {sc: by_scheme[sc].performance_vs(base)
                       for sc in schemes}
        out["geomean"] = {
            sc: geomean(out[wl][sc] for wl in workloads) for sc in schemes
        }
        return out


def compare_schemes(workload: str,
                    schemes: Sequence[str] = ALL_SCHEMES,
                    config: Optional[SystemConfig] = None,
                    scale: float = 0.3, seed: int = 42,
                    obs_factory: Optional[Callable[[str, str], object]] = None,
                    workers: Optional[int] = None,
                    cache_dir: Union[None, str, os.PathLike,
                                     ResultCache] = None,
                    harness: Optional[ExperimentHarness] = None,
                    ledger: Union[None, bool, str, os.PathLike,
                                  RunLedger] = None,
                    fidelity: str = "event",
                    log: Union[None, bool, str, os.PathLike,
                               NullLog] = None,
                    progress_dir: Union[None, str, os.PathLike] = None
                    ) -> List[dict]:
    """One-call scheme comparison for a single workload.

    Returns a list of row dicts (scheme, norm_perf, cycles, dram_bytes,
    overhead_bytes) normalized to the first scheme in ``schemes``.
    ``obs_factory`` (``(workload, scheme) -> Observability``) lets the
    caller observe each per-scheme run independently.  ``workers`` and
    ``cache_dir`` enable parallel execution and persistent result reuse
    (see :class:`ExperimentHarness`); pass a prebuilt ``harness`` to
    inspect its cache counters afterwards.

    ``fidelity="functional"`` runs the traffic-only tier: byte counters
    are identical to event mode, but there is no timing, so
    ``norm_perf`` is ``None`` and ``cycles`` is 0 in every row.
    """
    if harness is None:
        harness = ExperimentHarness(config=config, scale=scale, seed=seed,
                                    obs_factory=obs_factory,
                                    cache_dir=cache_dir, ledger=ledger,
                                    fidelity=fidelity, log=log,
                                    progress_dir=progress_dir)
    grid = harness.matrix([workload], schemes, workers=workers)
    results = [grid[workload][scheme] for scheme in schemes]
    base = results[0]
    timed = all(r.fidelity == "event" for r in results)
    rows = []
    for result in results:
        rows.append({
            "scheme": result.scheme,
            "norm_perf": result.performance_vs(base) if timed else None,
            "cycles": result.cycles,
            "dram_bytes": result.total_dram_bytes,
            "overhead_bytes": result.overhead_bytes,
        })
    return rows
