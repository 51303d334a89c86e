"""The simulation side of one campaign cell.

:class:`~repro.resilience.campaign.CampaignRunner` forks one worker
process per attempt and runs :func:`run_cell_result` in it on a cell
spec built by :func:`~repro.resilience.campaign.build_cells`.  The
process boundary is the isolation mechanism: a crash, hang or
interpreter fault in one cell cannot take down the runner.

``sabotage`` in a spec is a test hook for exercising the runner's
fault handling: ``"hang"`` sleeps forever (runner timeout must kill
it), ``"crash"`` exits hard with a non-zero status, and
``"livelock"`` schedules a zero-delay self-rescheduling event so the
engine watchdog fires.

``chaos_attempt`` (campaign-global attempt number, stamped by the
runner only while a :mod:`repro.resilience.chaos` policy is active)
arms the host-fault seam at the top of :func:`run_cell_result`.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict, Optional

from repro.analysis.harness import bench_gen_ctx
from repro.core.results import RunResult
from repro.core.system import GpuSystem
from repro.obs.progress import (HeartbeatThread, ProgressWriter,
                                heartbeat_interval)
from repro.obs.structlog import NULL_LOG, NullLog
from repro.resilience.chaos import active_chaos
from repro.sim.engine import Watchdog
from repro.workloads import make_workload


def _chaos_seam(spec: Dict[str, Any], log) -> None:
    """Host-fault injection point for one worker attempt.

    Only specs carrying ``chaos_attempt`` (stamped by the runner per
    spawn, numbered across retries and resumes) are attacked —
    degraded rescue attempts are deliberately exempt.
    """
    chaos = active_chaos()
    attempt = int(spec.get("chaos_attempt") or 0)
    if chaos is None or attempt <= 0:
        return
    fault = chaos.worker_fault(spec["cell"], attempt)
    if fault == "kill":
        log.warn("chaos.worker.kill", attempt=attempt)
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault == "hang":
        log.warn("chaos.worker.hang", attempt=attempt)
        time.sleep(3600)
    elif fault == "slow":
        log.warn("chaos.worker.slow", attempt=attempt,
                 seconds=chaos.slow_seconds)
        time.sleep(chaos.slow_seconds)


def run_cell_result(spec: Dict[str, Any], log: NullLog = NULL_LOG,
                    progress_dir: Optional[str] = None) -> RunResult:
    """Run one cell spec and return its
    :class:`~repro.core.results.RunResult`.

    ``log`` and ``progress_dir`` are the runner's telemetry channels:
    the cell's lifecycle is narrated into the structured log and, with
    a progress directory, into this process's progress file plus a
    heartbeat while it runs.
    """
    cell_id = spec["cell"]
    log = log.bind(cell=cell_id, role="worker")
    progress = (ProgressWriter(progress_dir, role="worker")
                if progress_dir else None)
    sabotage = spec.get("sabotage")
    log.info("worker.cell.start", sabotage=sabotage)
    heartbeat = None
    if progress is not None:
        # Lifecycle + liveness: the start record marks the cell
        # in-flight, the heartbeat thread keeps this pid fresh; a hang
        # from here on shows up as a stale worker in `obs top`.
        progress.cell(cell_id, "start")
        heartbeat = HeartbeatThread(progress, heartbeat_interval()).start()
    try:
        # Chaos fires after the progress/heartbeat start records, so a
        # killed or hung worker is visible in `obs top` exactly like a
        # real host fault would be.
        _chaos_seam(spec, log)
        if sabotage == "hang":
            time.sleep(3600)
        elif sabotage == "crash":
            os._exit(13)

        config = spec["config"]
        system = GpuSystem(config)
        workload = make_workload(spec["workload"],
                                 **spec.get("workload_params", {}))
        gen_ctx = bench_gen_ctx(config, scale=spec["scale"],
                                seed=spec["seed"])
        system.load_workload(workload, gen_ctx)

        if sabotage == "livelock":
            def spin() -> None:
                """Reschedule forever at the same cycle (watchdog bait)."""
                system.sim.schedule(0, spin)
            system.sim.schedule(0, spin)

        watchdog = Watchdog(max_wall_seconds=spec.get("max_wall_seconds"))
        started = time.perf_counter()
        cycles = system.run(max_events=spec.get("max_events"),
                            watchdog=watchdog)
        host_seconds = time.perf_counter() - started
        result = system.result(workload.name, cycles, host_seconds)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        if "watchdog" in str(exc):
            log.warn("worker.watchdog_fire", error=error)
        log.error("worker.cell.failed", error=error)
        if progress is not None:
            progress.cell(cell_id, "failed", error=error)
        raise
    finally:
        if heartbeat is not None:
            heartbeat.stop()
    log.info("worker.cell.done", cycles=result.cycles,
             events=int(result.events_executed),
             host_seconds=round(result.host_seconds, 3))
    if progress is not None:
        progress.cell(cell_id, "done",
                      events=int(result.events_executed),
                      host_seconds=round(result.host_seconds, 3))
    return result
