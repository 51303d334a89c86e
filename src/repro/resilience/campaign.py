"""Resilient campaign runner: forked workers with checkpoint/resume.

A *campaign* is a list of cell specs (see :func:`build_cells`).  The
:class:`CampaignRunner` is the repo's only cell executor — ``repro
campaign``, :meth:`~repro.analysis.harness.ExperimentHarness.run_campaign`
and every parallel :meth:`~repro.analysis.harness.ExperimentHarness.matrix`
(``compare --workers``) run through it.  Each attempt is one forked
worker process that runs :func:`repro.resilience.worker.run_cell_result`
and sends the full :class:`~repro.core.results.RunResult` back over a
pipe; the parent builds the journal summary and the ledger record from
it.  The runner adds:

* **crash isolation** — a worker that dies (segfault, ``os._exit``,
  SIGKILL) fails only its own cell;
* **per-run timeouts** — a hung worker is killed after ``timeout``
  host seconds;
* **a failure taxonomy** — every failure is classified:

  - *transient* (the process died without a word: signal, hard exit,
    timeout) — retried up to ``max_attempts`` times with exponential
    backoff, a configurable cap (``retry_backoff_max``) and
    deterministic per-cell jitter so retry stampedes desynchronize;
  - *persistent* (the worker caught its own exception and sent it as
    an error message) — retried a bounded number of times (at most
    :attr:`CampaignRunner.persistent_max_attempts`) regardless of
    ``max_attempts``, because the same input will keep producing the
    same error;
  - *crash-looping* (every attempt died transiently, two or more
    times) — the cell is **quarantined**: journaled as
    ``status="quarantined"``, skipped by future resumes, surfaced in
    :class:`CampaignSummary`, ``obs top`` and the session ledger
    record.  ``repro fsck --repair`` releases quarantines, which is
    the operator's explicit "try again" signal;

* **graceful degradation** — with ``degrade=True``, a cell that
  exhausts its attempt budget (and carries no resilience config) gets
  one final rescue attempt on the functional fidelity tier,
  flagged ``degraded`` in the journal and ledger provenance;
* **a JSONL journal** — one fsynced, checksummed record per outcome
  via the shared :func:`~repro.obs.structlog.append_jsonl` path.
  Re-running with ``resume=True`` skips every cell the journal
  already marks ``done`` (or ``quarantined``), so a campaign killed
  mid-flight completes only the unfinished cells.  The journal also
  carries per-cell attempt counts across resumes, which keeps
  deterministic chaos (:mod:`repro.resilience.chaos`) drawing fresh
  fault decisions instead of re-dooming the same attempt forever.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from repro.analysis.harness import bench_config
from repro.core.config import ResilienceConfig, SystemConfig
from repro.core.results import RunResult
from repro.obs.progress import ProgressWriter
from repro.obs.structlog import (NullLog, append_jsonl, read_jsonl,
                                 resolve_log, run_context)
from repro.resilience.chaos import active_chaos, stream_unit
from repro.resilience.faults import make_process
from repro.resilience.recovery import RecoveryPolicy
from repro.resilience.worker import run_cell_result


def build_cells(workloads: Sequence[str], schemes: Sequence[str],
                config: Optional[SystemConfig] = None,
                scale: float = 0.3, seed: int = 42,
                workload_params: Optional[Dict[str, dict]] = None,
                protection: Optional[Dict[str, Any]] = None,
                resilience: Optional[Dict[str, Any]] = None,
                max_events: Optional[int] = None,
                max_wall_seconds: Optional[float] = None,
                sabotage: Optional[Dict[str, str]] = None
                ) -> List[Dict[str, Any]]:
    """The workload x scheme grid as a list of cell specs.

    Each spec carries its fully built :class:`SystemConfig` under
    ``"config"``: the machine ``config`` (default :func:`bench_config`)
    with the cell's scheme, the ``protection`` overrides and the
    ``resilience`` description (``recovery`` policy fields,
    ``fault_processes`` dicts, ``inject_seed``, ``inject_interval``).
    ``workload_params`` maps workload names to generator parameters.
    ``sabotage`` maps cell ids (``"workload/scheme"``) to a sabotage
    mode — a testing aid for exercising the runner's fault handling.
    """
    machine = config or bench_config()
    if resilience is not None:
        machine = machine.with_resilience(ResilienceConfig(
            recovery=RecoveryPolicy(**resilience.get("recovery", {})),
            fault_processes=tuple(
                make_process(**dict(p))
                for p in resilience.get("fault_processes", ())),
            inject_seed=resilience.get("inject_seed", 1),
            inject_interval=resilience.get("inject_interval", 500),
        ))
    cells = []
    for workload in workloads:
        params = (workload_params or {}).get(workload)
        for scheme in schemes:
            cell_id = f"{workload}/{scheme}"
            spec: Dict[str, Any] = {
                "cell": cell_id, "workload": workload, "scheme": scheme,
                "scale": scale, "seed": seed,
                "config": machine.with_scheme(scheme, **(protection or {})),
            }
            if params:
                spec["workload_params"] = dict(params)
            if max_events is not None:
                spec["max_events"] = max_events
            if max_wall_seconds is not None:
                spec["max_wall_seconds"] = max_wall_seconds
            if sabotage and cell_id in sabotage:
                spec["sabotage"] = sabotage[cell_id]
            cells.append(spec)
    return cells


def result_summary(cell: Dict[str, Any], result: RunResult,
                   degraded: bool = False) -> Dict[str, Any]:
    """The JSON summary of one finished cell: the ``result`` of its
    journal record and its entry in :attr:`CampaignSummary.records`."""
    out = {
        "cell": cell["cell"],
        "status": "ok",
        "workload": result.workload,
        "scheme": cell["scheme"],
        "fidelity": result.fidelity,
        "cycles": result.cycles,
        "traffic": result.traffic,
        "resilience": {k: v for k, v in result.stats.items()
                       if k.startswith(("resilience.", "injector."))},
        "host_seconds": round(result.host_seconds, 3),
    }
    if degraded:
        out["degraded"] = True
    return out


def _serve(conn, spec: Dict[str, Any], log: NullLog,
           progress_dir: Optional[str]) -> None:
    """Worker process body: run one cell and send the parent exactly
    one message, ``("ok", RunResult)`` or ``("error", description)``.
    A worker that dies before sending reads as EOF in the parent."""
    try:
        message = ("ok", run_cell_result(spec, log, progress_dir))
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        message = ("error", f"{type(exc).__name__}: {exc}")
    conn.send(message)
    conn.close()
    # Leave without the interpreter's exit steps: they would flush the
    # parent's stdio buffers, whose locks another parent thread (the
    # --live renderer) may have held at the fork.
    os._exit(0)


@dataclass
class CampaignSummary:
    """Outcome of one :meth:`CampaignRunner.run` (or
    :meth:`~CampaignRunner.completions`) invocation."""

    done: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    #: Cells skipped because the journal already marked them done.
    skipped: List[str] = field(default_factory=list)
    #: Crash-looping cells parked on the journal-backed quarantine
    #: list (this run or a prior one); not retried until released.
    quarantined: List[str] = field(default_factory=list)
    #: Cells rescued by the graceful-degradation hook (functional
    #: tier); they also appear in :attr:`done`.
    degraded: List[str] = field(default_factory=list)
    #: Final journal record per executed cell id.
    records: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no cell ended in failure or quarantine."""
        return not self.failed and not self.quarantined


class _Running:
    """Bookkeeping for one in-flight worker process."""

    def __init__(self, cell: Dict[str, Any], attempt: int, proc, conn,
                 deadline: Optional[float], degraded: bool = False):
        self.cell = cell
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.deadline = deadline
        self.degraded = degraded
        self.started = time.monotonic()


class CampaignRunner:
    """Fans cell specs out to forked workers; journals outcomes."""

    #: Attempt ceiling for *persistent* failures (the worker ran and
    #: reported its own error): the same input keeps producing the
    #: same error, so retrying past this is waste.
    persistent_max_attempts = 2

    #: Minimum transient-failure count before a cell is declared
    #: crash-looping and quarantined rather than plain-failed.
    quarantine_after = 2

    def __init__(self, journal_path: str, workers: int = 2,
                 timeout: Optional[float] = None, max_attempts: int = 2,
                 retry_backoff: float = 0.5,
                 retry_backoff_max: float = 30.0,
                 degrade: bool = False,
                 ledger=None,
                 log: Union[None, bool, str, os.PathLike, NullLog] = None,
                 progress_dir: Union[None, str, os.PathLike] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if retry_backoff_max <= 0:
            raise ValueError("retry_backoff_max must be > 0")
        self.journal_path = Path(journal_path)
        self.workers = workers
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.degrade = degrade
        #: Structured event log (:mod:`repro.obs.structlog`); workers
        #: narrate into the same file, so one log tells the whole
        #: campaign across processes.
        self.log = resolve_log(log)
        if self.log.enabled:
            self.log = self.log.bind(**run_context(run="campaign",
                                                   role="parent"))
        #: Live progress channel (:mod:`repro.obs.progress`): the
        #: parent journals plan/retry/timeout/failure transitions — it
        #: is the authority on outcomes — while workers contribute
        #: their own start/done records and heartbeats to the same
        #: directory.
        self.progress: Optional[ProgressWriter] = (
            ProgressWriter(progress_dir, role="parent")
            if progress_dir else None)
        #: Optional cross-run telemetry ledger
        #: (:class:`repro.obs.ledger.RunLedger`).  The parent appends
        #: one record per completed cell on result receipt, so campaign
        #: cells leave the same run-history trail as in-process
        #: experiments.
        self.ledger = ledger
        self._journal_warned = False
        #: Failure-class history per cell for the current invocation.
        self._fail_classes: Dict[str, List[str]] = {}
        #: Journal-derived attempt counts from prior invocations, so
        #: chaos decision sites keep advancing across resumes.
        self._attempt_offset: Dict[str, int] = {}

    # -- journal ---------------------------------------------------------------

    def journal_state(self) -> Tuple[Dict[str, Dict[str, Any]],
                                     Dict[str, Dict[str, Any]],
                                     Dict[str, int]]:
        """Fold the journal into ``(done, quarantined, attempts)``.

        ``done`` and ``quarantined`` map cell ids to their latest
        terminal record (a later ``done`` releases an earlier
        quarantine — fsck rewrote the journal, or an operator reran
        the cell); ``attempts`` carries the highest attempt number
        each cell has burned across all prior invocations.
        """
        done: Dict[str, Dict[str, Any]] = {}
        quarantined: Dict[str, Dict[str, Any]] = {}
        attempts: Dict[str, int] = {}
        for record in read_jsonl(self.journal_path):
            cell = record.get("cell")
            if not cell:
                continue
            n = record.get("attempts")
            if isinstance(n, int):
                attempts[cell] = max(attempts.get(cell, 0), n)
            status = record.get("status")
            if status == "done":
                done[cell] = record
                quarantined.pop(cell, None)
            elif status == "quarantined":
                quarantined[cell] = record
        return done, quarantined, attempts

    def _journal(self, record: Dict[str, Any]) -> None:
        """Append one fsynced journal record (best-effort: a full disk
        must degrade to re-running cells on resume, not kill the
        campaign mid-sweep)."""
        try:
            append_jsonl(self.journal_path, record, fsync=True)
        except OSError as exc:
            if not self._journal_warned:
                self._journal_warned = True
                print(f"warning: campaign journal append to "
                      f"{self.journal_path} failed: {exc}", file=sys.stderr)
            self.log.warn("campaign.journal.append_failed", error=str(exc))

    def retry_delay(self, cell_id: str, attempt: int) -> float:
        """Backoff before retrying ``cell_id`` after failed ``attempt``:
        exponential growth from ``retry_backoff``, capped at
        ``retry_backoff_max``, scaled by a deterministic per-cell
        jitter factor in ``[0.5, 1.5)`` so simultaneous failures do
        not retry in lockstep."""
        base = min(self.retry_backoff * (2 ** (attempt - 1)),
                   self.retry_backoff_max)
        jitter = 0.5 + stream_unit(0, f"jitter:{cell_id}:{attempt}")
        return round(base * jitter, 6)

    @staticmethod
    def classify_failure(result: Dict[str, Any]) -> str:
        """``"transient"`` or ``"persistent"`` for one failed harvest.

        The worker *reporting its own error* (it caught the exception
        and sent it as an error message) means the input is bad in a
        repeatable way — persistent.  Everything else (signal death,
        hard exit without a report, timeout) is the host's fault —
        transient, worth a full retry budget.
        """
        return "persistent" if result.get("worker_reported") \
            else "transient"

    def _degradable(self, cell: Dict[str, Any]) -> bool:
        """Can this cell be rescued on the functional tier?  Only
        event-fidelity cells without a resilience config — the
        functional tier rejects fault injection by design."""
        config = cell["config"]
        return config.resilience is None and config.fidelity == "event"

    def _ledger_append(self, run: _Running, result: RunResult) -> None:
        """Cross-run telemetry for one completed cell (parent-side)."""
        if self.ledger is None:
            return
        # Imported lazily: the ledger is optional equipment here.
        from repro.obs.ledger import record_from_result

        record = record_from_result(result, label="campaign",
                                    scale=run.cell["scale"],
                                    seed=run.cell["seed"])
        if run.degraded:
            record["degraded"] = True
        self.ledger.safe_append(record)

    # -- workers ---------------------------------------------------------------

    def _spawn(self, cell: Dict[str, Any], attempt: int,
               degraded: bool = False) -> _Running:
        spec = cell
        if degraded:
            # Rescue attempts run the counters-only tier and are
            # exempt from worker chaos: the point is to salvage a
            # result, not to keep attacking it.
            spec = dict(cell, config=cell["config"].with_fidelity(
                "functional"))
        elif active_chaos() is not None:
            spec = dict(cell, chaos_attempt=(
                self._attempt_offset.get(cell["cell"], 0) + attempt))
        # Forked, not spawned: a worker starts with the parent's imports
        # and trace memos instead of re-importing the program.  The
        # parent's objects are frozen across the fork so that the
        # worker's garbage collector never walks them, which would copy
        # their pages into the worker.
        fork = multiprocessing.get_context("fork")
        conn, child_conn = fork.Pipe(duplex=False)
        proc = fork.Process(
            target=_serve, daemon=True,
            args=(child_conn, spec, self.log,
                  str(self.progress.dir) if self.progress else None))
        gc.freeze()
        try:
            proc.start()
        finally:
            gc.unfreeze()
        # Only the worker may hold the write end, so that its death
        # reads as EOF.
        child_conn.close()
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        return _Running(cell, attempt, proc, conn, deadline, degraded)

    @staticmethod
    def _harvest(run: _Running) -> Dict[str, Any]:
        """Collect a worker's message, or how it died.

        Error results carry the raw material the failure taxonomy
        classifies on: whether the worker reported its own error
        (ran-but-raised) or died without a word.  A worker that sent
        its message is not waited for here: its exit overlaps the next
        cell, and :meth:`completions` reaps it at the end.
        """
        try:
            status, payload = run.conn.recv()
        except EOFError:
            run.proc.join()
            status = "died"
            payload = f"worker exited with status {run.proc.exitcode}"
        run.conn.close()
        if status == "ok":
            return {"status": "ok", "result": payload}
        return {"status": "error", "error": payload,
                "worker_reported": status == "error"}

    # -- the sweep --------------------------------------------------------------

    def run(self, cells: Sequence[Dict[str, Any]], resume: bool = True,
            progress=None) -> CampaignSummary:
        """Execute a campaign; returns its :class:`CampaignSummary`.

        ``progress`` is an optional callable receiving one line of
        human-readable status per event (spawn/done/fail/retry).
        """
        summary = CampaignSummary()
        for _done in self.completions(cells, summary, resume, progress):
            pass
        return summary

    def completions(self, cells: Sequence[Dict[str, Any]],
                    summary: CampaignSummary, resume: bool = True,
                    progress=None
                    ) -> Iterator[Tuple[Dict[str, Any], RunResult]]:
        """Execute a campaign as :meth:`run` does, filling ``summary``
        and yielding ``(cell, result)`` as each cell completes, so that
        the caller can keep results while the workers still run."""
        started_at = time.monotonic()
        say = progress or (lambda _line: None)
        self._fail_classes = {}
        done, quarantined, self._attempt_offset = (
            self.journal_state() if resume else ({}, {}, {}))
        if not resume and self.journal_path.exists():
            self.journal_path.unlink()
        pending: List[tuple] = []  # (not_before, attempt, cell, degraded)
        for cell in cells:
            cell_id = cell["cell"]
            if cell_id in done:
                summary.skipped.append(cell_id)
                summary.records[cell_id] = done[cell_id]
                if self.progress is not None:
                    # Resumed cells are resolved without simulation —
                    # the campaign analogue of a cache hit.
                    self.progress.cell(cell_id, "cached")
                continue
            if cell_id in quarantined:
                # Journal-backed quarantine: crash-looping cells stay
                # parked until `repro fsck --repair` releases them.
                summary.quarantined.append(cell_id)
                summary.records[cell_id] = quarantined[cell_id]
                if self.progress is not None:
                    self.progress.cell(
                        cell_id, "quarantined",
                        error=quarantined[cell_id].get("error"))
                say(f"QUAR  {cell_id} (quarantined; "
                    f"`repro fsck --repair` releases)")
                continue
            pending.append((0.0, 1, cell, False))
        if self.progress is not None:
            self.progress.plan(len(cells), label="campaign")
        self.log.info("campaign.start", cells=len(cells),
                      skipped=len(summary.skipped),
                      quarantined=len(summary.quarantined),
                      workers=self.workers,
                      journal=str(self.journal_path))
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        running: List[_Running] = []
        spawned: List[_Running] = []
        finished: List[Tuple[_Running, Dict[str, Any]]] = []
        try:
            while pending or running or finished:
                now = time.monotonic()
                # Launch while capacity and due work exist — before
                # settling, so the journal and ledger writes for the
                # last results overlap the new workers.
                while len(running) < self.workers:
                    due = next((i for i, entry in enumerate(pending)
                                if entry[0] <= now), None)
                    if due is None:
                        break
                    _nb, attempt, cell, degraded = pending.pop(due)
                    run = self._spawn(cell, attempt, degraded)
                    running.append(run)
                    spawned.append(run)
                    self.log.info("campaign.worker.spawn",
                                  cell=cell["cell"], attempt=attempt,
                                  degraded=degraded,
                                  worker_pid=run.proc.pid)
                    say(f"start {cell['cell']} (attempt {attempt}"
                        + (", degraded rescue)" if degraded else ")"))
                for run, result in finished:
                    if self._settle(run, result, pending, summary, say):
                        yield run.cell, result["result"]
                finished = []
                # Sleep until a worker reports or dies, a deadline
                # passes, or (with a free slot) a backoff ends.
                wake = [run.deadline for run in running
                        if run.deadline is not None]
                if len(running) < self.workers:
                    wake += [entry[0] for entry in pending]
                timeout = (max(0.0, min(wake) - time.monotonic())
                           if wake else None)
                if not running:
                    time.sleep(timeout or 0.0)
                    continue
                ready = wait([run.conn for run in running], timeout)
                now = time.monotonic()
                still: List[_Running] = []
                for run in running:
                    if run.conn in ready:
                        finished.append((run, self._harvest(run)))
                    elif run.deadline is not None and now >= run.deadline:
                        run.proc.kill()
                        run.conn.close()
                        self.log.warn("campaign.worker.timeout",
                                      cell=run.cell["cell"],
                                      attempt=run.attempt,
                                      worker_pid=run.proc.pid,
                                      timeout=self.timeout)
                        finished.append((run, {
                            "status": "error", "timeout": True,
                            "error": f"timeout after {self.timeout}s"}))
                    else:
                        still.append(run)
                running = still
        finally:
            for run in running:  # interrupted: leave no orphans behind
                run.proc.kill()
                run.conn.close()
            for run in spawned:
                run.proc.join()
        wall_seconds = round(time.monotonic() - started_at, 3)
        self.log.info("campaign.done", done=len(summary.done),
                      failed=len(summary.failed),
                      skipped=len(summary.skipped),
                      quarantined=len(summary.quarantined),
                      degraded=len(summary.degraded),
                      wall_seconds=wall_seconds)
        self._session_record(summary, wall_seconds)

    def _settle(self, run: _Running, result: Dict[str, Any],
                pending: List[tuple], summary: CampaignSummary,
                say) -> bool:
        """Journal one finished attempt and decide what comes next:
        done (returns True), a retry, a degraded rescue, failure or
        quarantine."""
        elapsed = round(time.monotonic() - run.started, 3)
        cell_id = run.cell["cell"]
        if result.get("status") == "ok":
            outcome = result_summary(run.cell, result["result"],
                                     run.degraded)
            record = {"cell": cell_id, "status": "done",
                      "attempts": run.attempt, "elapsed": elapsed,
                      "result": outcome}
            if run.degraded:
                record["degraded"] = True
            self._journal(record)
            summary.done.append(cell_id)
            if run.degraded:
                summary.degraded.append(cell_id)
            summary.records[cell_id] = outcome
            self._ledger_append(run, result["result"])
            self.log.info("campaign.cell.done", cell=cell_id,
                          attempts=run.attempt, elapsed=elapsed,
                          degraded=run.degraded)
            say(f"done  {cell_id} ({elapsed}s"
                + (", degraded)" if run.degraded else ")"))
            return True
        error = result.get("error", "unknown failure")
        fclass = self.classify_failure(result)
        history = self._fail_classes.setdefault(cell_id, [])
        history.append(fclass)
        budget = (self.max_attempts if fclass == "transient"
                  else min(self.max_attempts, self.persistent_max_attempts))
        if not run.degraded and run.attempt < budget:
            delay = self.retry_delay(cell_id, run.attempt)
            self._journal({"cell": cell_id, "status": "attempt_failed",
                           "attempts": run.attempt, "class": fclass,
                           "error": error, "retry_in": delay})
            pending.append((time.monotonic() + delay,
                            run.attempt + 1, run.cell, False))
            self.log.warn("campaign.cell.retry", cell=cell_id,
                          attempt=run.attempt, error=error,
                          failure_class=fclass, retry_in=delay)
            if self.progress is not None:
                self.progress.cell(cell_id, "retry", error=error,
                                   attempt=run.attempt + 1)
            say(f"retry {cell_id}: {error} [{fclass}] "
                f"(attempt {run.attempt + 1} in {delay}s)")
        elif (self.degrade and not run.degraded
              and self._degradable(run.cell)):
            # Graceful degradation: one rescue attempt on the
            # functional tier before giving up.
            self._journal({"cell": cell_id, "status": "degrading",
                           "attempts": run.attempt, "class": fclass,
                           "error": error})
            pending.append((time.monotonic(),
                            run.attempt + 1, run.cell, True))
            self.log.warn("campaign.cell.degrade", cell=cell_id,
                          attempt=run.attempt, error=error)
            if self.progress is not None:
                self.progress.cell(cell_id, "retry", error=error,
                                   attempt=run.attempt + 1)
            say(f"degrade {cell_id}: {error} (functional-tier rescue)")
        else:
            crash_looping = (len(history) >= self.quarantine_after
                             and all(c == "transient" for c in history))
            status = "quarantined" if crash_looping else "failed"
            record = {"cell": cell_id, "status": status,
                      "attempts": run.attempt, "error": error,
                      "classes": list(history), "elapsed": elapsed}
            if crash_looping:
                record["class"] = "crash-looping"
            self._journal(record)
            summary.records[cell_id] = record
            if crash_looping:
                summary.quarantined.append(cell_id)
                self.log.error("campaign.cell.quarantined", cell=cell_id,
                               attempts=run.attempt, error=error)
                say(f"QUAR  {cell_id}: {error} (crash-looping; "
                    f"`repro fsck --repair` releases)")
            else:
                summary.failed.append(cell_id)
                self.log.error("campaign.cell.failed", cell=cell_id,
                               attempts=run.attempt, error=error)
                say(f"FAIL  {cell_id}: {error}")
            if self.progress is not None:
                self.progress.cell(cell_id, status, error=error)
        return False

    def _session_record(self, summary: CampaignSummary,
                        wall_seconds: float) -> None:
        """One ``kind="session"`` ledger record closing the campaign,
        linking it to its structured log and progress directory."""
        if self.ledger is None:
            return
        from repro.obs.ledger import record_from_session

        self.ledger.safe_append(record_from_session(
            "campaign",
            {"cells_total": (len(summary.done) + len(summary.failed)
                             + len(summary.skipped)
                             + len(summary.quarantined)),
             "cells_done": len(summary.done),
             "cells_failed": len(summary.failed),
             "cells_cached": len(summary.skipped),
             "cells_quarantined": len(summary.quarantined),
             "cells_degraded": len(summary.degraded),
             "wall_seconds": wall_seconds},
            log_path=str(self.log.path) if self.log.enabled else None,
            progress_dir=(str(self.progress.dir)
                          if self.progress is not None else None)))
