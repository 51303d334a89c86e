"""Live progress / heartbeat channel for multi-process runs.

A running ``compare --workers N`` or ``campaign`` fans cells out to
worker processes; until this module, the parent was a black box until
the last cell returned.  The channel is a *progress directory*:

* every participant appends JSONL records to its **own per-pid file**
  (``<role>-<pid>.jsonl``) with the same atomic ``O_APPEND`` /
  torn-tail-tolerant discipline as the run ledger, so there is no lock,
  no server and no cross-process coordination of any kind;
* **cell lifecycle** records (``start`` / ``done`` / ``failed`` /
  ``cached`` / ``retry``) are written by whoever learns the fact first
  — workers write their own start/done, the runner parent journals
  its workers' outcomes, cache hits are recorded parent-side;
* **heartbeat** records are appended every ``interval`` host seconds
  by a daemon thread in each worker while a cell is in flight, so a
  hung or killed worker is visible as a *stale* pid;
* a ``plan`` record from the parent fixes the denominator (total
  cells) for percent-done and ETA.

:func:`snapshot` folds every record in the directory into one
:class:`ProgressSnapshot` (done/failed/cached/in-flight counts,
aggregate events/sec, cache hit ratio, EWMA-smoothed ETA, stale-worker
list); :func:`render_top` formats a snapshot as a plain-text frame —
no TTY control codes, so it works in CI logs, ``watch``, and pipes
alike.  The ``obs top <dir>`` subcommand and the ``--live`` flags on
``compare``/``campaign`` are thin wrappers over these two calls.

The channel observes the *host-side* execution stack only — nothing
here touches the simulated machine, so progress reporting can never
change simulation counters.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.structlog import append_jsonl, read_jsonl

#: Environment variable overriding the heartbeat interval (seconds).
HEARTBEAT_ENV = "REPRO_HEARTBEAT_INTERVAL"

#: A worker with an in-flight cell and no heartbeat for this many
#: seconds is reported stale (overridable per call / per CLI flag).
DEFAULT_STALE_AFTER = 10.0

#: Terminal cell statuses (everything else keeps the cell in flight).
_TERMINAL = frozenset({"done", "failed", "cached", "quarantined"})


class ProgressWriter:
    """Appends progress records to this process's file in the
    progress directory.

    ``role`` distinguishes the parent (``parent``) from the runner's
    workers (``worker``) in the file name — purely for humans; the
    aggregator reads every ``*.jsonl`` file.
    """

    def __init__(self, progress_dir: Union[str, os.PathLike],
                 role: str = "worker"):
        self.dir = Path(progress_dir)
        self.role = role
        self.path = self.dir / f"{role}-{os.getpid()}.jsonl"
        self._warned = False

    def _write(self, record: Dict[str, Any]) -> None:
        record.setdefault("ts", round(time.time(), 3))
        record.setdefault("pid", os.getpid())
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            append_jsonl(self.path, record)
        except OSError as exc:
            if not self._warned:
                self._warned = True
                print(f"warning: progress append to {self.path} failed: "
                      f"{exc}", file=sys.stderr)

    def plan(self, total_cells: int, **fields: Any) -> None:
        """Fix the denominator: how many cells this run will resolve."""
        self._write({"kind": "plan", "total": int(total_cells), **fields})

    def heartbeat(self, **fields: Any) -> None:
        self._write({"kind": "heartbeat", **fields})

    def cell(self, cell: str, status: str, **fields: Any) -> None:
        """One cell lifecycle transition (start/done/failed/cached/
        retry)."""
        self._write({"kind": "cell", "cell": cell, "status": status,
                     **fields})


class HeartbeatThread:
    """Daemon thread appending heartbeats while host work is in flight.

    Wall-clock based and entirely outside the simulated machine; a
    worker starts it around its cell.  ``stop()`` writes one final
    heartbeat so the last-seen timestamp covers the full busy window.
    """

    def __init__(self, writer: ProgressWriter, interval: float = 1.0):
        self.writer = writer
        self.interval = max(0.05, float(interval))
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "HeartbeatThread":
        self.writer.heartbeat()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-heartbeat")
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.writer.heartbeat()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.writer.heartbeat()


def heartbeat_interval() -> float:
    """The configured heartbeat interval (``$REPRO_HEARTBEAT_INTERVAL``,
    default 1.0s)."""
    raw = os.environ.get(HEARTBEAT_ENV, "").strip()
    try:
        return max(0.05, float(raw)) if raw else 1.0
    except ValueError:
        return 1.0


# -- aggregation --------------------------------------------------------------


def read_progress(progress_dir: Union[str, os.PathLike]
                  ) -> List[Dict[str, Any]]:
    """Every readable record in the directory, ordered by timestamp.

    Files are read with the shared torn-tail-tolerant JSONL reader; a
    record mid-write by a live worker is simply skipped this frame and
    picked up on the next.
    """
    directory = Path(progress_dir)
    records: List[Dict[str, Any]] = []
    if not directory.is_dir():
        return records
    for path in sorted(directory.glob("*.jsonl")):
        records.extend(read_jsonl(path))
    records.sort(key=lambda r: (r.get("ts") or 0.0))
    return records


@dataclass
class CellState:
    """Latest known state of one grid cell."""

    cell: str
    status: str
    pid: Optional[int] = None
    since: Optional[float] = None      # ts of the latest transition
    events: int = 0
    host_seconds: float = 0.0
    error: Optional[str] = None
    attempts: int = 0


@dataclass
class ProgressSnapshot:
    """One folded view of a progress directory (see :func:`snapshot`)."""

    total: int = 0
    done: int = 0
    failed: int = 0
    cached: int = 0
    #: Crash-looping cells parked on the campaign quarantine list.
    quarantined: int = 0
    #: Cells whose latest transition is ``start``.
    in_flight: List[CellState] = field(default_factory=list)
    #: Cells retried and waiting for their next attempt.
    retrying: List[CellState] = field(default_factory=list)
    failed_cells: List[CellState] = field(default_factory=list)
    quarantined_cells: List[CellState] = field(default_factory=list)
    #: pid -> last heartbeat-or-record timestamp.
    workers: Dict[int, float] = field(default_factory=dict)
    #: pids with an in-flight cell and no sign of life for
    #: ``stale_after`` seconds.
    stale_workers: List[int] = field(default_factory=list)
    #: Engine events executed by completed cells.
    events: int = 0
    #: Aggregate engine throughput: completed-cell events over
    #: completed-cell host seconds (sums across workers).
    events_per_sec: float = 0.0
    #: cached / resolved — how much of the grid the result cache
    #: absorbed.
    cache_hit_ratio: float = 0.0
    #: EWMA-smoothed seconds per simulated cell.
    ewma_cell_seconds: float = 0.0
    #: Remaining-work estimate (None until one cell has finished).
    eta_seconds: Optional[float] = None
    #: Wall seconds from the first record to ``now``.
    elapsed_seconds: float = 0.0
    #: ``now`` the snapshot was taken against (for rendering).
    now: float = 0.0

    @property
    def resolved(self) -> int:
        return self.done + self.failed + self.cached + self.quarantined

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.resolved)


#: EWMA smoothing factor for per-cell durations (recent cells dominate
#: without single-cell jitter owning the ETA).
EWMA_ALPHA = 0.3


def snapshot(records: List[Dict[str, Any]],
             now: Optional[float] = None,
             stale_after: float = DEFAULT_STALE_AFTER) -> ProgressSnapshot:
    """Fold progress records into one :class:`ProgressSnapshot`.

    Pure and deterministic given ``records`` and ``now`` — the tests
    feed canned directories and pinned clocks.
    """
    snap = ProgressSnapshot()
    snap.now = now if now is not None else time.time()
    cells: Dict[str, CellState] = {}
    first_ts: Optional[float] = None
    durations: List[float] = []     # completed-cell host seconds, ts order
    sim_seconds = 0.0

    for rec in records:
        ts = rec.get("ts") or 0.0
        if first_ts is None or ts < first_ts:
            first_ts = ts
        pid = rec.get("pid")
        if isinstance(pid, int):
            snap.workers[pid] = max(snap.workers.get(pid, 0.0), ts)
        kind = rec.get("kind")
        if kind == "plan":
            snap.total = max(snap.total, int(rec.get("total") or 0))
        elif kind == "cell":
            cell_id = str(rec.get("cell"))
            state = cells.get(cell_id)
            if state is None:
                state = cells[cell_id] = CellState(cell_id, "pending")
            state.status = str(rec.get("status") or "?")
            state.since = ts
            if isinstance(pid, int):
                state.pid = pid
            if rec.get("error"):
                state.error = str(rec["error"])
            state.attempts = int(rec.get("attempt") or state.attempts)
            if state.status == "done":
                state.events = int(rec.get("events") or 0)
                state.host_seconds = float(rec.get("host_seconds") or 0.0)
                durations.append(state.host_seconds)
                snap.events += state.events
                sim_seconds += state.host_seconds

    for state in cells.values():
        if state.status == "done":
            snap.done += 1
        elif state.status == "failed":
            snap.failed += 1
        elif state.status == "cached":
            snap.cached += 1
        elif state.status == "quarantined":
            snap.quarantined += 1
        elif state.status == "retry":
            snap.retrying.append(state)
        elif state.status == "start":
            snap.in_flight.append(state)
    snap.in_flight.sort(key=lambda s: (s.since or 0.0, s.cell))
    snap.retrying.sort(key=lambda s: (s.since or 0.0, s.cell))
    snap.failed_cells = sorted(
        (s for s in cells.values() if s.status == "failed"),
        key=lambda s: (s.since or 0.0, s.cell))
    snap.quarantined_cells = sorted(
        (s for s in cells.values() if s.status == "quarantined"),
        key=lambda s: (s.since or 0.0, s.cell))

    snap.total = max(snap.total, len(cells))
    if snap.resolved:
        snap.cache_hit_ratio = snap.cached / snap.resolved
    if sim_seconds > 0:
        snap.events_per_sec = snap.events / sim_seconds
    if first_ts is not None:
        snap.elapsed_seconds = max(0.0, snap.now - first_ts)

    ewma = 0.0
    for seconds in durations:
        ewma = seconds if ewma == 0.0 \
            else EWMA_ALPHA * seconds + (1 - EWMA_ALPHA) * ewma
    snap.ewma_cell_seconds = ewma

    live_pids = {pid for pid, last in snap.workers.items()
                 if snap.now - last <= stale_after}
    snap.stale_workers = sorted(
        {s.pid for s in snap.in_flight
         if s.pid is not None and s.pid not in live_pids})

    if durations and snap.remaining:
        lanes = max(1, len(live_pids) or len(snap.in_flight) or 1)
        snap.eta_seconds = snap.remaining * ewma / lanes
    elif snap.remaining == 0 and snap.total:
        snap.eta_seconds = 0.0
    return snap


# -- rendering ---------------------------------------------------------------


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _fmt_rate(per_sec: float) -> str:
    if per_sec >= 1e6:
        return f"{per_sec / 1e6:.2f}M/s"
    if per_sec >= 1e3:
        return f"{per_sec / 1e3:.1f}k/s"
    return f"{per_sec:.0f}/s"


def render_top(snap: ProgressSnapshot, title: str = "repro fleet",
               width: int = 72, max_rows: int = 12) -> str:
    """One plain-text frame of the live dashboard.

    No cursor movement or color codes: frames concatenate cleanly in
    CI logs and non-TTY pipes; interactive callers separate frames
    with a blank line.
    """
    bar_width = max(10, width - 30)
    fraction = (snap.resolved / snap.total) if snap.total else 0.0
    filled = int(round(fraction * bar_width))
    bar = "#" * filled + "." * (bar_width - filled)
    lines = [
        f"== {title} ==",
        f"[{bar}] {snap.resolved}/{snap.total} cells "
        f"({fraction:.0%})",
        f"done {snap.done}  failed {snap.failed}  cached {snap.cached}  "
        f"quarantined {snap.quarantined}  "
        f"in-flight {len(snap.in_flight)}  retrying {len(snap.retrying)}",
        f"cache hit ratio {snap.cache_hit_ratio:.0%}  "
        f"events {snap.events:,}  agg {_fmt_rate(snap.events_per_sec)}  "
        f"elapsed {_fmt_duration(snap.elapsed_seconds)}  "
        f"eta {_fmt_duration(snap.eta_seconds)}",
    ]
    if snap.workers:
        lines.append(f"workers: {len(snap.workers)} seen"
                     + (f", STALE pids {snap.stale_workers}"
                        if snap.stale_workers else ""))
    for state in snap.in_flight[:max_rows]:
        age = _fmt_duration(snap.now - state.since
                            if state.since is not None else None)
        stale = " [stale]" if state.pid in snap.stale_workers else ""
        lines.append(f"  RUN  {state.cell:<30} pid {state.pid or '?':<8} "
                     f"{age:>6}{stale}")
    if len(snap.in_flight) > max_rows:
        lines.append(f"  ... {len(snap.in_flight) - max_rows} more in flight")
    for state in snap.retrying[:max_rows]:
        lines.append(f"  WAIT {state.cell:<30} retry (attempt "
                     f"{state.attempts or '?'}): {state.error or ''}")
    for state in snap.failed_cells[:max_rows]:
        lines.append(f"  FAIL {state.cell:<30} {state.error or ''}")
    for state in snap.quarantined_cells[:max_rows]:
        lines.append(f"  QUAR {state.cell:<30} {state.error or ''}")
    return "\n".join(lines)


class LiveRenderer:
    """Background thread printing :func:`render_top` frames.

    ``interval <= 0`` selects *single-frame mode*: nothing prints
    during the run; the one final frame comes from :meth:`stop` —
    the CI-friendly configuration.
    """

    def __init__(self, progress_dir: Union[str, os.PathLike],
                 interval: float = 1.0, title: str = "repro fleet",
                 out=None, stale_after: float = DEFAULT_STALE_AFTER):
        self.progress_dir = Path(progress_dir)
        self.interval = float(interval)
        self.title = title
        self.out = out if out is not None else sys.stdout
        self.stale_after = stale_after
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def frame(self) -> str:
        snap = snapshot(read_progress(self.progress_dir),
                        stale_after=self.stale_after)
        return render_top(snap, title=self.title)

    def _print_frame(self) -> None:
        print(self.frame(), file=self.out)
        print(file=self.out)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._print_frame()

    def start(self) -> "LiveRenderer":
        if self.interval > 0:
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="repro-live-top")
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop redrawing and print the final frame."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self._print_frame()


def summary_dict(snap: ProgressSnapshot) -> Dict[str, Any]:
    """The final progress summary recorded into the run ledger
    (see :func:`repro.obs.ledger.record_from_session`)."""
    return {
        "cells_total": snap.total,
        "cells_done": snap.done,
        "cells_failed": snap.failed,
        "cells_cached": snap.cached,
        "cells_quarantined": snap.quarantined,
        "cache_hit_ratio": round(snap.cache_hit_ratio, 4),
        "events": snap.events,
        "events_per_sec": round(snap.events_per_sec),
        "wall_seconds": round(snap.elapsed_seconds, 3),
    }
