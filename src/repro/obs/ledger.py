"""Cross-run telemetry ledger.

Everything else in this package observes *one* run; this module gives
the repo memory *across* runs.  A :class:`RunLedger` is an append-only
JSONL file (default ``<cache dir>/ledger.jsonl``) that every
:class:`~repro.analysis.harness.ExperimentHarness` cell, campaign cell
and ``benchmarks/bench_engine.py`` invocation appends one record to —
full provenance per record (git SHA, model version, config hash,
cached-vs-simulated flag) plus the metrics the regression sentinel
(:mod:`repro.obs.regress`) and the HTML report
(:mod:`repro.obs.htmlreport`) consume.

Durability contract (same discipline as the campaign journal):

* **Appends are atomic** — one ``O_APPEND`` write of one complete
  line, fsynced, so concurrent appenders interleave whole records and
  a killed process never interleaves half-records.
* **A torn tail is tolerated** — a record cut short by a crash (no
  trailing newline, or a partial JSON line) is skipped on read and
  *healed* on the next append, which starts a fresh line instead of
  gluing onto the fragment.
* **The index is derived** — ``<ledger>.idx.json`` is a pure cache of
  per-cell counts and latest records, rewritten atomically; when its
  recorded byte size disagrees with the JSONL it is rebuilt by a full
  scan, so it can always be deleted with no data loss.

Disable ledger writes entirely with ``REPRO_LEDGER=off`` (or point
``REPRO_LEDGER`` at an alternate path).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.structlog import append_jsonl, read_jsonl

#: On-disk record format; bump on incompatible schema changes.
LEDGER_FORMAT = 1

#: Environment variable: a path overrides the default ledger location;
#: ``off`` / ``0`` / ``none`` / ``disabled`` turns the ledger off.
LEDGER_ENV = "REPRO_LEDGER"

_OFF_VALUES = {"off", "0", "none", "disabled", ""}

_GIT_SHA_CACHE: List[Optional[str]] = []


def default_ledger_path() -> Optional[Path]:
    """The ledger location, or None when disabled via the environment.

    ``$REPRO_LEDGER`` (path or off-switch), else ``ledger.jsonl``
    inside the result-cache directory (``$REPRO_CACHE_DIR`` /
    ``$XDG_CACHE_HOME/repro`` / ``~/.cache/repro``) so run history and
    cached results travel together.
    """
    env = os.environ.get(LEDGER_ENV)
    if env is not None:
        if env.strip().lower() in _OFF_VALUES:
            return None
        return Path(env)
    from repro.analysis.result_cache import default_cache_dir

    return default_cache_dir() / "ledger.jsonl"


def git_sha() -> Optional[str]:
    """The repo's HEAD commit (cached per process); None outside git."""
    if not _GIT_SHA_CACHE:
        sha: Optional[str] = None
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=5,
                cwd=os.path.dirname(os.path.abspath(__file__)))
            if out.returncode == 0:
                sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
        _GIT_SHA_CACHE.append(sha)
    return _GIT_SHA_CACHE[0]


# -- record builders ---------------------------------------------------------


def record_from_result(result, *, label: str = "harness",
                       config=None, scale: Optional[float] = None,
                       seed: Optional[int] = None,
                       workload_params: Optional[Dict[str, Any]] = None,
                       cached: bool = False,
                       log_path: Optional[str] = None) -> Dict[str, Any]:
    """A ledger record for one finished
    :class:`~repro.core.results.RunResult`.

    ``config`` (a :class:`~repro.core.config.SystemConfig`) adds the
    content hash the persistent result cache would file this cell
    under — the strongest provenance link a record can carry.
    ``log_path`` links the record to the structured log
    (:mod:`repro.obs.structlog`) that narrates the run, so
    ``obs history`` can point from a cell straight to its events.

    Functional-fidelity results are distinct cells: their records
    carry ``fidelity`` and an ``@functional``-suffixed cell id, so the
    ledger index and the regression sentinel never conflate a
    counters-only run with a timed one.
    """
    fidelity = getattr(result, "fidelity", "event")
    cell = f"{result.workload}/{result.scheme}"
    if fidelity != "event":
        cell += f"@{fidelity}"
    record: Dict[str, Any] = {
        "kind": "run",
        "label": label,
        "workload": result.workload,
        "scheme": result.scheme,
        "fidelity": fidelity,
        "cell": cell,
        "cached": bool(cached),
        "scale": scale,
        "seed": seed,
        "host_seconds": round(result.host_seconds, 4),
        "metrics": result.key_metrics(),
    }
    if log_path:
        record["log"] = str(log_path)
    if config is not None:
        from repro.analysis.result_cache import cache_key

        record["config_key"] = cache_key(result.workload, config,
                                         scale if scale is not None else 0.0,
                                         seed if seed is not None else 0,
                                         workload_params or {})
    if result.latency:
        record["latency"] = {
            k: result.latency[k]
            for k in ("data_cycles", "metadata_cycles", "queue_cycles",
                      "total_cycles", "requests")
            if k in result.latency
        }
    return record


def record_from_cell(cell_result: Dict[str, Any], *,
                     label: str = "campaign",
                     scale: Optional[float] = None,
                     seed: Optional[int] = None,
                     log_path: Optional[str] = None) -> Dict[str, Any]:
    """A ledger record from a campaign worker's JSON result object.

    Subprocess workers report a summary (cycles, traffic,
    host_seconds) rather than a full ``RunResult``; the parent builds
    the ledger record from it on receipt, so campaign cells leave the
    same cross-run trail as in-process ones.

    A cell rescued by the runner's graceful-degradation hook (rerun
    on the functional tier after the event tier kept dying) carries
    ``fidelity`` and ``degraded`` plus the ``@functional`` cell-id
    suffix — the same never-conflate rule as
    :func:`record_from_result`.
    """
    traffic = {k: int(v) for k, v in
               (cell_result.get("traffic") or {}).items()}
    metrics: Dict[str, Any] = {"cycles": int(cell_result.get("cycles", 0))}
    if traffic:
        metrics["total_dram_bytes"] = sum(traffic.values())
        metrics["demand_bytes"] = traffic.get("data", 0)
        metrics["overhead_bytes"] = (traffic.get("metadata", 0)
                                     + traffic.get("verify_fill", 0)
                                     + traffic.get("metadata_write", 0))
    workload = cell_result.get("workload", "?")
    scheme = cell_result.get("scheme", "?")
    fidelity = cell_result.get("fidelity", "event")
    cell = cell_result.get("cell", f"{workload}/{scheme}")
    if fidelity != "event" and not cell.endswith(f"@{fidelity}"):
        cell += f"@{fidelity}"
    record = {
        "kind": "run",
        "label": label,
        "workload": workload,
        "scheme": scheme,
        "fidelity": fidelity,
        "cell": cell,
        "cached": False,
        "scale": scale,
        "seed": seed,
        "host_seconds": cell_result.get("host_seconds", 0.0),
        "metrics": metrics,
    }
    if cell_result.get("degraded"):
        record["degraded"] = True
    if log_path:
        record["log"] = str(log_path)
    return record


def record_from_session(label: str, summary: Dict[str, Any], *,
                        log_path: Optional[str] = None,
                        progress_dir: Optional[str] = None
                        ) -> Dict[str, Any]:
    """A ``kind="session"`` record closing out one multi-cell run.

    ``summary`` is the final progress summary
    (:func:`repro.obs.progress.summary_dict`): cells
    done/failed/cached, cache hit ratio, aggregate events/sec and wall
    seconds.  One session record per ``compare``/``campaign``
    invocation lets ``obs history`` show fleet-level outcomes and link
    each run to its structured log and progress directory.
    """
    record: Dict[str, Any] = {
        "kind": "session",
        "label": label,
        "cell": f"session/{label}",
        "metrics": {k: v for k, v in summary.items()
                    if isinstance(v, (int, float))},
    }
    if log_path:
        record["log"] = str(log_path)
    if progress_dir:
        record["progress_dir"] = str(progress_dir)
    return record


def record_from_bench(payload: Dict[str, Any],
                      label: str = "bench_engine") -> Dict[str, Any]:
    """A ledger record from a ``bench_engine.py`` payload."""
    raw = payload.get("raw_engine", {})
    sim = payload.get("real_sim", {})
    metrics = {
        "raw_events_per_sec": raw.get("events_per_sec", 0),
        "sim_events_per_sec": sim.get("events_per_sec", 0),
    }
    functional = payload.get("functional_sim")
    if functional:
        metrics["functional_events_per_sec"] = \
            functional.get("events_per_sec", 0)
    return {
        "kind": "bench",
        "label": label,
        "metrics": metrics,
        "bench": payload,
    }


# -- the ledger ---------------------------------------------------------------


class RunLedger:
    """Append-only JSONL run history with a derived index."""

    def __init__(self, path: Union[str, os.PathLike], fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._warned = False

    @classmethod
    def default(cls) -> Optional["RunLedger"]:
        """The environment-configured ledger, or None when disabled."""
        path = default_ledger_path()
        return cls(path) if path is not None else None

    @property
    def index_path(self) -> Path:
        return self.path.with_name(self.path.stem + ".idx.json")

    # -- writing -------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> str:
        """Append one record atomically; returns its ``run_id``.

        Provenance defaults (``ts``, ``git_sha``, ``model_version``,
        ``format``) are stamped here so every caller's records are
        comparable.  The write itself goes through the shared
        :func:`~repro.obs.structlog.append_jsonl` seam — one atomic
        ``O_APPEND`` line, checksummed, torn-tail healing — so the
        ledger, journal, log and progress stores share one durability
        (and one chaos-injection) path.
        """
        from repro.core.results import MODEL_VERSION

        rec = dict(record)
        rec.setdefault("format", LEDGER_FORMAT)
        rec.setdefault("ts", round(time.time(), 3))
        rec.setdefault("git_sha", git_sha())
        rec.setdefault("model_version", MODEL_VERSION)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        prev_size, _torn_tail = self._tail_state()
        rec.setdefault("run_id", hashlib.blake2s(
            f"{rec['ts']}|{prev_size}|{json.dumps(rec, sort_keys=True, default=str)}"
            .encode("utf-8"), digest_size=6).hexdigest())
        written = append_jsonl(self.path, rec, fsync=self.fsync)
        self._update_index(rec, prev_size, prev_size + written)
        return rec["run_id"]

    def safe_append(self, record: Dict[str, Any]) -> Optional[str]:
        """:meth:`append`, but a failing ledger never fails the run."""
        try:
            return self.append(record)
        except OSError as exc:
            if not self._warned:
                self._warned = True
                print(f"warning: ledger append to {self.path} failed: {exc}",
                      file=sys.stderr)
            return None

    def _tail_state(self) -> tuple:
        """(current size, True when the last byte is not a newline)."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return 0, False
        if size == 0:
            return 0, False
        with self.path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return size, fh.read(1) != b"\n"

    # -- reading -------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """All readable records, oldest first.

        Unparseable lines (the torn tail of a killed process) and
        checksum-failing lines (corrupted in place) are skipped via
        the shared :func:`~repro.obs.structlog.read_jsonl` reader,
        mirroring the campaign journal's tolerance.
        """
        return list(read_jsonl(self.path))

    def tail(self, n: int) -> List[Dict[str, Any]]:
        """The most recent ``n`` records, oldest first."""
        records = self.records()
        return records[-n:] if n > 0 else []

    def find(self, run_id_prefix: str) -> Optional[Dict[str, Any]]:
        """The unique record whose run_id starts with the prefix.

        Raises ValueError when the prefix is ambiguous; returns None
        when nothing matches.
        """
        matches = [r for r in self.records()
                   if str(r.get("run_id", "")).startswith(run_id_prefix)]
        if not matches:
            return None
        if len(matches) > 1:
            full = {str(r.get("run_id")) for r in matches}
            if len(full) > 1:
                raise ValueError(
                    f"run id prefix {run_id_prefix!r} is ambiguous: "
                    + ", ".join(sorted(full)))
        return matches[-1]

    # -- the derived index ----------------------------------------------------

    def index(self) -> Dict[str, Any]:
        """The derived index, rebuilt when stale or missing."""
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        try:
            with self.index_path.open() as fh:
                idx = json.load(fh)
            if isinstance(idx, dict) and idx.get("bytes") == size:
                return idx
        except (OSError, ValueError):
            pass
        return self.rebuild_index()

    def rebuild_index(self) -> Dict[str, Any]:
        """Regenerate the index by scanning the JSONL; atomic write."""
        idx = self._index_of(self.records())
        self._write_index(idx)
        return idx

    def _index_of(self, records: List[Dict[str, Any]]) -> Dict[str, Any]:
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        idx: Dict[str, Any] = {
            "format": LEDGER_FORMAT, "bytes": size,
            "count": len(records), "kinds": {}, "cells": {},
            "last_run_id": None, "last_ts": None,
        }
        for rec in records:
            self._index_add(idx, rec)
        return idx

    @staticmethod
    def _index_add(idx: Dict[str, Any], rec: Dict[str, Any]) -> None:
        kind = rec.get("kind", "?")
        idx["kinds"][kind] = idx["kinds"].get(kind, 0) + 1
        idx["last_run_id"] = rec.get("run_id")
        idx["last_ts"] = rec.get("ts")
        cell = rec.get("cell") or kind
        entry = idx["cells"].setdefault(
            cell, {"count": 0, "last_run_id": None, "last_ts": None})
        entry["count"] += 1
        entry["last_run_id"] = rec.get("run_id")
        entry["last_ts"] = rec.get("ts")
        cycles = (rec.get("metrics") or {}).get("cycles")
        if cycles is not None:
            entry["last_cycles"] = cycles

    def _update_index(self, rec: Dict[str, Any], prev_size: int,
                      new_size: int) -> None:
        """Incrementally fold one appended record into the index; any
        disagreement with the JSONL's pre-append size forces a full
        rebuild (e.g. another process appended in between)."""
        idx = None
        try:
            with self.index_path.open() as fh:
                idx = json.load(fh)
        except (OSError, ValueError):
            idx = None
        if (not isinstance(idx, dict) or "cells" not in idx
                or idx.get("bytes") != prev_size):
            self.rebuild_index()
            return
        idx["bytes"] = new_size
        idx["count"] = idx.get("count", 0) + 1
        self._index_add(idx, rec)
        self._write_index(idx)

    def _write_index(self, idx: Dict[str, Any]) -> None:
        import tempfile

        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(self.path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(idx, fh, sort_keys=True)
            os.replace(tmp, self.index_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def resolve_ledger(ledger: Union[None, bool, str, os.PathLike, RunLedger]
                   ) -> Optional[RunLedger]:
    """Normalize the ``ledger=`` argument accepted across the repo.

    ``None``/``True`` — the environment default (which may be off);
    ``False`` — disabled; a path — that file; a ledger — itself.
    """
    if ledger is False:
        return None
    if ledger is None or ledger is True:
        return RunLedger.default()
    if isinstance(ledger, RunLedger):
        return ledger
    return RunLedger(ledger)
