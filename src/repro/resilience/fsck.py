"""Storage fsck: scan and heal the execution stack's on-disk state.

Every durable artifact this repo writes — the content-addressed result
cache, the run ledger, campaign journals, the structured log, progress
files — is built to *tolerate* corruption (torn tails skipped on read,
checksums verified, corrupt cache entries quarantined).  This module
adds the offline complement: ``repro fsck [--repair]`` walks those
stores, reports a typed list of :class:`Issue` objects, and heals what
is safely healable.

Issue kinds and their repairs:

=================== ======== =======================================
kind                severity ``--repair`` action
=================== ======== =======================================
``torn_tail``       error    truncate the unterminated fragment
``garbage_line``    error    drop the unparseable line (rewrite)
``bad_checksum``    error    drop the corrupted record (rewrite)
``bad_entry``       error    quarantine the cache entry to ``.bad``
``orphan_tmp``      error    delete the leftover ``.tmp`` file
``quarantined_entry`` info   none (inventory of ``.bad`` siblings)
``quarantined_cell`` info    release the journal quarantine record
=================== ======== =======================================

Repairs only ever *remove* records that no reader would trust anyway
(every JSONL reader already skips them), so ``--repair`` cannot lose
good data.  Releasing journal quarantines is the one deliberate
exception to "mirror the readers": quarantine exists to stop
*automatic* retry loops, and an explicit ``fsck --repair`` is the
operator's "try again" signal — the quarantine record is rewritten to
a ``status="released"`` record that keeps the cell's attempt count (so
a deterministic chaos policy draws fresh fault decisions on the rerun)
and the cell reruns on the next resumed campaign.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.structlog import CHECKSUM_FIELD, record_checksum


@dataclass
class Issue:
    """One finding: where, what, and whether/how it was handled."""

    store: str      # cache | ledger | journal | log | progress
    path: str
    kind: str
    detail: str
    severity: str = "error"   # error | info
    repairable: bool = False
    repaired: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class FsckReport:
    """Everything one fsck pass found (and maybe fixed)."""

    issues: List[Issue] = field(default_factory=list)
    #: store name -> files scanned.
    scanned: Dict[str, int] = field(default_factory=dict)

    @property
    def unrepaired(self) -> List[Issue]:
        return [i for i in self.issues
                if i.severity == "error" and not i.repaired]

    @property
    def ok(self) -> bool:
        """True when no error-severity issue remains unrepaired."""
        return not self.unrepaired

    def _count(self, store: str, n: int = 1) -> None:
        self.scanned[store] = self.scanned.get(store, 0) + n

    def to_dict(self) -> Dict[str, Any]:
        return {"ok": self.ok, "scanned": dict(self.scanned),
                "issues": [i.to_dict() for i in self.issues]}


# -- JSONL stores -------------------------------------------------------------


def _classify_line(raw: bytes, terminated: bool) -> Optional[str]:
    """Issue kind for one raw JSONL line, or None when it is sound."""
    text = raw.strip()
    if not text:
        return None  # blank heal lines are by-design noise
    if not terminated:
        return "torn_tail"
    try:
        rec = json.loads(text)
    except ValueError:
        return "garbage_line"
    if not isinstance(rec, dict):
        return "garbage_line"
    ck = rec.pop(CHECKSUM_FIELD, None)
    if ck is not None and ck != record_checksum(rec):
        return "bad_checksum"
    return None


def fsck_jsonl(path: Union[str, os.PathLike], store: str,
               report: FsckReport, repair: bool = False,
               drop_status: Optional[str] = None,
               drop_kind: str = "quarantined_cell",
               drop_severity: str = "info") -> None:
    """Scan one JSONL file; with ``repair``, rewrite it keeping only
    sound lines (byte-identical — good records are never re-encoded).

    ``drop_status`` names a record status to surface as an
    informational, repairable issue (the journal quarantine release
    hook); those records are only dropped when repairing.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return
    report._count(store)
    keep: List[bytes] = []
    dirty = False
    lines = raw.split(b"\n")
    # split() yields a final "" element iff the file ends in a newline.
    for i, line in enumerate(lines):
        terminated = i < len(lines) - 1
        if not terminated and not line.strip():
            continue
        kind = _classify_line(line, terminated)
        if kind is not None:
            preview = line.strip()[:60].decode("utf-8", "replace")
            issue = Issue(store, str(path), kind,
                          f"line {i + 1}: {preview!r}", repairable=True)
            if repair:
                issue.repaired = True
                dirty = True
            else:
                keep.append(line)
            report.issues.append(issue)
            continue
        if drop_status is not None and line.strip():
            rec = json.loads(line.strip())
            if rec.get("status") == drop_status:
                issue = Issue(store, str(path), drop_kind,
                              f"cell {rec.get('cell', '?')!r} "
                              f"({rec.get('error', 'no error')})",
                              severity=drop_severity, repairable=True)
                if repair:
                    # Release, don't erase: the replacement record keeps
                    # the cell's attempt count, so deterministic chaos
                    # draws *fresh* fault decisions on the rerun instead
                    # of replaying the exact attempts that doomed it.
                    released = {"cell": rec.get("cell"),
                                "status": "released",
                                "released_from": drop_status}
                    if isinstance(rec.get("attempts"), int):
                        released["attempts"] = rec["attempts"]
                    released[CHECKSUM_FIELD] = record_checksum(released)
                    keep.append(json.dumps(released,
                                           sort_keys=True).encode("utf-8"))
                    issue.repaired = True
                    dirty = True
                    report.issues.append(issue)
                    continue
                report.issues.append(issue)
        keep.append(line)
    if repair and dirty:
        data = b"\n".join(keep)
        if data and not data.endswith(b"\n"):
            data += b"\n"
        tmp = path.with_suffix(path.suffix + ".fsck-tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)


# -- the result cache ---------------------------------------------------------


def fsck_cache(cache_dir: Union[str, os.PathLike], report: FsckReport,
               repair: bool = False) -> None:
    """Scan a result-cache directory: corrupt entries, leftover
    tempfiles, and the inventory of already-quarantined ``.bad``
    siblings."""
    from repro.analysis.result_cache import entry_checksum

    root = Path(cache_dir)
    if not root.is_dir():
        return
    for sub in sorted(root.iterdir()):
        if not (sub.is_dir() and len(sub.name) == 2):
            continue
        for tmp in sorted(sub.glob("*.tmp")):
            issue = Issue("cache", str(tmp), "orphan_tmp",
                          "leftover atomic-write tempfile",
                          repairable=True)
            if repair:
                try:
                    tmp.unlink()
                    issue.repaired = True
                except OSError:
                    pass
            report.issues.append(issue)
        for bad in sorted(sub.glob("*.bad")):
            report._count("cache")
            report.issues.append(Issue(
                "cache", str(bad), "quarantined_entry",
                "previously quarantined entry (cache clear removes)",
                severity="info"))
        for path in sorted(sub.glob("*.json")):
            report._count("cache")
            detail = None
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(entry, dict):
                    detail = "non-object entry"
                else:
                    ck = entry.get("checksum")
                    if ck is not None and ck != entry_checksum(entry):
                        detail = "checksum mismatch"
            except OSError:
                continue
            except ValueError:
                detail = "unparseable JSON"
            if detail is None:
                continue
            issue = Issue("cache", str(path), "bad_entry", detail,
                          repairable=True)
            if repair:
                try:
                    path.rename(path.with_suffix(".bad"))
                    issue.repaired = True
                except OSError:
                    pass
            report.issues.append(issue)


# -- whole-stack entry point --------------------------------------------------


def fsck_all(cache_dir: Union[None, str, os.PathLike] = None,
             ledger: Union[None, str, os.PathLike] = None,
             journals: Optional[List[Union[str, os.PathLike]]] = None,
             log: Union[None, str, os.PathLike] = None,
             progress_dir: Union[None, str, os.PathLike] = None,
             repair: bool = False) -> FsckReport:
    """One fsck pass over every store the caller names (or the
    environment defaults for the cache and ledger)."""
    from repro.analysis.result_cache import default_cache_dir
    from repro.obs.ledger import default_ledger_path

    report = FsckReport()
    cache_root = Path(cache_dir) if cache_dir is not None \
        else default_cache_dir()
    if cache_root.is_dir():
        fsck_cache(cache_root, report, repair=repair)
    ledger_path = Path(ledger) if ledger is not None \
        else default_ledger_path()
    if ledger_path is not None:
        fsck_jsonl(ledger_path, "ledger", report, repair=repair)
    for journal in journals or []:
        fsck_jsonl(journal, "journal", report, repair=repair,
                   drop_status="quarantined")
    if log is not None:
        fsck_jsonl(log, "log", report, repair=repair)
    if progress_dir is not None and Path(progress_dir).is_dir():
        for path in sorted(Path(progress_dir).glob("*.jsonl")):
            fsck_jsonl(path, "progress", report, repair=repair)
    return report
