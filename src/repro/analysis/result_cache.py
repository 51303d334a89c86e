"""Persistent, content-addressed result cache.

Trace-driven reproductions re-simulate the same (workload, scheme,
config) cells constantly — across benchmark runs, CLI invocations and
CI jobs.  This module stores every finished
:class:`~repro.core.results.RunResult` as one JSON file under a cache
directory (default ``~/.cache/repro``), keyed by a stable hash of
everything that determines the simulation's output:

* workload name and its workload parameters,
* the full :class:`~repro.core.config.SystemConfig` (machine shape,
  protection scheme + knobs, resilience config, flush/seed fields),
* trace sizing (``scale``, ``seed``),
* the model version string
  (:data:`~repro.core.results.MODEL_VERSION`) and the on-disk format
  version.

Because the model version participates in the key *and* is re-checked
on load, bumping :data:`MODEL_VERSION` after a behavior-changing edit
invalidates every stored result — stale entries simply stop being
addressable and are swept by :meth:`ResultCache.clear`.

Layout: ``<dir>/<key[:2]>/<key>.json`` (two-level fan-out keeps any
one directory small).  Writes are atomic (tempfile + rename), so a
killed run never leaves a torn entry.  Entries carry a blake2b
``checksum`` (entries from before the field existed load unverified);
an entry that fails to parse, fails its checksum, or decodes to
garbage is **quarantined** — renamed to ``<key>.bad`` on first
detection — so one corrupted file costs one miss, not a re-parse on
every future lookup.  ``repro fsck`` scans and reports quarantined
and corrupt entries; truly missing/stale entries stay plain misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.config import SystemConfig
from repro.core.results import MODEL_VERSION, RunResult
from repro.workloads.base import GenContext, Workload, compiled_digest

#: On-disk format version; bump on incompatible layout changes.
CACHE_FORMAT = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def _canonical(obj: Any) -> Any:
    """Reduce config objects to deterministic JSON-able primitives."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def cache_key(workload: str, config: SystemConfig, scale: float, seed: int,
              workload_params: Optional[Dict[str, Any]] = None,
              trace_digest: Optional[str] = None) -> str:
    """Stable content hash for one simulation cell.

    ``trace_digest`` — the compiled columnar artifact's content
    address (:attr:`repro.gpu.columnar.CompiledTrace.digest`) — is
    mixed in when provided, making the key address *the trace that
    actually replayed*, not just the generator inputs that should
    produce it.  Omitted (None), the key is unchanged, so event-tier
    keys and digest-free callers stay back-compatible.
    """
    cfg = _canonical(config)
    # Back-compat pruning: fields later added to SystemConfig/GpuConfig
    # are dropped from the payload at their default values, so every
    # event-mode key minted before they existed still addresses the
    # same entry.  Non-default values (functional fidelity, blocking
    # stores) participate normally and get distinct keys.
    if cfg.get("fidelity") == "event":
        del cfg["fidelity"]
    if cfg.get("gpu", {}).get("blocking_stores") is False:
        del cfg["gpu"]["blocking_stores"]
    payload = {
        "format": CACHE_FORMAT,
        "model_version": MODEL_VERSION,
        "workload": workload,
        "workload_params": _canonical(workload_params or {}),
        "config": cfg,
        "scale": scale,
        "seed": seed,
    }
    if trace_digest is not None:
        payload["trace_digest"] = trace_digest
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_digest_for(workload: Workload, gen_ctx: GenContext,
                     config: SystemConfig) -> Optional[str]:
    """The ``trace_digest`` a cell's :func:`cache_key` binds.

    A functional cell binds the digest of the compiled trace it
    replays, so a generator edit that changes traffic can never satisfy
    an older entry, even without a :data:`MODEL_VERSION` bump.  An event
    cell binds none: computing a digest runs the workload's generator
    in the calling process, so the parent of a parallel event grid
    would generate every cell's trace before its workers generate them
    again, and a generator that kills its process would take the parent
    down rather than one worker.
    """
    if config.fidelity != "functional":
        return None
    return compiled_digest(workload, gen_ctx,
                           line_bytes=config.gpu.line_bytes,
                           sector_bytes=config.gpu.sector_bytes)


def _active_chaos():
    """Late import of :func:`repro.resilience.chaos.active_chaos` —
    the chaos seam must not make analysis depend on resilience at
    import time."""
    from repro.resilience.chaos import active_chaos

    return active_chaos()


def entry_checksum(entry: Dict[str, Any]) -> str:
    """Integrity checksum of one on-disk cache entry: blake2b over its
    canonical JSON form with the ``checksum`` field itself excluded.

    Stored by :meth:`ResultCache.put` and verified by
    :meth:`ResultCache.get`; entries written before the field existed
    (no ``checksum`` key) load unverified, so the format is additive
    and :data:`CACHE_FORMAT` does not bump.
    """
    body = {k: v for k, v in entry.items() if k != "checksum"}
    canon = json.dumps(body, sort_keys=True, default=str).encode("utf-8")
    return hashlib.blake2b(canon, digest_size=8).hexdigest()


class ResultCache:
    """Content-addressed on-disk store of :class:`RunResult` objects."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 log=None):
        self.dir = Path(cache_dir) if cache_dir is not None \
            else default_cache_dir()
        #: Load/store counters for this instance (observability).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt entries renamed to ``.bad`` / failed stores.
        self.quarantined = 0
        self.store_errors = 0
        #: Structured logger (:mod:`repro.obs.structlog`); hit/miss/
        #: stale/store events are emitted at debug level.  Assignable
        #: after construction — the harness points a shared cache at
        #: its own run-scoped logger.
        from repro.obs.structlog import NULL_LOG

        self.log = log if log is not None else NULL_LOG

    # -- addressing ---------------------------------------------------------

    def key_for(self, workload: str, config: SystemConfig, scale: float,
                seed: int, workload_params: Optional[Dict[str, Any]] = None,
                trace_digest: Optional[str] = None) -> str:
        return cache_key(workload, config, scale, seed, workload_params,
                         trace_digest=trace_digest)

    def _path(self, key: str) -> Path:
        return self.dir / key[:2] / f"{key}.json"

    # -- load/store ---------------------------------------------------------

    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Park a corrupt entry as ``<key>.bad``: one miss, then out
        of the lookup path forever (instead of re-parsing the same
        broken bytes on every get).  ``repro fsck`` reports the
        quarantined sibling; ``cache clear`` removes it."""
        try:
            path.rename(path.with_suffix(".bad"))
        except OSError:
            return  # raced with a concurrent quarantine/clear: fine
        self.quarantined += 1
        self.log.warn("cache.quarantine", key=key[:12], reason=reason)

    def get(self, key: str) -> Optional[RunResult]:
        """Fetch a stored result; None on miss, stale entry, or
        corruption (which also quarantines the entry to ``.bad``)."""
        path = self._path(key)
        try:
            with path.open() as fh:
                entry = json.load(fh)
        except OSError:
            self.misses += 1
            self.log.debug("cache.miss", key=key[:12])
            return None
        except ValueError:
            # The file exists but is not JSON: torn or bit-rotted.
            self._quarantine(path, key, "unparseable entry")
            self.misses += 1
            return None
        if not isinstance(entry, dict):
            self._quarantine(path, key, "non-object entry")
            self.misses += 1
            return None
        stored_ck = entry.get("checksum")
        if stored_ck is not None and stored_ck != entry_checksum(entry):
            self._quarantine(path, key, "checksum mismatch")
            self.misses += 1
            return None
        # Defense in depth: the version is in the key already, but a
        # hand-copied or corrupted entry must still never satisfy a
        # lookup for a different model.
        if entry.get("model_version") != MODEL_VERSION \
                or entry.get("format") != CACHE_FORMAT:
            self.misses += 1
            self.log.debug("cache.stale", key=key[:12],
                           entry_model=str(entry.get("model_version")),
                           model=MODEL_VERSION)
            return None
        try:
            result = RunResult.from_dict(entry["result"])
        except (KeyError, TypeError, ValueError):
            self._quarantine(path, key, "undecodable result payload")
            self.misses += 1
            return None
        self.hits += 1
        self.log.debug("cache.hit", key=key[:12])
        return result

    def put(self, key: str, result: RunResult,
            meta: Optional[Dict[str, Any]] = None) -> Optional[Path]:
        """Store a result atomically; returns the entry path, or None
        when the store failed (a full disk must cost a future
        re-simulation, never the run in hand)."""
        path = self._path(key)
        entry = {
            "format": CACHE_FORMAT,
            "model_version": MODEL_VERSION,
            "key": key,
            "meta": meta or {},
            "result": result.to_dict(),
        }
        entry["checksum"] = entry_checksum(entry)
        blob = json.dumps(entry, sort_keys=True).encode("utf-8")
        try:
            chaos = _active_chaos()
            if chaos is not None:
                blob = chaos.mangle_cache_entry(key, blob)  # may raise
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.store_errors += 1
            self.log.warn("cache.store_failed", key=key[:12],
                          error=str(exc))
            return None
        self.stores += 1
        self.log.debug("cache.store", key=key[:12])
        return path

    # -- maintenance ---------------------------------------------------------

    def _entries(self, pattern: str = "*.json"):
        if not self.dir.is_dir():
            return
        for sub in sorted(self.dir.iterdir()):
            if sub.is_dir() and len(sub.name) == 2:
                yield from sorted(sub.glob(pattern))

    def stats(self) -> Dict[str, Any]:
        """``{dir, entries, bytes, current_model_entries,
        quarantined_entries, by_model_version}`` for the
        ``cache stats`` CLI subcommand.

        ``by_model_version`` maps each model version found on disk to
        its ``{entries, bytes}`` footprint, so stale generations (and
        what ``cache clear --stale`` would reclaim) are visible at a
        glance.  Unreadable entries are bucketed under ``"?"``;
        ``quarantined_entries`` counts the ``.bad`` siblings corrupt
        entries were parked under.
        """
        entries = 0
        nbytes = 0
        current = 0
        by_version: Dict[str, Dict[str, int]] = {}
        for path in self._entries():
            entries += 1
            version = "?"
            size = 0
            try:
                size = path.stat().st_size
                nbytes += size
                with path.open() as fh:
                    version = str(json.load(fh).get("model_version"))
            except (OSError, ValueError):
                pass
            if version == MODEL_VERSION:
                current += 1
            bucket = by_version.setdefault(version,
                                           {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        quarantined = sum(1 for _ in self._entries("*.bad"))
        return {"dir": str(self.dir), "entries": entries, "bytes": nbytes,
                "current_model_entries": current,
                "quarantined_entries": quarantined,
                "model_version": MODEL_VERSION,
                "by_model_version": by_version}

    def clear(self, stale_only: bool = False) -> int:
        """Delete entries (all, or only those from other model
        versions; a full clear also sweeps quarantined ``.bad``
        siblings); returns how many were removed."""
        removed = 0
        targets = list(self._entries())
        if not stale_only:
            targets += list(self._entries("*.bad"))
        for path in targets:
            if stale_only:
                try:
                    with path.open() as fh:
                        if json.load(fh).get("model_version") \
                                == MODEL_VERSION:
                            continue
                except (OSError, ValueError):
                    pass  # unreadable counts as stale
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed
