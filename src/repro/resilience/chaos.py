"""Deterministic host-fault injection for the execution stack.

The resilience layer in :mod:`repro.resilience` hardens the *simulated*
machine; this module attacks the *host* machinery that runs it: worker
processes, the content-addressed result cache, and the append-only
JSONL stores (ledger, campaign journal, structured log, progress
files).  A :class:`ChaosPolicy` decides — deterministically, from a
seed — whether a given *site* suffers a fault:

* **worker faults** — SIGKILL, an indefinite hang (the runner timeout
  must reap it), or an artificial slowdown, injected at the top of
  :func:`repro.resilience.worker.run_cell_result` for every worker
  attempt of the campaign runner (campaign and parallel-grid cells);
* **append faults** — a torn (truncated) write or a simulated
  ``ENOSPC`` in :func:`repro.obs.structlog.append_jsonl`, the shared
  seam under the ledger, journal, log and progress stores;
* **cache-entry faults** — a bit-flipped or truncated payload, or
  ``ENOSPC``, on :meth:`repro.analysis.result_cache.ResultCache.put`.

Determinism follows the idiom of
:class:`repro.ecc.faults.FaultCampaign`: each decision hashes
``"{seed}:{site}"`` with blake2b into a uniform unit float, so the
same policy attacks the same sites in the same way on every run —
which is what makes the crash-consistency oracle (chaotic run must
converge to a clean run's exact metrics) assertable.  Sites that occur
repeatedly (appends to one file) are numbered by per-process counters;
campaign attempts are numbered *across resumes* (the runner threads a
journal-derived attempt offset), so a retried or resumed cell faces a
fresh decision rather than the identical doom.

Activation is explicit: the ``REPRO_CHAOS`` environment variable (a
path to a policy JSON file, or inline JSON starting with ``{``) or the
``--chaos-policy`` CLI flag, which just sets the variable so
forked workers inherit it.  When unset, :func:`active_chaos`
returns ``None`` after one cached environment lookup — production
paths pay no other cost.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, Optional, Union

#: Environment variable activating chaos: a policy file path or inline JSON.
CHAOS_ENV = "REPRO_CHAOS"


def stream_unit(seed: int, site: str) -> float:
    """Uniform ``[0, 1)`` float for one ``(seed, site)`` pair — the
    blake2b decision-stream primitive shared by :class:`ChaosPolicy`
    and the campaign runner's deterministic retry jitter."""
    digest = hashlib.blake2b(f"{seed}:{site}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


@dataclass(frozen=True)
class ChaosPolicy:
    """A seeded, serializable description of host-fault pressure.

    All probabilities are independent per site; a value of ``0``
    disables that fault class entirely.
    """

    seed: int = 1
    #: Worker process faults (campaign runner attempts only).
    kill_prob: float = 0.0
    hang_prob: float = 0.0
    slow_prob: float = 0.0
    slow_seconds: float = 0.2
    #: JSONL append faults (ledger / journal / structlog / progress).
    torn_write_prob: float = 0.0
    enospc_prob: float = 0.0
    #: Result-cache entry payload corruption on store.
    corrupt_entry_prob: float = 0.0

    # -- decision streams ----------------------------------------------------

    def unit(self, site: str) -> float:
        """Uniform ``[0, 1)`` float for one decision site — the blake2b
        per-site stream idiom from ``FaultCampaign._trial_rng``."""
        return stream_unit(self.seed, site)

    def decide(self, site: str, prob: float) -> bool:
        """Does fault ``site`` fire under probability ``prob``?"""
        return prob > 0.0 and self.unit(site) < prob

    def pick(self, site: str, n: int) -> int:
        """Deterministic index in ``[0, n)`` for site-local choices."""
        return min(int(self.unit("pick:" + site) * n), n - 1)

    # -- fault sites ---------------------------------------------------------

    def worker_fault(self, cell: str, attempt: int) -> Optional[str]:
        """Fault mode for one worker attempt: ``"kill"``, ``"hang"``,
        ``"slow"`` or ``None``.  ``attempt`` is the campaign-global
        attempt number, so retries and resumes draw fresh decisions."""
        site = f"worker:{cell}:{attempt}"
        if self.decide("kill:" + site, self.kill_prob):
            return "kill"
        if self.decide("hang:" + site, self.hang_prob):
            return "hang"
        if self.decide("slow:" + site, self.slow_prob):
            return "slow"
        return None

    def mangle_append(self, name: str, data: bytes) -> bytes:
        """Attack one JSONL append: may raise a simulated ``ENOSPC``
        or return a torn (truncated) payload; usually returns ``data``
        unchanged.  ``name`` is the target file's basename; repeat
        appends to one file are numbered per process."""
        site = f"append:{name}:{_next_count('append:' + name)}"
        if self.decide("enospc:" + site, self.enospc_prob):
            raise OSError(errno.ENOSPC,
                          f"chaos: simulated ENOSPC appending to {name}")
        if len(data) > 2 and self.decide("torn:" + site,
                                         self.torn_write_prob):
            # Keep at least one byte and never the full record, so the
            # tail is genuinely torn (unparseable, missing newline).
            return data[:1 + self.pick(site, len(data) - 2)]
        return data

    def mangle_cache_entry(self, key: str, blob: bytes) -> bytes:
        """Attack one result-cache entry payload on store: simulated
        ``ENOSPC``, a single flipped bit, or a truncated blob."""
        site = f"cache:{key}:{_next_count('cache:' + key)}"
        if self.decide("enospc:" + site, self.enospc_prob):
            raise OSError(errno.ENOSPC,
                          f"chaos: simulated ENOSPC storing cache entry {key}")
        if blob and self.decide("flip:" + site, self.corrupt_entry_prob):
            i = self.pick("flip-at:" + site, len(blob))
            bit = self.pick("flip-bit:" + site, 8)
            mutated = bytearray(blob)
            mutated[i] ^= 1 << bit
            return bytes(mutated)
        if len(blob) > 2 and self.decide("torn:" + site,
                                         self.torn_write_prob):
            return blob[:1 + self.pick("cut:" + site, len(blob) - 2)]
        return blob

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosPolicy":
        """Build a policy from a dict, ignoring unknown keys (so old
        code can read policy files written by newer versions)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def load(cls, source: Union[str, os.PathLike]) -> "ChaosPolicy":
        """Load a policy from inline JSON (starts with ``{``) or a
        JSON file path — the two forms ``REPRO_CHAOS`` accepts."""
        text = str(source).strip()
        if not text.startswith("{"):
            text = Path(text).read_text(encoding="utf-8")
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("chaos policy JSON must be an object")
        return cls.from_dict(data)


#: Per-process counters giving repeat fault sites distinct numbers.
_SITE_COUNTERS: Dict[str, int] = {}

#: ``active_chaos()`` memo, keyed on the raw env value so changing or
#: clearing ``REPRO_CHAOS`` (tests do) invalidates it naturally.
_ACTIVE: Dict[str, Any] = {"raw": None, "policy": None}

_WARNED_BAD_ENV = False


def _next_count(site_class: str) -> int:
    n = _SITE_COUNTERS.get(site_class, 0)
    _SITE_COUNTERS[site_class] = n + 1
    return n


def reset_site_counters() -> None:
    """Reset per-process site counters (test isolation hook)."""
    _SITE_COUNTERS.clear()


def active_chaos() -> Optional[ChaosPolicy]:
    """The environment-activated policy, or ``None`` (the production
    answer).  The parse is cached on the raw ``REPRO_CHAOS`` value; an
    unparseable value warns once and behaves as chaos-off, so a typo
    can never corrupt a run from deep inside an append."""
    global _WARNED_BAD_ENV
    raw = os.environ.get(CHAOS_ENV, "").strip()
    if _ACTIVE["raw"] == raw:
        return _ACTIVE["policy"]
    policy: Optional[ChaosPolicy] = None
    if raw and raw.lower() not in ("off", "0", "none", "disabled"):
        try:
            policy = ChaosPolicy.load(raw)
        except (OSError, ValueError) as exc:
            if not _WARNED_BAD_ENV:
                _WARNED_BAD_ENV = True
                print(f"warning: ignoring unreadable {CHAOS_ENV} "
                      f"policy ({exc})", file=sys.stderr)
            policy = None
    _ACTIVE["raw"] = raw
    _ACTIVE["policy"] = policy
    return policy
