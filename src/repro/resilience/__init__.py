"""In-situ fault injection and recovery for timed simulations.

Two layers:

* **Injection + recovery** — :mod:`repro.resilience.faults` defines
  configurable fault processes (transient flips, stuck-at regions,
  burst events); :mod:`repro.resilience.injector` drives them against
  the functional backing store *during* a timed run;
  :mod:`repro.resilience.recovery` gives the protection path recovery
  semantics (correction latency, bounded re-fetch with backoff,
  poisoning, metadata invalidation).
* **Campaign resilience** — :mod:`repro.resilience.campaign` is the
  one cell executor (campaigns and parallel grids alike): it fans runs
  out to forked workers with timeouts, crash isolation, a failure
  taxonomy (transient / persistent / crash-looping with quarantine)
  and a JSONL journal for checkpoint/resume
  (:mod:`repro.resilience.worker` runs one cell in a worker).
* **Host chaos + fsck** — :mod:`repro.resilience.chaos` injects
  deterministic *host* faults (worker kills, torn writes, bit flips)
  at instrumented seams when armed via ``REPRO_CHAOS``;
  :mod:`repro.resilience.fsck` scans and heals the on-disk stores.

The campaign and fsck modules are intentionally *not* imported here:
they pull in :mod:`repro.core` / :mod:`repro.obs`, which themselves
import :mod:`repro.resilience.recovery` — import them directly.
"""

from repro.resilience.chaos import ChaosPolicy, active_chaos, stream_unit
from repro.resilience.faults import (
    FAULT_PROCESSES,
    BurstEvent,
    FaultProcess,
    StuckAtRegion,
    TransientFlips,
    make_process,
)
from repro.resilience.injector import Injector
from repro.resilience.recovery import RecoveryController, RecoveryPolicy

__all__ = [
    "FaultProcess",
    "TransientFlips",
    "StuckAtRegion",
    "BurstEvent",
    "FAULT_PROCESSES",
    "make_process",
    "Injector",
    "RecoveryController",
    "RecoveryPolicy",
    "ChaosPolicy",
    "active_chaos",
    "stream_unit",
]
