"""Recovery semantics for the protection path.

Without recovery, a scheme's verification step only *counts* decode
outcomes.  A :class:`RecoveryController` turns them into behavior:

* **Corrected** — the fetch stalls an extra ``correction_latency``
  cycles (ECC correction is not free on real controllers).
* **Detected-uncorrectable (DUE)** — bounded re-fetch/replay: after an
  exponential backoff the granule's data and metadata atom are re-read
  from DRAM (``RequestKind.RETRY`` traffic), transient faults are
  healed through the injector hook, and the granule is re-verified.
  When the retry budget is exhausted the granule is **poisoned**: its
  L2 sectors are marked poisoned, subsequent accesses complete
  immediately but count as poison propagations (the architectural
  containment story — poison reaches the consumer instead of silent
  corruption).
* **Corrupted metadata** — if the backing store says the granule's
  metadata carries an injected fault, the scheme's cached copy
  (dedicated mdcache entry or L2 metadata line) is invalidated before
  replay so the re-fetch observes DRAM, not the poisoned cache.

All outcomes land in a ``resilience`` stats group and, when tracing is
on, in the ``resilience`` trace category.  Recovery stalls are issued
outside any attributed fetch scope, so per-request latency attribution
books them under the *queue* component — the data+metadata+queue sum
identity is preserved by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ecc.base import DecodeStatus
from repro.sim.engine import Simulator
from repro.sim.stats import StatGroup


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs for the recovery state machine (config-embeddable)."""

    #: Extra cycles a detected-correctable verification stalls.
    correction_latency: int = 8
    #: Maximum re-fetch attempts for one DUE before giving up.
    max_retries: int = 3
    #: Backoff before attempt *n* is ``retry_backoff * 2**(n-1)`` cycles.
    retry_backoff: int = 32
    #: Poison the granule's L2 sectors when retries are exhausted.
    poison_on_exhaust: bool = True


class RecoveryController:
    """Per-system recovery state machine shared by all slices."""

    def __init__(self, sim: Simulator, stats: StatGroup,
                 policy: Optional[RecoveryPolicy] = None):
        self.sim = sim
        self.policy = policy if policy is not None else RecoveryPolicy()
        #: The ``resilience``-category tracer, set by
        #: :meth:`repro.obs.hub.Observability.attach`.
        self._tracer = None
        #: Injector hook ``(granule, attempt) -> bits healed``; set by
        #: the system when an injector exists.
        self.heal_hook: Optional[Callable[[int, int], int]] = None
        #: Granules that exhausted their retry budget.
        self.poisoned: Set[int] = set()
        self._inflight: Dict[Tuple[int, int], List[Callable[[], None]]] = {}
        self._corrected = stats.counter("corrected_events")
        self._correction_stalls = stats.counter("correction_stall_cycles")
        self._dues = stats.counter("due_events")
        self._retries = stats.counter("retries")
        self._recovered = stats.counter("recovered")
        self._poisoned_count = stats.counter("poisoned_granules")
        self._propagations = stats.counter("poison_propagations")
        self._unrecovered = stats.counter("unrecovered")
        self._meta_invalidations = stats.counter("metadata_invalidations")
        self._retry_stalls = stats.counter("retry_stall_cycles")

    # -- entry point -----------------------------------------------------------

    def resolve(self, scheme, slice_id: int, granule: int,
                done: Callable[[], None]) -> None:
        """Verify one granule and run ``done`` when it is *resolved*.

        Clean verifications call ``done`` synchronously (identical
        timing to the no-recovery path); corrected and DUE outcomes
        delay it.  Concurrent resolutions of the same ``(slice,
        granule)`` share one retry sequence.
        """
        if granule in self.poisoned:
            # Already contained: complete immediately, count the
            # propagation — the consumer sees poison, not stale data.
            self._propagations.add(1)
            self._trace("poison_propagation", granule=granule)
            done()
            return
        key = (slice_id, granule)
        waiters = self._inflight.get(key)
        if waiters is not None:
            waiters.append(done)
            return
        status = scheme.verify_status(granule)
        if status is None or status is DecodeStatus.CLEAN \
                or status is DecodeStatus.MISCORRECTED:
            # MISCORRECTED is silent by definition — the hardware
            # believes the correction, so no recovery action fires.
            done()
            return
        if status is DecodeStatus.CORRECTED:
            self._corrected.add(1)
            self._correction_stalls.add(self.policy.correction_latency)
            self.sim.schedule(self.policy.correction_latency, done)
            return
        # DETECTED_UNCORRECTABLE / TAG_MISMATCH: replay.
        self._inflight[key] = [done]
        self._dues.add(1)
        self._trace("due", granule=granule, slice=slice_id,
                    status=status.name)
        fm = scheme.ctx.functional
        if fm is not None and fm.metadata_faulted(granule):
            scheme.invalidate_metadata(slice_id, granule)
            self._meta_invalidations.add(1)
            self._trace("metadata_invalidate", granule=granule,
                        slice=slice_id)
        self._attempt(scheme, slice_id, granule, attempt=1,
                      started=self.sim.now)

    # -- retry machinery -------------------------------------------------------

    def _attempt(self, scheme, slice_id: int, granule: int, attempt: int,
                 started: int) -> None:
        if attempt > self.policy.max_retries:
            self._exhausted(scheme, slice_id, granule, started)
            return
        self._retries.add(1)
        backoff = self.policy.retry_backoff * (2 ** (attempt - 1))
        self._trace("retry", granule=granule, slice=slice_id,
                    attempt=attempt, backoff=backoff)
        self.sim.schedule(backoff, self._replay, scheme, slice_id, granule,
                          attempt, started)

    def _replay(self, scheme, slice_id: int, granule: int, attempt: int,
                started: int) -> None:
        # Heal journaled transients first: the replayed read samples the
        # array again, and a transient upset does not reproduce.
        if self.heal_hook is not None:
            self.heal_hook(granule, attempt)
        scheme.refetch_granule(
            slice_id, granule,
            lambda: self._recheck(scheme, slice_id, granule, attempt,
                                  started))

    def _recheck(self, scheme, slice_id: int, granule: int, attempt: int,
                 started: int) -> None:
        status = scheme.verify_status(granule)
        if status is None or status in (DecodeStatus.CLEAN,
                                        DecodeStatus.CORRECTED,
                                        DecodeStatus.MISCORRECTED):
            self._recovered.add(1)
            self._trace("recovered", granule=granule, slice=slice_id,
                        attempt=attempt)
            self._finish(slice_id, granule, started)
            return
        self._attempt(scheme, slice_id, granule, attempt + 1, started)

    def _exhausted(self, scheme, slice_id: int, granule: int,
                   started: int) -> None:
        if self.policy.poison_on_exhaust:
            self.poisoned.add(granule)
            self._poisoned_count.add(1)
            self._trace("poisoned", granule=granule, slice=slice_id)
            # Waiters first: completing the fetch installs the granule's
            # sectors into the L2 after the check latency, and the
            # poison marks must land on those resident copies — not on
            # an empty line.  Same delay + FIFO ordering puts the
            # poison event after every install.
            self._finish(slice_id, granule, started)
            self.sim.schedule(scheme.ctx.ecc_check_latency,
                              scheme.poison_granule, slice_id, granule)
        else:
            self._unrecovered.add(1)
            self._trace("unrecovered", granule=granule, slice=slice_id)
            self._finish(slice_id, granule, started)

    def _finish(self, slice_id: int, granule: int, started: int) -> None:
        self._retry_stalls.add(self.sim.now - started)
        for waiter in self._inflight.pop((slice_id, granule)):
            waiter()

    def _trace(self, name: str, **args) -> None:
        if self._tracer is not None:
            self._tracer.instant("resilience", name, self.sim.now, args=args)
