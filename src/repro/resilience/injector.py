"""The in-situ fault injector.

An :class:`Injector` owns a set of :class:`~repro.resilience.faults.FaultProcess`
instances and steps them periodically *during* a timed run, corrupting
the functional backing store so the next verification on the
protection path actually sees the fault.  Ticks are scheduled as
engine daemons, so injection never extends a run on its own.

The injector is also the recovery layer's *heal* surface: healable
(transient) faults are reverted when a detected-uncorrectable read is
replayed, so a bounded re-fetch genuinely recovers from transients
while hard faults exhaust the retry budget and get poisoned.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.dram.backing import FunctionalMemory
from repro.resilience.faults import FaultProcess
from repro.sim.engine import Simulator
from repro.sim.stats import StatGroup


class Injector:
    """Steps fault processes against a functional backing store."""

    def __init__(self, processes: Sequence[FaultProcess], seed: int = 1,
                 interval: int = 500):
        if interval < 1:
            raise ValueError("injection interval must be >= 1 cycle")
        self.processes = tuple(processes)
        self.seed = seed
        self.interval = interval
        self._sim: Optional[Simulator] = None
        self._fm: Optional[FunctionalMemory] = None
        self._rng = random.Random(seed)
        #: The ``resilience``-category tracer, set by
        #: :meth:`repro.obs.hub.Observability.attach`.
        self._tracer = None

    def bind(self, sim: Simulator, functional: FunctionalMemory,
             stats: Optional[StatGroup] = None) -> None:
        """Attach to one system's simulator, store and stats."""
        self._sim = sim
        self._fm = functional
        self._rng = random.Random(self.seed)
        if stats is not None:
            self._data_flips = stats.counter("data_flips")
            self._meta_flips = stats.counter("metadata_flips")
            self._stuck_asserts = stats.counter("stuck_asserts")
            self._healed = stats.counter("bits_healed")
        else:
            grp = StatGroup("injector")
            self._data_flips = grp.counter("data_flips")
            self._meta_flips = grp.counter("metadata_flips")
            self._stuck_asserts = grp.counter("stuck_asserts")
            self._healed = grp.counter("bits_healed")

    # -- geometry helpers for fault processes ----------------------------------

    @property
    def sector_bits(self) -> int:
        """Bits per data sector (flip-target range)."""
        assert self._fm is not None
        return self._fm.sector_bytes * 8

    @property
    def meta_bits(self) -> int:
        """Bits per granule metadata atom (flip-target range)."""
        assert self._fm is not None
        return self._fm.layout.meta_per_granule * 8

    def granule_of(self, addr: int) -> int:
        """Granule containing a data address."""
        assert self._fm is not None
        return self._fm.layout.granule_of(addr)

    # -- target sampling -------------------------------------------------------

    def sample_data_addr(self, rng: random.Random) -> Optional[int]:
        """A uniformly random resident data-sector address (None if none)."""
        assert self._fm is not None
        addrs = self._fm.resident_sector_addrs()
        return rng.choice(addrs) if addrs else None

    def sample_granule(self, rng: random.Random) -> Optional[int]:
        """A uniformly random granule with materialized metadata."""
        assert self._fm is not None
        granules = self._fm.resident_granules()
        return rng.choice(granules) if granules else None

    # -- corruption surface ----------------------------------------------------

    def flip_data(self, addr: int, bit: int, healable: bool = True) -> None:
        """Flip one data bit; journal it when healable."""
        assert self._fm is not None
        self._fm.inject_bit_flip(addr, bit, healable=healable)
        self._data_flips.add(1)
        self._trace("inject_data", addr=addr, bit=bit, healable=healable)

    def flip_metadata(self, granule: int, bit: int,
                      healable: bool = True) -> None:
        """Flip one metadata bit of a granule; journal it when healable."""
        assert self._fm is not None
        self._fm.inject_metadata_corruption(granule, bit, healable=healable)
        self._meta_flips.add(1)
        self._trace("inject_meta", granule=granule, bit=bit,
                    healable=healable)

    def assert_stuck(self, base: int, span_bytes: int, bit: int) -> None:
        """Force ``bit`` of every sector in a region to 1 (stuck-at-1)."""
        assert self._fm is not None
        fm = self._fm
        fired = False
        for addr in range(base, base + span_bytes, fm.sector_bytes):
            current = fm.read_sector(addr)
            if not current[bit // 8] & (1 << (bit % 8)):
                fm.inject_bit_flip(addr, bit, healable=False)
                fired = True
        if fired:
            self._stuck_asserts.add(1)
            self._trace("stuck_assert", base=base, span=span_bytes, bit=bit)

    # -- recovery heal hook ----------------------------------------------------

    def heal(self, granule: int, attempt: int) -> int:
        """Revert a granule's healable faults (recovery replay hook).

        Returns the number of bit flips healed; hard faults survive.
        """
        assert self._fm is not None
        healed = self._fm.revert_faults(granule)
        if healed:
            self._healed.add(healed)
            self._trace("heal", granule=granule, bits=healed,
                        attempt=attempt)
        return healed

    # -- scheduling ------------------------------------------------------------

    def arm(self) -> None:
        """Start periodic injection ticks (engine daemon events)."""
        if not self.processes:
            return
        assert self._sim is not None, "bind() before arm()"
        self._sim.schedule_daemon(self.interval, self._tick)

    def _tick(self) -> None:
        assert self._sim is not None
        now = self._sim.now
        for process in self.processes:
            process.step(self, self._rng, now, self.interval)
        self._sim.schedule_daemon(self.interval, self._tick)

    def _trace(self, name: str, **args) -> None:
        if self._tracer is not None:
            assert self._sim is not None
            self._tracer.instant("resilience", name, self._sim.now,
                                 args=args)
