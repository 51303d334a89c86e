"""The discrete-event engine.

A :class:`Simulator` owns the clock and the event queue.  Time is an
integer number of *core cycles*; all component latencies are expressed
in core cycles (the DRAM model converts its own clock domain into core
cycles at configuration time).

Events are plain ``(callable, args)`` pairs.  Two events scheduled for
the same cycle fire in the order they were scheduled, which keeps runs
bit-for-bit reproducible.  The queue is a calendar: one FIFO list per
cycle that has events, plus a heap of those cycles, so scheduling is a
dict lookup and an append, and only a new cycle touches the heap.

A component whose retry would fail the same way until its own state
changes queues that retry as a :class:`Poll` (:meth:`Simulator.park`);
the engine then replays the failure's counter increments instead of
calling the component.
"""

from __future__ import annotations

import heapq
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for engine misuse (scheduling in the past, runaway runs)."""


class Watchdog:
    """Livelock / wall-clock guard for :meth:`Simulator.run`.

    Two independent trip conditions, both checked every
    ``check_every_events`` executed events (the run loop calls
    :meth:`check`; events in between cost nothing):

    * **No progress** — the clock has not advanced across
      ``max_stalled_checks`` consecutive checks.  A handful of events
      sharing one cycle is normal (a fetch fan-out); hundreds of
      thousands at the same cycle means something is rescheduling
      itself with zero delay forever.
    * **Wall clock** — host time since :meth:`start` exceeded
      ``max_wall_seconds`` (``None`` disables).

    Either condition raises :class:`SimulationError`.  The same
    instance may guard several runs; :meth:`start` resets its state.
    """

    def __init__(self, check_every_events: int = 50_000,
                 max_stalled_checks: int = 3,
                 max_wall_seconds: Optional[float] = None):
        if check_every_events < 1:
            raise ValueError("check_every_events must be >= 1")
        if max_stalled_checks < 1:
            raise ValueError("max_stalled_checks must be >= 1")
        self.check_every_events = check_every_events
        self.max_stalled_checks = max_stalled_checks
        self.max_wall_seconds = max_wall_seconds
        self._last_now: Optional[int] = None
        self._stalled_checks = 0
        self._started_at = 0.0

    def start(self) -> None:
        """Reset state at the beginning of a run."""
        self._last_now = None
        self._stalled_checks = 0
        self._started_at = time.monotonic()

    def check(self, now: int) -> None:
        """Raise if a trip condition holds; called once every
        ``check_every_events`` executed events of a run."""
        if self._last_now is not None and now == self._last_now:
            self._stalled_checks += 1
            if self._stalled_checks >= self.max_stalled_checks:
                raise SimulationError(
                    f"watchdog: no progress — clock stuck at cycle {now} "
                    f"for {self._stalled_checks * self.check_every_events} "
                    f"events (livelock?)"
                )
        else:
            self._stalled_checks = 0
        self._last_now = now
        if self.max_wall_seconds is not None:
            elapsed = time.monotonic() - self._started_at
            if elapsed > self.max_wall_seconds:
                raise SimulationError(
                    f"watchdog: wall-clock budget exceeded "
                    f"({elapsed:.1f}s > {self.max_wall_seconds}s at cycle {now})"
                )


class Poll:
    """A stalled retry, queued with :meth:`Simulator.park`.

    ``source`` is the component whose state decides whether the retry
    ``fn(*args)`` can succeed.  It keeps an integer ``epoch`` and bumps
    it on every change to that state, so while ``source.epoch`` still
    equals the epoch recorded here, the retry would fail exactly as the
    attempt that parked it did.  ``counts`` lists that failure's counter
    increments as ``(counter, amount)`` pairs, the retry's own included;
    each component names its own counters.  ``period`` is the retry
    interval in cycles.
    """

    __slots__ = ("source", "epoch", "period", "counts", "fn", "args")

    def __init__(self, source: Any, period: int,
                 counts: Tuple[Tuple[Any, int], ...],
                 fn: Callable[..., None], *args: Any):
        self.source = source
        self.epoch = source.epoch
        self.period = period
        self.counts = counts
        self.fn = fn
        self.args = args


class Simulator:
    """A single-clock discrete-event simulator.

    The queue is a calendar: ``_buckets`` maps each cycle that has
    events to a FIFO list of ``(fn, args)`` (``(None, poll)`` for a
    parked :class:`Poll`), and ``_times`` is a heap of those cycles.
    ``_head`` counts the executed entries of the earliest bucket; a
    bucket is dropped once its last entry has run, so between calls the
    earliest bucket always holds an unexecuted entry.  An event
    scheduled for the current cycle joins the bucket being run, after
    everything already in it.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(10, fired.append, "a")
    >>> sim.schedule(5, fired.append, "b")
    >>> sim.run()
    10
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        #: Current simulation time in core cycles: a plain attribute
        #: that only the engine writes (:meth:`run` and :meth:`step`
        #: set it as each cycle's events begin).  Always an ``int``.
        self.now: int = 0
        self._buckets: Dict[int, List[Tuple[Optional[Callable[..., None]],
                                            Any]]] = {}
        self._times: List[int] = []
        self._head = 0
        #: Queued (not yet executed) events, daemons included.
        self._pending = 0
        self._running = False
        #: Queued events that are *daemons* (observability ticks etc.);
        #: they never keep a run alive on their own.
        self._daemons: int = 0
        #: Total events executed, observer turns excepted; useful for
        #: performance accounting.
        self.events_executed: int = 0
        #: Observer turns run so far (see :meth:`schedule_observer`).
        self._observer_turns = 0

    def _enqueue(self, when: int, fn: Optional[Callable[..., None]],
                 args: Any) -> None:
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(fn, args)]
            heapq.heappush(self._times, when)
        else:
            bucket.append((fn, args))
        self._pending += 1

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay fires later in the
        current cycle, after already-queued same-cycle events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        # :meth:`_enqueue` inlined here and in :meth:`schedule_at`: the
        # model queues nearly every event through these two.
        when = self.now + int(delay)
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(fn, args)]
            heapq.heappush(self._times, when)
        else:
            bucket.append((fn, args))
        self._pending += 1

    def schedule_at(self, when: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``when`` (>= now)."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when}, current time is {self.now}"
            )
        when = int(when)
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(fn, args)]
            heapq.heappush(self._times, when)
        else:
            bucket.append((fn, args))
        self._pending += 1

    def schedule_daemon(self, delay: int, fn: Callable[..., None],
                        *args: Any) -> None:
        """Schedule a *daemon* event ``delay`` cycles from now.

        Daemon events (fault-injector ticks, and the observers of
        :meth:`schedule_observer`) run like any other event while real
        work is queued, but :meth:`run` stops — without executing them
        or advancing time — once only daemons remain.  A periodic
        daemon can therefore reschedule itself freely without turning a
        finite simulation into an infinite one.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        self._daemons += 1
        self._enqueue(self.now + int(delay), self._run_daemon, (fn, args))

    def _run_daemon(self, fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self._daemons -= 1
        fn(*args)

    def schedule_observer(self, delay: int, fn: Callable[..., None],
                          *args: Any) -> None:
        """Schedule an *observer* daemon ``delay`` cycles from now.

        An observer (a metrics-sampler tick) watches the model without
        acting in it.  It runs like any daemon, but its turn is not a
        model event: :attr:`events_executed` leaves it out, and
        ``max_events`` and a watchdog's check period count only the
        other events, so an observed run executes, reports and bounds
        exactly the events of a bare one.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        self._daemons += 1
        self._enqueue(self.now + int(delay), self._run_observer, (fn, args))

    def _run_observer(self, fn: Callable[..., None],
                      args: Tuple[Any, ...]) -> None:
        self._daemons -= 1
        self._observer_turns += 1
        fn(*args)

    def park(self, delay: int, poll: Poll) -> None:
        """Queue ``poll``'s retry ``delay`` cycles from now.

        When its turn comes and ``poll.source.epoch`` still equals the
        epoch the poll recorded, the engine adds ``poll.counts`` and
        queues the poll again ``poll.period`` cycles later, without
        calling any component.  Otherwise it calls ``poll.fn(*poll.args)``
        at that same queue position.  Either way the turn is one
        executed event, so ``events_executed``, ``max_events`` and the
        watchdog see exactly the events that scheduling the retry each
        time would have run.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        # A parked poll is queued as ``(None, poll)``; :meth:`run`
        # handles those entries inline and :meth:`step` through
        # :meth:`_turn`.
        self._enqueue(self.now + int(delay), None, poll)

    def _turn(self, poll: Poll) -> None:
        if poll.source.epoch != poll.epoch:
            poll.fn(*poll.args)
            return
        for counter, amount in poll.counts:
            counter.value += amount
        self._enqueue(self.now + poll.period, None, poll)

    def pending(self) -> int:
        """Number of events still queued (daemons included)."""
        return self._pending

    def pending_work(self) -> int:
        """Number of queued non-daemon events."""
        return self._pending - self._daemons

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None,
            watchdog: Optional[Watchdog] = None) -> int:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop (without executing) events scheduled after this time.
        max_events:
            Safety valve against runaway simulations; raises
            :class:`SimulationError` when exceeded.
        watchdog:
            Optional :class:`Watchdog`, checked every
            ``watchdog.check_every_events`` executed events for
            no-progress and wall-clock trip conditions.

        Returns the simulation time after the run.
        """
        if self._running:
            raise SimulationError("run() re-entered from inside an event")
        self._running = True
        horizon = float("inf") if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        every = sys.maxsize
        if watchdog is not None:
            watchdog.start()
            every = watchdog.check_every_events
        # One local comparison per event covers the budget and the
        # watchdog: ``stop`` is the next model-event count at which
        # either needs a look, and ``checkpoint`` the executed-event
        # count at which that is due if no observer turn runs first.
        stop = checkpoint = min(budget + 1, every)
        executed = 0
        observed = self._observer_turns
        buckets = self._buckets
        times = self._times
        heappop = heapq.heappop
        heappush = heapq.heappush
        i = self._head
        try:
            # ``_pending`` and ``_daemons`` change inside fn(*args), so
            # the stop condition reads them fresh for every event.
            while self._pending > self._daemons:
                when = times[0]
                if when > horizon:
                    break
                self.now = when
                bucket = buckets[when]
                while i < len(bucket):
                    if self._daemons and self._pending <= self._daemons:
                        break
                    fn, args = bucket[i]
                    i += 1
                    if fn is not None:
                        self._pending -= 1
                        fn(*args)
                    elif args.source.epoch != args.epoch:
                        self._pending -= 1
                        args.fn(*args.args)
                    else:
                        # :meth:`_turn` inlined: replayed turns can be
                        # half the events of a stall-bound run.  The
                        # poll leaves the queue and rejoins it, so
                        # ``_pending`` stays as it is.
                        for counter, amount in args.counts:
                            counter.value += amount
                        later = when + args.period
                        queued = buckets.get(later)
                        if queued is None:
                            buckets[later] = [(None, args)]
                            heappush(times, later)
                        else:
                            queued.append((None, args))
                    executed += 1
                    if executed == checkpoint:
                        counted = executed - (self._observer_turns
                                              - observed)
                        if counted == stop:
                            if counted > budget:
                                raise SimulationError(
                                    f"exceeded max_events={max_events}; "
                                    f"likely a livelock"
                                )
                            watchdog.check(when)
                            stop = min(budget + 1, counted + every)
                        checkpoint = executed + stop - counted
                else:
                    del buckets[when]
                    heappop(times)
                    i = 0
        finally:
            if times and i == len(buckets[times[0]]):
                # The bucket's last event raised: drop the bucket.
                del buckets[heappop(times)]
                i = 0
            self._head = i
            self._running = False
            self.events_executed += executed - (self._observer_turns
                                                - observed)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def step(self, include_daemons: bool = False) -> bool:
        """Execute the single next event.  Returns False when no
        runnable event remains.

        Like :meth:`run`, stepping honors the daemon stop condition: a
        queue holding only daemon events reports False without
        executing them or advancing time (otherwise stepping a finite
        simulation to exhaustion could spin forever on a
        self-rescheduling daemon).  Pass ``include_daemons=True`` to
        execute daemons anyway (a test escape hatch).  Calling
        ``step()`` from inside an event raises, matching :meth:`run`'s
        re-entrancy guard.
        """
        if self._running:
            raise SimulationError("step() re-entered from inside an event")
        if not include_daemons and self._pending <= self._daemons:
            return False
        if not self._pending:
            return False
        self._running = True
        when = self._times[0]
        bucket = self._buckets[when]
        fn, args = bucket[self._head]
        self._head += 1
        self._pending -= 1
        observed = self._observer_turns
        try:
            self.now = when
            if fn is None:
                self._turn(args)
            else:
                fn(*args)
            self.events_executed += 1 - (self._observer_turns - observed)
        finally:
            if self._head == len(bucket):
                del self._buckets[heapq.heappop(self._times)]
                self._head = 0
            self._running = False
        return True
