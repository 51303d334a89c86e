"""Unit tests for the discrete-event engine."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Poll, SimulationError, Simulator, Watchdog
from repro.sim.stats import Counter


def test_initial_time_is_zero():
    assert Simulator().now == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "late")
    sim.schedule(5, fired.append, "early")
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 10


def test_same_cycle_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in range(20):
        sim.schedule(3, fired.append, tag)
    sim.run()
    assert fired == list(range(20))


def test_zero_delay_runs_after_queued_same_cycle_events():
    sim = Simulator()
    fired = []
    sim.schedule(0, fired.append, "first")

    def nested():
        fired.append("second")
        sim.schedule(0, fired.append, "third")

    sim.schedule(0, nested)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(42, fired.append, "x")
    sim.run()
    assert sim.now == 42 and fired == ["x"]


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: sim.schedule_at(5, lambda: None))
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, "a")
    sim.schedule(50, fired.append, "b")
    sim.run(until=10)
    assert fired == ["a"]
    assert sim.now == 10
    assert sim.pending() == 1
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_advances_time_with_empty_queue():
    sim = Simulator()
    sim.run(until=100)
    assert sim.now == 100


def test_max_events_guard_trips_on_livelock():
    sim = Simulator()

    def respawn():
        sim.schedule(0, respawn)

    sim.schedule(0, respawn)
    with pytest.raises(SimulationError):
        sim.run(max_events=1000)


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 7


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, 1)
    sim.schedule(2, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False


class TestStepDaemonAware:
    def test_step_skips_lone_daemon(self):
        sim = Simulator()
        fired = []
        sim.schedule_daemon(10, fired.append, "tick")
        assert sim.step() is False
        assert fired == [] and sim.now == 0
        assert sim.pending() == 1  # the daemon stays queued, untouched

    def test_step_runs_daemon_while_real_work_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule_daemon(5, fired.append, "tick")
        sim.schedule(20, fired.append, "work")
        assert sim.step() is True
        assert fired == ["tick"]
        assert sim.step() is True
        assert fired == ["tick", "work"]
        assert sim.step() is False

    def test_step_to_exhaustion_terminates_with_self_rescheduling_daemon(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule_daemon(10, tick)

        sim.schedule_daemon(10, tick)
        sim.schedule(35, lambda: None)
        steps = 0
        while sim.step():
            steps += 1
            assert steps < 100  # pre-fix this spun forever on the daemon
        # Same stop condition as run(): ticks at 10/20/30, then the
        # real event; the tick due at 40 is left queued.
        assert ticks == [10, 20, 30]
        assert sim.pending_work() == 0 and sim.pending() == 1

    def test_include_daemons_escape_hatch(self):
        sim = Simulator()
        fired = []
        sim.schedule_daemon(10, fired.append, "tick")
        assert sim.step(include_daemons=True) is True
        assert fired == ["tick"] and sim.now == 10
        assert sim.step(include_daemons=True) is False  # queue truly empty

    def test_step_counts_events_executed(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        while sim.step():
            pass
        assert sim.events_executed == 2


def test_step_is_not_reentrant():
    sim = Simulator()
    errors = []

    def bad():
        try:
            sim.step()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0, bad)
    assert sim.step() is True
    assert len(errors) == 1


def test_step_inside_run_rejected():
    sim = Simulator()
    errors = []

    def bad():
        try:
            sim.step()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0, bad)
    sim.run()
    assert len(errors) == 1


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(2, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 10


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def bad():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0, bad)
    sim.run()
    assert len(errors) == 1


def test_run_until_equal_to_event_time_executes_it():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "x")
    sim.run(until=10)
    assert fired == ["x"] and sim.now == 10


def test_max_events_boundary_is_inclusive():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run(max_events=5)  # exactly at the limit: fine
    assert sim.events_executed == 5

    sim2 = Simulator()
    for _ in range(6):
        sim2.schedule(1, lambda: None)
    with pytest.raises(SimulationError):
        sim2.run(max_events=5)


def test_run_returns_final_time():
    sim = Simulator()
    sim.schedule(7, lambda: None)
    assert sim.run() == 7
    assert sim.run(until=30) == 30


def test_events_executed_survives_multiple_runs():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.run()
    sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 2


class TestDaemonEvents:
    def test_lone_daemon_does_not_run_or_advance_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_daemon(10, fired.append, "tick")
        sim.run()
        assert fired == []
        assert sim.now == 0
        assert sim.pending() == 1 and sim.pending_work() == 0

    def test_daemon_runs_while_real_work_is_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule_daemon(5, fired.append, "tick")
        sim.schedule(20, fired.append, "work")
        sim.run()
        assert fired == ["tick", "work"]
        assert sim.now == 20

    def test_self_rescheduling_daemon_stops_with_real_work(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule_daemon(10, tick)

        sim.schedule_daemon(10, tick)
        sim.schedule(35, lambda: None)
        sim.run()
        # Fires at 10, 20, 30; the tick due at 40 is past the last real
        # event and must neither run nor hold the clock at 40.
        assert ticks == [10, 20, 30]
        assert sim.now == 35
        assert sim.pending_work() == 0 and sim.pending() == 1

    def test_daemon_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_daemon(-1, lambda: None)

    def test_daemon_may_schedule_real_work(self):
        sim = Simulator()
        fired = []

        def tick():
            sim.schedule(1, fired.append, "spawned")

        sim.schedule_daemon(2, tick)
        sim.schedule(5, fired.append, "work")
        sim.run()
        assert fired == ["spawned", "work"]


class TestWatchdog:
    def test_livelock_trips_no_progress(self):
        from repro.sim.engine import Watchdog

        sim = Simulator()

        def spin():
            sim.schedule(0, spin)

        sim.schedule(0, spin)
        dog = Watchdog(check_every_events=100, max_stalled_checks=2)
        with pytest.raises(SimulationError, match="no progress"):
            sim.run(watchdog=dog)
        assert sim.now == 0  # the clock genuinely never advanced

    def test_advancing_clock_never_trips(self):
        from repro.sim.engine import Watchdog

        sim = Simulator()
        count = [0]

        def step():
            count[0] += 1
            if count[0] < 2000:
                sim.schedule(1, step)

        sim.schedule(1, step)
        sim.run(watchdog=Watchdog(check_every_events=100,
                                  max_stalled_checks=2))
        assert count[0] == 2000

    def test_bursty_same_cycle_fanout_tolerated(self):
        from repro.sim.engine import Watchdog

        sim = Simulator()
        fired = []
        # 150 same-cycle events is a fan-out, not a livelock: one
        # stalled check is forgiven when the clock then advances.
        for _ in range(150):
            sim.schedule(5, fired.append, 1)
        sim.schedule(6, fired.append, 2)
        sim.run(watchdog=Watchdog(check_every_events=100,
                                  max_stalled_checks=2))
        assert len(fired) == 151

    def test_wall_clock_budget_trips(self):
        from repro.sim.engine import Watchdog

        sim = Simulator()

        def crawl():
            sim.schedule(1, crawl)

        sim.schedule(1, crawl)
        dog = Watchdog(check_every_events=10, max_wall_seconds=0.05)
        with pytest.raises(SimulationError, match="wall"):
            sim.run(watchdog=dog)

    def test_start_resets_state_between_runs(self):
        from repro.sim.engine import Watchdog

        dog = Watchdog(check_every_events=100, max_stalled_checks=2)
        for _ in range(2):  # a tripped dog must be reusable after start()
            sim = Simulator()

            def spin(sim=sim):
                sim.schedule(0, spin)

            sim.schedule(0, spin)
            with pytest.raises(SimulationError):
                sim.run(watchdog=dog)

    def test_validation(self):
        from repro.sim.engine import Watchdog

        with pytest.raises(ValueError):
            Watchdog(check_every_events=0)
        with pytest.raises(ValueError):
            Watchdog(max_stalled_checks=0)


# -- calendar-queue oracle ---------------------------------------------------


class HeapEngine:
    """A binary-heap engine with the same contract as :class:`Simulator`:
    every event is a ``(time, sequence)``-keyed heap entry, and a parked
    poll is an ordinary entry whose turn checks the epoch.  The oracle
    below holds the calendar queue to it."""

    def __init__(self):
        self._now = 0
        self._seq = 0
        self._queue = []
        self._running = False
        self._daemons = 0
        self.events_executed = 0

    @property
    def now(self):
        return self._now

    def _push(self, when, fn, args):
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, fn, args))

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError("past")
        self._push(self._now + delay, fn, args)

    def schedule_at(self, when, fn, *args):
        if when < self._now:
            raise SimulationError("past")
        self._push(when, fn, args)

    def schedule_daemon(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError("past")
        self._daemons += 1
        self._push(self._now + delay, self._run_daemon, (fn, args))

    def _run_daemon(self, fn, args):
        self._daemons -= 1
        fn(*args)

    def park(self, delay, poll):
        if delay < 0:
            raise SimulationError("past")
        self._push(self._now + delay, self._turn, (poll,))

    def _turn(self, poll):
        if poll.source.epoch != poll.epoch:
            poll.fn(*poll.args)
            return
        for counter, amount in poll.counts:
            counter.value += amount
        self._push(self._now + poll.period, self._turn, (poll,))

    def pending(self):
        return len(self._queue)

    def pending_work(self):
        return len(self._queue) - self._daemons

    def run(self, until=None, max_events=None, watchdog=None):
        if self._running:
            raise SimulationError("re-entered")
        self._running = True
        executed = 0
        if watchdog is not None:
            watchdog.start()
        try:
            while len(self._queue) > self._daemons:
                when, _seq, fn, args = self._queue[0]
                if until is not None and when > until:
                    break
                heapq.heappop(self._queue)
                self._now = when
                fn(*args)
                executed += 1
                if max_events is not None and executed > max_events:
                    raise SimulationError("max_events")
                if watchdog is not None \
                        and executed % watchdog.check_every_events == 0:
                    watchdog.check(self._now)
        finally:
            self._running = False
            self.events_executed += executed
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def step(self, include_daemons=False):
        if self._running:
            raise SimulationError("re-entered")
        if not include_daemons and len(self._queue) <= self._daemons:
            return False
        if not self._queue:
            return False
        self._running = True
        try:
            when, _seq, fn, args = heapq.heappop(self._queue)
            self._now = when
            fn(*args)
            self.events_executed += 1
        finally:
            self._running = False
        return True


class Boom(Exception):
    """Raised by a program event on purpose."""


class _Source:
    def __init__(self):
        self.epoch = 0


class ProgramRun:
    """Interprets a generated program against one engine and logs what
    fired: ``(now, label, counter value, pending())`` per event, plus
    what each call of :meth:`drive` returned or raised.  The clock must
    be an ``int`` whenever it is read."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.sources = [_Source(), _Source()]
        self.counter = Counter("polled")

    def event(self, node):
        label, actions = node

        def fire():
            assert type(self.sim.now) is int
            self.log.append((self.sim.now, label, self.counter.value,
                             self.sim.pending()))
            for action in actions:
                self.perform(action)
        return fire

    def perform(self, action):
        kind, args = action[0], action[1:]
        sim = self.sim
        if kind == "schedule":
            sim.schedule(args[0], self.event(args[1]))
        elif kind == "schedule_at":
            sim.schedule_at(sim.now + args[0], self.event(args[1]))
        elif kind == "daemon":
            sim.schedule_daemon(args[0], self.event(args[1]))
        elif kind == "park":
            delay, period, source, amount, node = args
            sim.park(delay, Poll(self.sources[source], period,
                                 ((self.counter, amount),),
                                 self.event(node)))
        elif kind == "bump":
            self.sources[args[0]].epoch += 1
        else:
            raise Boom(kind)

    def drive(self, calls):
        for call in calls:
            try:
                if call[0] == "run":
                    until, max_events, dog = call[1:]
                    watchdog = None if dog is None else Watchdog(
                        check_every_events=dog[0], max_stalled_checks=dog[1])
                    outcome = self.sim.run(until=until, max_events=max_events,
                                           watchdog=watchdog)
                elif call[0] == "step":
                    outcome = self.sim.step(include_daemons=call[1])
                else:
                    outcome = self.perform(call[1])
            except (Boom, SimulationError) as exc:
                outcome = type(exc).__name__
            assert type(self.sim.now) is int
            self.log.append((call[0], outcome, self.sim.now,
                             self.sim.pending(), self.sim.pending_work(),
                             self.sim.events_executed, self.counter.value))
        return self.log


DELAYS = st.integers(0, 3)


def event_nodes():
    labels = st.integers(0, 9)
    return st.recursive(
        st.tuples(labels, st.just(())),
        lambda node: st.tuples(labels, st.lists(actions(node), max_size=3)),
        max_leaves=12)


def actions(node):
    return st.one_of(
        st.tuples(st.just("schedule"), DELAYS, node),
        st.tuples(st.just("schedule_at"), DELAYS, node),
        st.tuples(st.just("daemon"), DELAYS, node),
        st.tuples(st.just("park"), DELAYS, st.integers(1, 3),
                  st.integers(0, 1), st.integers(1, 2), node),
        st.tuples(st.just("bump"), st.integers(0, 1)),
        st.just(("raise",)),
        st.tuples(st.just("schedule"), st.just(-1), node),
    )


def driver_calls():
    watchdogs = st.none() | st.tuples(st.integers(1, 8), st.integers(1, 3))
    run = st.tuples(st.just("run"), st.none() | st.integers(0, 12),
                    st.integers(0, 60), watchdogs)
    return st.lists(
        st.one_of(run, st.tuples(st.just("step"), st.booleans()),
                  st.tuples(st.just("act"), actions(event_nodes()))),
        min_size=1, max_size=6)


@given(st.lists(actions(event_nodes()), max_size=5), driver_calls())
@settings(max_examples=400, deadline=None)
def test_calendar_queue_matches_heap_engine(setup, calls):
    """Nested schedule/schedule_at/schedule_daemon/park programs fire in
    the same (time, order) sequence on both engines, raise at the same
    points and leave the same clock, queue and event counts; every
    event and every call sees the same ``pending()`` and an ``int``
    clock."""
    calls = [("act", action) for action in setup] + calls
    expected = ProgramRun(HeapEngine()).drive(calls)
    assert ProgramRun(Simulator()).drive(calls) == expected


def test_parked_poll_replays_counts_until_the_epoch_moves():
    sim = Simulator()
    source = _Source()
    polled = Counter("polled")
    fired = []
    sim.park(4, Poll(source, 4, ((polled, 2),), fired.append, "retry"))
    sim.schedule(13, lambda: setattr(source, "epoch", 1))
    sim.run()
    # Turns at 4, 8 and 12 replay the failure; the turn at 16 sees the
    # bumped epoch and runs the real retry.
    assert polled.value == 6 and fired == ["retry"]
    assert sim.now == 16 and sim.events_executed == 5


class TestObserverEvents:
    """Observer daemons (metrics-sampler ticks) are not model events."""

    def _sim_with_observer(self, every=3):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule_observer(every, tick)

        sim.schedule_observer(every, tick)
        return sim, ticks

    def test_observer_turns_are_not_counted(self):
        sim, ticks = self._sim_with_observer()
        for t in range(1, 11):
            sim.schedule(t, lambda: None)
        sim.run()
        assert ticks == [3, 6, 9]
        assert sim.events_executed == 10
        assert sim.now == 10 and sim.pending_work() == 0

    def test_step_does_not_count_observer_turns(self):
        sim, ticks = self._sim_with_observer()
        sim.schedule(5, lambda: None)
        while sim.step():
            pass
        assert ticks == [3]
        assert sim.events_executed == 1

    def test_max_events_counts_model_events_only(self):
        sim, ticks = self._sim_with_observer(every=1)
        for t in range(1, 6):
            sim.schedule(t, lambda: None)
        sim.run(max_events=5)  # five model events fit, observers aside
        assert sim.events_executed == 5 and ticks

        sim2, _ticks = self._sim_with_observer(every=1)
        for t in range(1, 7):
            sim2.schedule(t, lambda: None)
        with pytest.raises(SimulationError):
            sim2.run(max_events=5)
        assert sim2.events_executed == 6

    def test_watchdog_period_counts_model_events_only(self):
        checks = []

        class Recording(Watchdog):
            def check(self, now):
                checks.append(now)

        sim, _ticks = self._sim_with_observer(every=1)
        for t in range(1, 9):
            sim.schedule(t, lambda: None)
        sim.run(watchdog=Recording(check_every_events=4))
        assert checks == [4, 8]


def test_sampled_run_counts_the_events_of_a_bare_run():
    """spmv/metadata-cache on the bench machine: the sampler's ticks
    are absent from ``engine.events`` and so from events/s."""
    from repro.analysis.harness import bench_config, bench_gen_ctx
    from repro.core.system import run_workload
    from repro.obs.hub import Observability
    from repro.workloads import make_workload

    config = bench_config().with_scheme("metadata-cache")
    gen_ctx = bench_gen_ctx(config, scale=0.01, seed=42)
    bare = run_workload(make_workload("spmv"), config, gen_ctx=gen_ctx)
    obs = Observability(sample_interval=200)
    sampled = run_workload(make_workload("spmv"), config, gen_ctx=gen_ctx,
                           obs=obs)
    assert len(obs.sampler.samples) > 10
    assert sampled.stats == bare.stats
    assert sampled.events_executed == bare.events_executed
