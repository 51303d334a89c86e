"""Deterministic self-profiler: flamegraphs of the simulator itself.

Wall-time profilers answer "where did the host seconds go" but their
output changes run to run — useless for diffing two engine versions or
pinning a perf regression in CI.  This profiler samples on **executed
event count** instead of wall time: every ``sample_every``-th frame the
engine executes, the current *component stack* is credited with one
sample.  Same workload + same seed ⇒ same event sequence ⇒ the
collapsed-stack output is **bit-identical across runs**.

A *frame* is one scheduled callable, named after the component that
owns it (``sm0`` → ``coalescer`` → ``l2_slice3`` → ``mdcache`` /
``dram0``).  Stacks are *scheduling ancestry*: when an event running
under stack ``S`` schedules another event, the child runs under
``S + (child frame,)``.  That is exactly the causality chain a memory
access follows through the machine, so the flamegraph reads as the
hardware pipeline.

The profiler wraps the scheduling surface 1:1 — each scheduled ``fn``
becomes one wrapper frame, one queue entry, executed once — so
``events_executed`` and **every simulation counter are unchanged**;
only host-side sample counts are collected.  A retry parked with
``Simulator.park`` is scheduled as its real retry instead, so every
turn of it is a frame too.  Both fidelity tiers are
supported: :meth:`FlameProfiler.instrument` hooks
:class:`~repro.sim.engine.Simulator` and the functional tier's
``ImmediateQueue`` alike (duck-typed ``schedule``/``schedule_at``/
``schedule_daemon``), and :meth:`FlameProfiler.wrap_root` roots each
memory op of the functional tier's replay loop at ``smN.step``.

Output is the classic *collapsed stack* format (``frame;frame;frame
count``, one line per stack, sorted) consumed directly by
``flamegraph.pl`` and speedscope.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: Stacks deeper than this stop growing (retry/recursion chains would
#: otherwise mint unbounded distinct stacks).
MAX_DEPTH = 24

#: Default sampling period in executed frames.  Small enough that a
#: tiny smoke cell still collects hundreds of samples; sampling cost is
#: one modulo per frame either way.
DEFAULT_SAMPLE_EVERY = 64

_WRAPPED_METHODS = ("schedule", "schedule_at", "schedule_daemon")


def frame_name(fn: Callable[..., Any]) -> str:
    """A stable human-readable name for one scheduled callable.

    Bound methods are named ``<component>.<method>`` where the
    component identity comes from the owner's ``name`` / ``sm_id`` /
    ``slice_id`` attribute (falling back to the class name); free
    functions use their qualname with closure noise stripped; a
    ``functools.partial`` is named after the callable it wraps.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    owner = getattr(fn, "__self__", None)
    method = getattr(fn, "__name__", None) or "<callable>"
    if owner is not None:
        name = getattr(owner, "name", None)
        if isinstance(name, str) and name:
            comp = name
        elif hasattr(owner, "sm_id"):
            comp = f"sm{owner.sm_id}"
        elif hasattr(owner, "slice_id"):
            comp = f"l2_slice{owner.slice_id}"
        else:
            comp = type(owner).__name__
        return f"{comp}.{method.lstrip('_')}"
    qual = getattr(fn, "__qualname__", method)
    return qual.replace("<locals>.", "")


class FlameProfiler:
    """Collects deterministic collapsed-stack samples from one system.

    Lifecycle: construct → :meth:`instrument` the system's scheduler
    (done by ``Observability.attach``) → run → :meth:`collapsed` /
    :meth:`export` → :meth:`release`.
    """

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = int(sample_every)
        #: stack tuple -> sample count.
        self.samples: Dict[Tuple[str, ...], int] = {}
        #: Frames executed under the profiler (sampled or not).
        self.frames_executed = 0
        self._stack: Tuple[str, ...] = ()
        self._sim: Optional[Any] = None
        self._saved: Dict[str, Optional[Callable[..., Any]]] = {}

    # -- instrumentation -----------------------------------------------------

    def instrument(self, sim: Any) -> None:
        """Hook the scheduling surface of ``sim`` (an engine
        ``Simulator`` or a functional-tier ``ImmediateQueue``).

        Each original ``schedule*(delay, fn, *args)`` is shadowed by a
        version that enqueues a frame wrapper around ``fn`` — still
        exactly one queue entry per call.  ``park(delay, poll)`` becomes
        a (wrapped) ``schedule`` of the poll's real retry, which is what
        each turn of the poll stands for.
        """
        if self._sim is not None:
            raise RuntimeError(
                "FlameProfiler is already instrumenting a simulator; "
                "release() it before instrumenting another")
        self._sim = sim
        for method in _WRAPPED_METHODS:
            orig = getattr(sim, method, None)
            if orig is None:
                continue
            self._saved[method] = sim.__dict__.get(method)
            setattr(sim, method, self._make_schedule(orig))
        if getattr(sim, "park", None) is not None:
            self._saved["park"] = sim.__dict__.get("park")
            schedule = sim.schedule

            def park(delay: int, poll: Any) -> None:
                schedule(delay, poll.fn, *poll.args)
            sim.park = park

    def _make_schedule(self, orig: Callable[..., Any]) -> Callable[..., Any]:
        def schedule(delay: int, fn: Callable[..., None],
                     *args: Any) -> None:
            stack = self._push(self._stack, frame_name(fn))
            orig(delay, self._run_frame, stack, fn, args)
        return schedule

    def release(self) -> None:
        """Unhook the scheduler (already-queued wrappers still drain
        correctly; they only stop extending stacks)."""
        sim = self._sim
        if sim is None:
            return
        for method, saved in self._saved.items():
            if saved is None:
                sim.__dict__.pop(method, None)
            else:
                setattr(sim, method, saved)
        self._saved.clear()
        self._sim = None

    # -- frame execution -----------------------------------------------------

    def _push(self, stack: Tuple[str, ...], frame: str) -> Tuple[str, ...]:
        if stack and stack[-1] == frame:
            return stack  # collapse self-reschedule chains
        if len(stack) >= MAX_DEPTH:
            return stack
        return stack + (frame,)

    def _run_frame(self, stack: Tuple[str, ...], fn: Callable[..., None],
                   args: Tuple[Any, ...]) -> None:
        self.frames_executed += 1
        if self.frames_executed % self.sample_every == 0:
            self.samples[stack] = self.samples.get(stack, 0) + 1
        prev = self._stack
        self._stack = stack
        try:
            fn(*args)
        finally:
            self._stack = prev

    def wrap_root(self, name: str, fn: Callable[..., Any]
                  ) -> Callable[..., Any]:
        """Run ``fn`` under an explicit root frame.

        The functional tier drives SMs from a host-side loop rather
        than scheduled events, so its root (``smN.step``, one per
        memory op) must be planted by the caller; micro-tasks the op
        drains then inherit it through the instrumented queue.
        """
        def runner(*args: Any, **kwargs: Any) -> Any:
            stack = self._push(self._stack, name)
            self.frames_executed += 1
            if self.frames_executed % self.sample_every == 0:
                self.samples[stack] = self.samples.get(stack, 0) + 1
            prev = self._stack
            self._stack = stack
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack = prev
        return runner

    # -- output --------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        return sum(self.samples.values())

    def collapsed(self) -> str:
        """Collapsed-stack text: ``frame;frame count`` lines, sorted.

        Sorting makes the output canonical — bit-identical for
        identical sample sets regardless of dict insertion order.
        """
        lines: List[str] = []
        for stack, count in self.samples.items():
            frames = ";".join(stack) if stack else "(root)"
            lines.append(f"{frames} {count}")
        lines.sort()
        return "\n".join(lines) + ("\n" if lines else "")

    def export(self, path: Union[str, os.PathLike]) -> Path:
        """Write :meth:`collapsed` to ``path`` (atomic replace)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self.collapsed(), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def top_stacks(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` hottest stacks as ``("a;b;c", count)`` pairs."""
        ranked = sorted(self.samples.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return [(";".join(stack) if stack else "(root)", count)
                for stack, count in ranked[:n]]
