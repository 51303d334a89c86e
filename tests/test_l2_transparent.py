"""The functional tier's recorded L2 replay (stages 2 and 3 of
:mod:`repro.sim.functional`) against its fused replay.

A scheme that declares ``l2_transparent`` replays against one
recording of the L2 per trace and machine shape, once its process has
replayed the trace before; the oracle is the same run with the class
attribute set to ``False``, which takes the fused replay through the
run's own slices.  Every counter, ``engine.events`` included, and every
traffic byte must agree on any machine shape.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.system as system_mod
import repro.sim.functional as functional_mod
from repro.analysis.harness import ExperimentHarness
from repro.core.config import ALL_SCHEMES, test_config as small_config
from repro.core.system import GpuSystem
from repro.obs.flame import FlameProfiler
from repro.obs.hub import Observability
from repro.obs.inspect import MemoryInspector
from repro.protection.base import (SCHEME_REGISTRY, ProtectionContext,
                                   scheme_class)
from repro.sim.engine import SimulationError
from repro.sim.functional import L2Geometry, record_l2
from repro.workloads.base import (GenContext, make_workload,
                                  materialize_compiled,
                                  materialize_l2_stream, trace_cache_clear,
                                  trace_cache_stats)

TRANSPARENT = tuple(name for name in ALL_SCHEMES
                    if scheme_class(name).l2_transparent)
CTX = GenContext(num_sms=2, warps_per_sm=3, scale=0.02, seed=7)
L2_SERVICES = ("l2_resident_verified", "l2_install", "l2_poison",
               "l2_invalidate")


def _config(scheme, flush_at_end=True, functional=False, **gpu):
    config = small_config(num_sms=2, warps_per_sm=3, **gpu) \
        .with_scheme(scheme).with_fidelity("functional")
    if functional:
        config = config.with_protection(functional=True)
    return dataclasses.replace(config, flush_at_end=flush_at_end)


def _system(config, workload, obs=None, replayed=True):
    """A functional system with ``workload`` loaded.  ``replayed``
    memoizes the trace's L2 request stream first, as a process that has
    replayed the trace before holds it, so that an unobserved run under
    an L2-transparent scheme takes the recorded replay."""
    gpu = config.gpu
    system = GpuSystem(config, obs=obs)
    system.load_workload(make_workload(workload), dataclasses.replace(
        CTX, line_bytes=gpu.line_bytes, sector_bytes=gpu.sector_bytes))
    if replayed:
        materialize_l2_stream(system.compiled, system.l1_geometry)
    return system


def _run(config, workload, obs=None, replayed=True):
    """``(traffic, flattened stats)`` of one functional run."""
    system = _system(config, workload, obs=obs, replayed=replayed)
    system.run()
    result = system.result(workload, 0)
    system.release()
    return result.traffic, result.stats


def _spy_paths(monkeypatch):
    """The replays the runs that follow take, in order."""
    paths = []
    real_record, real_fused = (system_mod.replay_record,
                               system_mod.replay_columnar)
    monkeypatch.setattr(system_mod, "replay_record", lambda *a, **k: (
        paths.append("record"), real_record(*a, **k))[1])
    monkeypatch.setattr(system_mod, "replay_columnar", lambda *a, **k: (
        paths.append("fused"), real_fused(*a, **k))[1])
    return paths


def _fused(config, workload):
    """The same run with its scheme's class declared L2-visible."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme_class(config.protection.scheme),
                      "l2_transparent", False)
        return _run(config, workload)


def test_the_transparent_schemes():
    assert TRANSPARENT == ("none", "sideband", "inline-sector",
                           "metadata-cache")
    assert not scheme_class("inline-full").l2_transparent
    assert not scheme_class("sector-l2").l2_transparent
    assert not scheme_class("cachecraft").l2_transparent


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(TRANSPARENT),
       workload=st.sampled_from(["vecadd", "histogram", "spmv", "bfs",
                                 "atomic-hist"]),
       slice_kb=st.sampled_from([8, 16, 32, 64]),
       ways=st.sampled_from([2, 4, 8, 16]),
       sector_bytes=st.sampled_from([32, 64]),
       metadata_ways=st.integers(0, 2),
       policy=st.sampled_from(["lru", "plru", "srrip", "random"]),
       mshr_entries=st.sampled_from([1, 2, 4, 8, 64]),
       flush_at_end=st.booleans(),
       functional=st.booleans())
def test_recorded_replay_equals_the_fused_replay(
        scheme, workload, slice_kb, ways, sector_bytes, metadata_ways,
        policy, mshr_entries, flush_at_end, functional):
    """On any L2 shape (an MSHR file of one entry makes the recording
    decline, so the fused replay takes over), with or without the end
    flush and the functional store."""
    config = _config(scheme, flush_at_end=flush_at_end,
                     functional=functional, l2_size_kb=2 * slice_kb,
                     l2_ways=ways, sector_bytes=sector_bytes,
                     l2_metadata_ways=min(metadata_ways, ways - 1),
                     l2_policy=policy, l2_mshr_entries=mshr_entries)
    assert _run(config, workload) == _fused(config, workload)


class TestDeclines:
    """Streams the recording leaves to the fused replay."""

    def _stream(self, workload, config):
        compiled = materialize_compiled(make_workload(workload), CTX)
        return materialize_l2_stream(
            compiled, system_mod.L1Geometry.of(config.gpu))

    def test_atomics(self):
        config = _config("none")
        stream = self._stream("atomic-hist", config)
        assert record_l2(stream, L2Geometry.of(config.gpu), True) is None

    def test_mshr_retries(self):
        starved = _config("none", l2_mshr_entries=1)
        stream = self._stream("bfs", starved)
        assert record_l2(stream, L2Geometry.of(starved.gpu), True) is None
        roomy = _config("none")
        assert record_l2(stream, L2Geometry.of(roomy.gpu), True) \
            is not None

    def test_a_declined_stream_is_memoized(self):
        """The first replay records nothing, the second finds the
        stream declined and memoizes that, and the others hit it."""
        trace_cache_clear()
        for scheme in TRANSPARENT:
            _run(_config(scheme), "atomic-hist", replayed=False)
        stats = trace_cache_stats()
        assert (stats["record_entries"], stats["record_hits"],
                stats["record_misses"]) == (1, 2, 1)


def test_one_recording_serves_every_later_transparent_scheme(monkeypatch):
    """A process's first replay of a trace, which may be its only one,
    takes the fused replay and records nothing; the next transparent
    run records the L2 and every later one replays against it."""
    trace_cache_clear()
    paths = _spy_paths(monkeypatch)
    for scheme in ALL_SCHEMES:
        _run(_config(scheme), "bfs", replayed=False)
    assert paths == ["fused", "record", "record", "record", "fused",
                     "fused"]
    stats = trace_cache_stats()
    assert (stats["record_entries"], stats["record_hits"],
            stats["record_misses"]) == (1, 2, 1)
    assert (stats["stream_entries"], stats["stream_hits"],
            stats["stream_misses"]) == (1, 5, 1)
    trace_cache_clear()
    assert trace_cache_stats()["record_entries"] == 0


@pytest.mark.parametrize("schemes,cache,shared", [
    (("none", "sideband", "cachecraft"), True, 2),
    (("none", "cachecraft"), True, 0),
    (("none", "sideband", "cachecraft"), False, 0),
], ids=["two-transparent", "one-transparent", "uncompiled"])
def test_a_parallel_grid_shares_its_recordings(schemes, cache, shared,
                                               tmp_path, monkeypatch):
    """The parent of a parallel functional grid records each trace that
    two or more of its cells replay under transparent schemes before it
    forks; those workers replay against the inherited recording and
    record nothing.  It records only traces it compiled to key its
    cells (here: with a result cache)."""
    parent = os.getpid()
    real_record, real_fused = (functional_mod.record_l2,
                               system_mod.replay_columnar)

    def record(*args, **kwargs):
        assert os.getpid() == parent, "a worker recorded the L2"
        return real_record(*args, **kwargs)

    def fused(stream, sms, slices, queue, flame=None):
        assert os.getpid() == parent or not shared \
            or not type(slices[0].protection).l2_transparent, \
            "a worker took the fused replay under a transparent scheme"
        return real_fused(stream, sms, slices, queue, flame=flame)

    monkeypatch.setattr(functional_mod, "record_l2", record)
    monkeypatch.setattr(system_mod, "replay_columnar", fused)
    trace_cache_clear()
    workloads = ["vecadd", "bfs"]
    harness = ExperimentHarness(
        scale=0.02, fidelity="functional", ledger=False,
        cache_dir=tmp_path if cache else None)
    grid = harness.matrix(workloads, schemes, workers=2)
    assert trace_cache_stats()["record_entries"] == shared
    serial = ExperimentHarness(scale=0.02, fidelity="functional",
                               ledger=False).matrix(workloads, schemes)
    for wl in workloads:
        for sc in schemes:
            assert (grid[wl][sc].traffic, grid[wl][sc].stats) \
                == (serial[wl][sc].traffic, serial[wl][sc].stats)


@pytest.mark.parametrize("flush_at_end", [True, False])
def test_a_late_first_grant_raises(flush_at_end):
    """A scheme that declares transparency but grants the first fetch
    of each drain one micro-task after the others is refused."""
    system = _system(_config("none", flush_at_end=flush_at_end), "spmv")
    queue = system.sim
    real_fetch, real_drain = system.scheme.fetch, queue.drain
    first = [True]

    def fetch(slice_id, line, mask, on_ready):
        if first[0]:
            first[0] = False
            late = on_ready
            on_ready = lambda granted: queue.schedule(0, late, granted)
        real_fetch(slice_id, line, mask, on_ready)

    def drain():
        first[0] = True
        real_drain()

    system.scheme.fetch = fetch
    queue.drain = drain
    with pytest.raises(SimulationError,
                       match="'none' declares l2_transparent but granted "
                             "line .* out of issue order"):
        system.run()


def test_a_grant_of_other_sectors_raises():
    system = _system(_config("sideband"), "bfs")
    real_fetch = system.scheme.fetch
    system.scheme.fetch = lambda slice_id, line, mask, on_ready: real_fetch(
        slice_id, line, mask, lambda granted: on_ready(granted | 1))
    with pytest.raises(SimulationError, match="with sectors 0x"):
        system.run()


@pytest.mark.parametrize("functional", [False, True])
@pytest.mark.parametrize("scheme", [
    name for name, cls in sorted(SCHEME_REGISTRY.items())
    if cls.l2_transparent])
def test_a_transparent_scheme_never_reaches_the_l2(scheme, functional,
                                                   monkeypatch):
    """Neither path sees a transparent scheme call an L2 service: the
    fused replay (slices wired) counts no call, and the recorded replay
    (slices unwired, where a call would fail) completes."""
    calls = []
    for service in L2_SERVICES:
        monkeypatch.setattr(ProtectionContext, service,
                            lambda *a, _name=service, **k: calls.append(_name))
    for workload in ("vecadd", "histogram", "spmv", "bfs"):
        config = _config(scheme, functional=functional)
        assert _run(config, workload) == _fused(config, workload)
    assert calls == []


@pytest.mark.parametrize("scheme", ["sector-l2", "cachecraft"])
def test_an_l2_visible_scheme_reaches_the_l2(scheme, monkeypatch):
    """The spy of the test above sees the schemes that use the L2."""
    calls = []
    real = {name: getattr(ProtectionContext, name) for name in L2_SERVICES}
    for service in L2_SERVICES:
        monkeypatch.setattr(
            ProtectionContext, service,
            lambda ctx, *a, _name=service, **k: (
                calls.append(_name), real[_name](ctx, *a, **k))[1])
    _run(_config(scheme), "bfs")
    assert calls


@pytest.mark.parametrize("observer", ["flame", "inspect"])
@pytest.mark.parametrize("scheme", ["none", "metadata-cache"])
def test_an_observed_run_takes_the_fused_replay(observer, scheme,
                                                monkeypatch):
    """A flame profiler or an inspector watches the L2 and its
    micro-tasks, so an observed run replays through the slices, and its
    counters equal the unobserved, recorded run's."""
    paths = _spy_paths(monkeypatch)
    config = _config(scheme)
    obs = (Observability(flame=FlameProfiler(sample_every=4))
           if observer == "flame"
           else Observability(inspect=MemoryInspector()))
    observed = _run(config, "bfs", obs=obs)
    assert paths == ["fused"]
    assert _run(config, "bfs") == observed
    assert paths == ["fused", "record"]


def test_the_budget_counts_the_recorded_completions():
    """``max_events`` bounds the same micro-tasks on both paths."""
    config = _config("sideband")
    events = _run(config, "histogram")[1]["engine.events"]
    assert events == _fused(config, "histogram")[1]["engine.events"]
    for budget, fits in ((int(events), True), (int(events) - 1, False)):
        system = _system(config, "histogram")
        if fits:
            system.run(max_events=budget)
        else:
            with pytest.raises(SimulationError, match="max_events"):
                system.run(max_events=budget)


def test_one_workload_per_system():
    """A recorded replay leaves the slices empty, so a replayed system
    takes no second workload."""
    system = GpuSystem(_config("none"))
    system.load_workload(make_workload("vecadd"), CTX)
    system.run()
    with pytest.raises(RuntimeError, match="one loaded workload"):
        system.load_workload(make_workload("bfs"), CTX)
