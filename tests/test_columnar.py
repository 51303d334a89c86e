"""The columnar warp-trace IR: compilation, serialization,
memoization and replay equivalence.

The bit-for-bit oracle against the event tier is
``tests/test_fidelity_parity.py`` (the full workload x scheme grid on
the serialized machine); this file covers the IR's own contracts —
lossless lowering, digest stability, the binary container, the
compiled-artifact memo — plus, on *concurrent* (multi-SM, multi-warp)
shapes the parity grid does not exercise, the functional replay
against a reference replay over the real cache, MSHR and store-buffer
components (:func:`reference_run`).
"""

import dataclasses
import hashlib
import io
import json
import re

import numpy as np
import pytest

from repro.analysis.harness import bench_config, bench_gen_ctx
from repro.cache.mshr import MshrFile
from repro.cache.sectored import SectoredCache
from repro.core.config import ALL_SCHEMES, test_config as small_config
from repro.core.system import GpuSystem
from repro.gpu.coalescer import coalesce
from repro.gpu.columnar import (
    ARRAY_SPECS,
    OP_ATOMIC,
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    CompiledTrace,
    compile_trace,
    round_robin_order,
    touched_sectors,
)
from repro.gpu.trace import ComputeOp, MemoryOp
from repro.gpu.tracefile import dump_columnar, load_columnar
from repro.sim.engine import SimulationError
from repro.sim.functional import L1Geometry, compile_l2_stream
from repro.sim.resources import OccupancyLimiter
from repro.sim.stats import StatGroup
from repro.workloads.base import (
    GenContext,
    compiled_digest,
    make_workload,
    materialize_compiled,
    trace_cache_clear,
    trace_cache_stats,
)


def _toy_traces():
    """Two SMs, mixed op kinds, including an atomic and a gather."""
    return [
        [  # sm0
            [ComputeOp(5),
             MemoryOp((0, 4, 8, 12)),
             MemoryOp((128, 132), is_store=True)],
            [MemoryOp((256,), is_store=True, is_atomic=True),
             ComputeOp(2)],
        ],
        [  # sm1
            [MemoryOp((4096, 64, 8192))],
        ],
    ]


class TestCompile:
    def test_kinds_args_and_structure(self):
        c = compile_trace(_toy_traces())
        assert c.num_sms == 2
        assert c.num_warps == 3
        assert list(c.warp_sm) == [0, 0, 1]
        assert list(c.op_kind) == [OP_COMPUTE, OP_LOAD, OP_STORE,
                                   OP_ATOMIC, OP_COMPUTE, OP_LOAD]
        assert list(c.op_arg) == [5, 0, 0, 0, 2, 0]
        assert list(c.warp_ptr) == [0, 3, 5, 6]
        c.validate()

    def test_transactions_match_coalesce(self):
        traces = _toy_traces()
        c = compile_trace(traces, line_bytes=128, sector_bytes=32)
        for sm_ops, warp in ((traces[0][0], 0), (traces[1][0], 2)):
            ops = range(int(c.warp_ptr[warp]), int(c.warp_ptr[warp + 1]))
            for o in ops:
                if c.op_kind[o] == OP_COMPUTE:
                    assert c.op_txn_ptr[o] == c.op_txn_ptr[o + 1]
        # The gather op (sm1 warp) coalesces to three distinct lines.
        gather = coalesce((4096, 64, 8192), 128, 32)
        start, end = int(c.op_txn_ptr[5]), int(c.op_txn_ptr[6])
        assert [(int(l), int(m)) for l, m in
                zip(c.txn_line[start:end], c.txn_mask[start:end])] \
            == [(int(l), int(m)) for l, m in gather]

    def test_arrays_are_frozen(self):
        c = compile_trace(_toy_traces())
        for name, _dtype in ARRAY_SPECS:
            with pytest.raises(TypeError):
                getattr(c, name)[0] = 0

    def test_digest_is_content_addressed(self):
        a = compile_trace(_toy_traces())
        b = compile_trace(_toy_traces())
        assert a.digest == b.digest
        # Geometry participates: same ops, different sectoring.
        c = compile_trace(_toy_traces(), sector_bytes=64)
        assert c.digest != a.digest

    def test_empty_machine(self):
        c = compile_trace([])
        assert (c.num_warps, c.num_ops, c.num_txns) == (0, 0, 0)
        c.validate()

    def test_touched_sectors(self):
        c = compile_trace([[[MemoryOp((0, 31, 32)), ComputeOp(5),
                             MemoryOp((200, 64), is_store=True)]]])
        assert list(touched_sectors(c)) == [0, 32, 64, 192]

    def test_digest_pinned(self):
        """Functional result-cache keys and ``.columnar`` files bind
        this digest, so the artifact's bytes must not move."""
        ctx = GenContext(num_sms=2, warps_per_sm=2, scale=0.05, seed=7)
        c = compile_trace(make_workload("histogram").build(ctx))
        assert c.digest == "7d1e4dc42e036aabc879e166b901c439"


class TestRoundRobinOrder:
    def test_rotation_matches_scalar_replay(self):
        # 2 warps on sm0 (3 and 1 ops), 1 on sm1 (2 ops): the rotation
        # visits w0,w1,w2 then w0,w2 then w0.
        traces = [
            [[ComputeOp(1)] * 3, [ComputeOp(1)]],
            [[ComputeOp(1)] * 2],
        ]
        c = compile_trace(traces)
        order = round_robin_order(c, machine_sms=2)
        # ops: w0 -> 0,1,2  w1 -> 3  w2 -> 4,5
        assert list(order) == [0, 3, 4, 1, 5, 2]

    def test_truncates_warps_beyond_machine(self):
        c = compile_trace(_toy_traces())
        order = round_robin_order(c, machine_sms=1)
        counts = np.diff(c.warp_ptr)
        op_warp = np.repeat(np.arange(c.num_warps), counts)
        assert all(c.warp_sm[op_warp[o]] == 0 for o in order)


class TestColumnarFile:
    def test_round_trip(self):
        c = compile_trace(_toy_traces())
        buf = io.BytesIO()
        written = dump_columnar(c, buf, workload="toy")
        assert written == len(buf.getvalue())
        buf.seek(0)
        loaded = load_columnar(buf)
        assert loaded.digest == c.digest
        assert loaded.num_sms == c.num_sms
        for name, _dtype in ARRAY_SPECS:
            assert np.array_equal(getattr(loaded, name), getattr(c, name))
            with pytest.raises(TypeError):
                getattr(loaded, name)[0] = 0

    def test_atomic_encoding_survives(self):
        """The JSONL v1 two-flag encoding and the columnar kind enum
        agree: a dumped-and-loaded artifact equals compiling the
        JSONL round trip of the same traces."""
        from repro.gpu.tracefile import (distribute_traces, dump_traces,
                                         flatten_machine_traces,
                                         load_traces)

        traces = _toy_traces()
        text = io.StringIO()
        dump_traces(flatten_machine_traces(traces), text, workload="toy")
        text.seek(0)
        rebuilt = distribute_traces(load_traces(text), num_sms=2,
                                    warps_per_sm=2)
        assert compile_trace(rebuilt).digest == compile_trace(traces).digest

    def test_truncation_detected(self):
        c = compile_trace(_toy_traces())
        buf = io.BytesIO()
        dump_columnar(c, buf)
        data = buf.getvalue()
        with pytest.raises(ValueError, match="truncated"):
            load_columnar(io.BytesIO(data[:-4]))

    def test_tampering_detected(self):
        c = compile_trace(_toy_traces())
        buf = io.BytesIO()
        dump_columnar(c, buf)
        data = bytearray(buf.getvalue())
        data[-1] ^= 0xFF  # flip a bit in the last array
        with pytest.raises(ValueError, match="digest"):
            load_columnar(io.BytesIO(bytes(data)))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            load_columnar(io.BytesIO(b'{"not-a-trace":1}\n'))


class TestCompiledMemo:
    def setup_method(self):
        trace_cache_clear()

    def test_hit_on_identical_request(self):
        ctx = GenContext(num_sms=1, warps_per_sm=2, scale=0.05)
        first = materialize_compiled(make_workload("vecadd"), ctx)
        second = materialize_compiled(make_workload("vecadd"), ctx)
        assert first is second
        stats = trace_cache_stats()
        assert (stats["compiled_hits"], stats["compiled_misses"]) == (1, 1)

    def test_geometry_gets_its_own_entry(self):
        ctx = GenContext(num_sms=1, warps_per_sm=2, scale=0.05)
        a = materialize_compiled(make_workload("vecadd"), ctx)
        b = materialize_compiled(make_workload("vecadd"), ctx,
                                 sector_bytes=64)
        assert a is not b
        assert a.digest != b.digest

    def test_unhashable_params_fall_back_uncached(self):
        ctx = GenContext(num_sms=1, warps_per_sm=1, scale=0.02)
        wl = make_workload("vecadd")
        wl.params["tag"] = [1, 2]  # lists don't hash -> memo bypass
        a = materialize_compiled(wl, ctx)
        b = materialize_compiled(wl, ctx)
        assert a is not b  # compiled uncached each time
        assert a.digest == b.digest  # but identical content
        assert trace_cache_stats()["compiled_entries"] == 0

    def test_memoized_artifact_is_immutable(self):
        ctx = GenContext(num_sms=1, warps_per_sm=1, scale=0.02)
        c = materialize_compiled(make_workload("vecadd"), ctx)
        with pytest.raises(TypeError):
            c.txn_line[0] = 7
        with pytest.raises(Exception):  # frozen dataclass
            c.digest = "x"

    def test_digest_helper_matches_artifact(self):
        ctx = GenContext(num_sms=1, warps_per_sm=1, scale=0.02)
        wl = make_workload("vecadd")
        assert compiled_digest(wl, ctx) \
            == materialize_compiled(wl, ctx).digest


class _ReferenceSm:
    """One SM's front end on the real ``SectoredCache``, ``MshrFile``
    and ``OccupancyLimiter``, with the event SM's semantics and the
    queue drained after every memory op.  The L1 fills that land in a
    drain are installed when it ends, in the order their requests were
    issued (never in the order the L2 answers), so the L1 does not
    depend on the protection scheme.  Its stats go to a private
    ``sm{i}`` group; :func:`reference_run` drops the system's own,
    unused ones."""

    def __init__(self, sm_id, system):
        gpu = system.config.gpu
        self.queue = system.sim
        self.slices = system.slices
        self.route = system.route
        self.stats = StatGroup(f"sm{sm_id}")
        self.l1 = SectoredCache("l1", gpu.l1_size_kb * 1024, gpu.l1_ways,
                                line_bytes=gpu.line_bytes,
                                sector_bytes=gpu.sector_bytes,
                                stats=self.stats)
        self.mshrs = MshrFile("l1mshr", gpu.l1_mshr_entries, max_merges=32,
                              stats=self.stats)
        self.credits = OccupancyLimiter("storebuf", gpu.store_buffer,
                                        stats=self.stats)
        self.count = {name: self.stats.counter(name) for name in (
            "instructions", "loads", "stores", "atomics",
            "load_transactions", "store_transactions", "stall_retries")}
        #: ``[line, granted]`` per load request since the last drain, in
        #: issue order; ``granted`` is set when the L2 answers.
        self.issued = []

    def drain(self):
        """Drain the queue, then install its fills in issue order."""
        self.queue.drain()
        for line, granted in self.issued:
            assert granted is not None  # every fill lands in its drain
            self.fill(line, granted)
        self.issued.clear()

    def op(self, kind, txns):
        self.count["instructions"].add(1)
        if kind == OP_COMPUTE:
            return
        if kind == OP_LOAD:
            self.count["loads"].add(1)
            issue = self.load
        elif kind == OP_ATOMIC:
            self.count["atomics"].add(1)
            issue = self.atomic
        else:
            self.count["stores"].add(1)
            issue = self.store
        for line, mask in txns:
            issue(line, mask)
        self.drain()

    def load(self, line, mask):
        hit, _ = self.l1.lookup_mask(line, mask)
        miss = mask & ~hit
        self.count["load_transactions"].add(1)
        if not miss:
            return
        new = self.mshrs.allocate(line, miss, waiter=lambda: None)
        if new is None:  # full: un-count, drain, redo from the lookup
            self.count["load_transactions"].add(-1)
            self.drain()
            self.load(line, mask)
            return
        if new:
            issued = [line, None]
            self.issued.append(issued)
            self.slices[self.route(line)].receive_load(
                line, new, lambda granted: issued.__setitem__(1, granted))

    def fill(self, line, granted):
        cached, _evicted = self.l1.allocate(line)
        if granted & ~cached.valid_mask:
            self.l1.fill_sectors(cached, granted & ~cached.valid_mask,
                                 dirty=False, verified=True)
        entry = self.mshrs.get(line)
        if entry is None:
            return
        entry.filled |= granted
        if not entry.sector_mask & ~entry.filled:
            for waiter in self.mshrs.complete(line):
                waiter()

    def credit(self):
        if not self.credits.try_acquire():
            self.drain()
            assert self.credits.try_acquire()
        self.count["store_transactions"].add(1)

    def atomic(self, line, mask):
        self.credit()
        cached = self.l1.probe(line)
        if cached is not None:
            cached.valid_mask &= ~mask
            cached.verified_mask &= ~mask
        self.slices[self.route(line)].receive_atomic(
            line, mask, self.credits.release)

    def store(self, line, mask):
        self.credit()
        self.l1.probe(line)  # write-through, no-allocate
        self.slices[self.route(line)].receive_store(
            line, mask, self.credits.release)


def reference_run(system):
    """Replay ``system``'s loaded workload through :class:`_ReferenceSm`
    front ends in :func:`round_robin_order`; returns (traffic, stats)
    shaped like a result's."""
    compiled = system.compiled
    sms = [_ReferenceSm(i, system) for i in range(len(system.sms))]
    op_warp = np.repeat(np.arange(compiled.num_warps),
                        np.diff(compiled.warp_ptr))
    for o in round_robin_order(compiled, len(sms)):
        txns = range(int(compiled.op_txn_ptr[o]),
                     int(compiled.op_txn_ptr[o + 1]))
        sms[int(compiled.warp_sm[op_warp[o]])].op(
            int(compiled.op_kind[o]),
            [(int(compiled.txn_line[t]), int(compiled.txn_mask[t]))
             for t in txns])
    queue = system.sim
    queue.drain()
    if system.config.flush_at_end:
        for sl in system.slices:
            sl.flush()
        system.scheme.drain()
        queue.drain()
    stats = {k: v for k, v in system.stats.flatten().items()
             if not re.match(r"sm\d+\.", k)}
    for sm in sms:
        stats.update(sm.stats.flatten())
    return system.traffic(), stats


class TestReplayEquivalence:
    """The functional replay against :func:`reference_run` on
    concurrent shapes.

    The serialized parity grid pins 1 SM / 1 warp / 1 lane; here the
    replay must match real components driven with the event SM's
    semantics on *any* shape, structural stalls included, because the
    replay order is the round-robin rotation and the queue drains at
    the same op boundaries."""

    CTX = GenContext(num_sms=2, warps_per_sm=3, scale=0.05, seed=7)

    def _system(self, workload, scheme, **gpu):
        config = small_config(num_sms=2, warps_per_sm=3, **gpu) \
            .with_scheme(scheme).with_fidelity("functional")
        system = GpuSystem(config)
        system.load_workload(make_workload(workload), self.CTX)
        return system

    def _assert_matches_reference(self, workload, scheme, **gpu):
        system = self._system(workload, scheme, **gpu)
        system.run()
        result = system.result(workload, 0)
        traffic, stats = reference_run(self._system(workload, scheme, **gpu))
        assert result.traffic == traffic
        mismatched = {
            key: (stats.get(key), result.stats.get(key))
            for key in set(stats) | set(result.stats)
            if key != "engine.events"
            and stats.get(key) != result.stats.get(key)}
        assert not mismatched
        return result

    @pytest.mark.parametrize("workload,scheme", [
        ("vecadd", "none"),
        ("bfs", "cachecraft"),
        ("transpose", "inline-full"),
        ("histogram", "metadata-cache"),   # atomics
        ("stencil3d", "sideband"),
    ])
    def test_counters_and_traffic_match(self, workload, scheme):
        self._assert_matches_reference(workload, scheme)

    @pytest.mark.parametrize("workload,scheme", [
        ("bfs", "cachecraft"),
        ("histogram", "metadata-cache"),
    ])
    @pytest.mark.parametrize("structure,stall", [
        ({"l1_mshr_entries": 2}, "l1mshr.full_stalls"),
        ({"store_buffer": 2}, "storebuf.full_rejections"),
    ], ids=["l1_mshr_entries=2", "store_buffer=2"])
    def test_structural_stalls_match(self, workload, scheme, structure,
                                     stall):
        result = self._assert_matches_reference(workload, scheme,
                                                **structure)
        assert result.stats[f"sm0.{stall}"] > 0  # the shape does stall

    def test_columnar_engages_by_default(self, monkeypatch):
        """An L2-visible scheme takes the fused replay."""
        import repro.core.system as system_mod

        calls = []
        real = system_mod.replay_columnar
        monkeypatch.setattr(system_mod, "replay_columnar",
                            lambda *a, **k: (calls.append(1),
                                             real(*a, **k))[1])
        self._system("vecadd", "cachecraft").run()
        assert calls

    def test_recorded_replay_engages_by_default(self, monkeypatch):
        """An L2-transparent scheme replays a trace its process has
        replayed before against the L2's recording, not through the
        fused replay."""
        import repro.core.system as system_mod

        calls = []
        real = system_mod.replay_record
        monkeypatch.setattr(system_mod, "replay_record",
                            lambda *a, **k: (calls.append(1),
                                             real(*a, **k))[1])
        self._system("vecadd", "cachecraft").run()
        monkeypatch.setattr(system_mod, "replay_columnar", None)
        self._system("vecadd", "none").run()
        assert calls

    def test_flame_profiling_roots_replay_at_sm_step(self, monkeypatch):
        import repro.core.system as system_mod
        from repro.obs.flame import FlameProfiler
        from repro.obs.hub import Observability

        calls = []
        real = system_mod.replay_columnar
        monkeypatch.setattr(system_mod, "replay_columnar",
                            lambda *a, **k: (calls.append(1),
                                             real(*a, **k))[1])
        # No end-of-run flush: its writebacks would root outside the
        # replay.
        config = dataclasses.replace(
            small_config(num_sms=2, warps_per_sm=3).with_scheme("none")
            .with_fidelity("functional"), flush_at_end=False)
        flame = FlameProfiler(sample_every=4)
        system = GpuSystem(config, obs=Observability(flame=flame))
        system.load_workload(make_workload("vecadd"), self.CTX)
        system.run()
        assert calls
        assert {stack[0] for stack in flame.samples} == {"sm0.step",
                                                         "sm1.step"}

    def test_hand_added_warp_raises(self):
        """The tier replays only the artifact ``load_workload`` compiled,
        so a warp added by hand is refused, not ignored."""
        config = small_config(num_sms=2, warps_per_sm=3) \
            .with_scheme("cachecraft").with_fidelity("functional")
        system = GpuSystem(config)
        system.load_workload(make_workload("bfs"), self.CTX)
        system.sms[0].add_warp(compile_trace([[[MemoryOp((0, 4))]]]), 0)
        with pytest.raises(RuntimeError, match="sm.add_warp"):
            system.run()

    def test_one_workload_per_run(self):
        """A second workload loaded before the run raises; the run
        consumes the artifact, so running again replays nothing."""
        config = small_config(num_sms=2, warps_per_sm=3) \
            .with_scheme("none").with_fidelity("functional")
        system = GpuSystem(config)
        system.load_workload(make_workload("bfs"), self.CTX)
        with pytest.raises(RuntimeError, match="one loaded workload"):
            system.load_workload(make_workload("vecadd"), self.CTX)
        system.run()
        stats = system.stats.flatten()
        system.run()
        assert system.stats.flatten() == stats


class TestStageTwoGuard:
    """The fused replay checks at each drain point that every request
    issued since the previous one completed; the recorded replay checks
    that every fetch issued since then was granted."""

    @pytest.mark.parametrize("method", ["receive_load", "receive_store"])
    def test_an_unanswered_request_raises(self, method):
        config = small_config(num_sms=2, warps_per_sm=3) \
            .with_scheme("cachecraft").with_fidelity("functional")
        system = GpuSystem(config)
        system.load_workload(make_workload("histogram"),
                             TestReplayEquivalence.CTX)
        setattr(system.slices[1], method, lambda line, mask, done: None)
        with pytest.raises(SimulationError, match="did not complete"):
            system.run()

    def test_an_ungranted_fetch_raises(self, monkeypatch):
        import repro.core.system as system_mod

        config = small_config(num_sms=2, warps_per_sm=3) \
            .with_scheme("none").with_fidelity("functional")
        systems = [GpuSystem(config) for _ in range(2)]
        for system in systems:
            system.load_workload(make_workload("histogram"),
                                 TestReplayEquivalence.CTX)
        systems[0].run()  # the trace's first replay in this process
        monkeypatch.setattr(system_mod, "replay_columnar", None)
        system = systems[1]
        system.scheme.fetch = lambda slice_id, line, mask, on_ready: None
        with pytest.raises(SimulationError, match="did not complete"):
            system.run()


class TestSchemeIndependentL1:
    """Stage 1's premise on the concurrent shape of
    :class:`TestReplayEquivalence`: with fills installed in issue order
    the L1, L1-MSHR and store-buffer counters are the same under every
    protection scheme."""

    @pytest.mark.parametrize("workload", ["bfs", "histogram"])
    def test_front_end_counters_equal_across_schemes(self, workload):
        front_end = re.compile(r"sm\d+\.(l1|l1mshr|storebuf)\.")
        seen = {}
        for scheme in ALL_SCHEMES:
            config = small_config(num_sms=2, warps_per_sm=3) \
                .with_scheme(scheme).with_fidelity("functional")
            system = GpuSystem(config)
            system.load_workload(make_workload(workload),
                                 TestReplayEquivalence.CTX)
            system.run()
            counters = {k: v for k, v in system.stats.flatten().items()
                        if front_end.match(k)}
            assert sum(v for k, v in counters.items()
                       if k.endswith("l1.line_misses")) > 0
            seen[scheme] = counters
        assert all(counters == seen["none"] for counters in seen.values())


class TestL2StreamMemo:
    """Stage 1 runs once per trace and L1 geometry, inside
    ``GpuSystem.run``."""

    CTX = TestReplayEquivalence.CTX

    def setup_method(self):
        trace_cache_clear()

    def _system(self, scheme="none", **gpu):
        shape = {"num_sms": 2, "warps_per_sm": 3, **gpu}
        config = small_config(**shape).with_scheme(scheme) \
            .with_fidelity("functional")
        system = GpuSystem(config)
        system.load_workload(make_workload("bfs"), self.CTX)
        return system

    @staticmethod
    def _memo():
        stats = trace_cache_stats()
        return (stats["stream_entries"], stats["stream_hits"],
                stats["stream_misses"])

    def test_second_run_of_a_trace_hits(self):
        self._system("none").run()
        assert self._memo() == (1, 0, 1)
        self._system("cachecraft").run()
        assert self._memo() == (1, 1, 1)

    def test_load_workload_leaves_stage_one_to_run(self):
        system = self._system()
        assert self._memo() == (0, 0, 0)
        system.run()
        assert self._memo() == (1, 0, 1)

    @pytest.mark.parametrize("change", [
        {"l1_ways": 2}, {"l1_mshr_entries": 2}, {"store_buffer": 2},
        {"num_sms": 1}], ids=["l1_ways", "l1_mshr_entries", "store_buffer",
                              "num_sms"])
    def test_geometry_gets_its_own_entry(self, change):
        self._system().run()
        self._system(**change).run()
        assert self._memo() == (2, 0, 2)

    def test_clear_empties_the_memo(self):
        self._system().run()
        assert self._memo() == (1, 0, 1)
        trace_cache_clear()
        assert self._memo() == (0, 0, 0)


def test_stage_one_stream_is_pinned():
    """bfs's stream on a small-L1 machine, where L1-MSHR stalls and
    store-buffer rejections drain the queue, equals column for column
    (tallies included) the one the numpy implementation produced
    (MODEL_VERSION 7)."""
    config = bench_config(l1_size_kb=4, l1_mshr_entries=4, store_buffer=4)
    compiled = materialize_compiled(
        make_workload("bfs"), bench_gen_ctx(config, scale=0.03, seed=7))
    stream = compile_l2_stream(compiled, L1Geometry.of(config.gpu))
    columns = [stream.port, stream.line, stream.mask, stream.drain_at,
               stream.drain_sm, stream.tallies]
    digest = hashlib.sha256(json.dumps(columns).encode()).hexdigest()
    assert digest == ("b51fb893b717fe548fdb9cf7342f7dd0"
                      "45d5778201443fb5ac3543cea56ddd1f")
