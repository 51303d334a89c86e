"""Parked stall retries change no counter.

A warp stalled on a full L1 MSHR file or store buffer parks its retry
(``Simulator.park``): while the SM's or the store buffer's ``epoch`` is
unchanged, each turn replays the failed attempt's counter increments
instead of re-running it.  These tests run stall-heavy machine shapes
twice, once as they are and once with ``park`` monkeypatched to schedule
the real retry every time, and require identical flattened stats
(``engine.events`` included), traffic and cycles.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.sectored import SectoredCache
from repro.core.config import test_config as make_test_config
from repro.core.system import GpuSystem
from repro.gpu.trace import ComputeOp, MemoryOp
from repro.obs.inspect import MemoryInspector
from repro.sim.engine import Simulator

#: Base addresses of the lines the traces touch: few enough that loads
#: revisit lines (partial L1 hits, MSHR merges), spread over sets.
LINES = st.integers(0, 47).map(lambda i: (1 << 20) + i * 4224)


@st.composite
def warp_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(
            ["compute", "load", "partial", "divergent", "store", "atomic"]))
        base = draw(LINES)
        if kind == "compute":
            ops.append(ComputeOp(draw(st.integers(1, 20))))
        elif kind == "load":
            ops.append(MemoryOp(tuple(base + i * 4 for i in range(32))))
        elif kind == "partial":
            ops.append(MemoryOp((base + 32 * draw(st.integers(0, 3)),)))
        elif kind == "divergent":
            lanes = draw(st.integers(2, 12))
            ops.append(MemoryOp(tuple(base + i * 4224 for i in range(lanes))))
        else:
            lanes = draw(st.integers(1, 8))
            ops.append(MemoryOp(tuple(base + i * 4224 for i in range(lanes)),
                                is_store=True, is_atomic=kind == "atomic"))
    return ops


@st.composite
def stalling_runs(draw):
    num_sms = draw(st.integers(1, 2))
    shape = dict(
        num_sms=num_sms,
        l1_mshr_entries=draw(st.integers(1, 8)),
        store_buffer=draw(st.integers(1, 4)),
        blocking_stores=draw(st.booleans()),
        warp_scheduler=draw(st.sampled_from(["rr", "gto"])))
    scheme = draw(st.sampled_from(["none", "cachecraft"]))
    warps = [draw(st.lists(warp_ops(), min_size=1, max_size=4))
             for _ in range(num_sms)]
    return shape, scheme, warps, draw(st.booleans())


def real_retry(sim, delay, poll):
    """``Simulator.park`` as a plain schedule of the real retry."""
    sim.schedule(delay, poll.fn, *poll.args)


def run(shape, scheme, warps, inspect, park=True):
    """Simulate; with ``park=False`` every parked retry really runs.
    Returns the outputs and the number of L1 lookups made."""
    lookups = []
    lookup_mask = SectoredCache.lookup_mask
    parking = Simulator.park

    def counted(cache, *args, **kwargs):
        lookups.append(cache.name)
        return lookup_mask(cache, *args, **kwargs)

    try:
        SectoredCache.lookup_mask = counted
        if not park:
            Simulator.park = real_retry
        config = make_test_config(**shape).with_scheme(scheme)
        system = GpuSystem(config)
        inspector = MemoryInspector() if inspect else None
        for sm, sm_warps in zip(system.sms, warps):
            if inspector is not None:
                inspector.watch_cache(f"l1_{sm.sm_id}", sm.l1)
            for ops in sm_warps:
                sm.add_warp(list(ops))
        cycles = system.run(max_events=2_000_000)
    finally:
        SectoredCache.lookup_mask = lookup_mask
        Simulator.park = parking
    result = system.result("stalls", cycles)
    views = ({k: v.to_dict() for k, v in inspector.caches.items()}
             if inspector is not None else None)
    return ((result.stats, result.traffic, result.cycles, views),
            lookups.count("l1"))


@given(stalling_runs())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_parked_retries_match_real_retries(case):
    shape, scheme, warps, inspect = case
    parked, parked_lookups = run(shape, scheme, warps, inspect)
    real, real_lookups = run(shape, scheme, warps, inspect, park=False)
    assert parked == real
    assert parked_lookups <= real_lookups


def test_parking_skips_repeated_lookups():
    """One SM with one MSHR and four warps of divergent loads: most
    retries repeat a failure, so parking skips their L1 lookups while
    every counter stays the same."""
    warps = [[[MemoryOp(tuple((1 << 20) + (w * 16 + i) * 4224
                              for i in range(8)))] * 2 for w in range(4)]]
    shape = dict(num_sms=1, l1_mshr_entries=1)
    parked, parked_lookups = run(shape, "none", warps, False)
    real, real_lookups = run(shape, "none", warps, False, park=False)
    assert parked == real
    assert parked[0]["sm0.stall_retries"] > 100
    assert parked_lookups < real_lookups / 2


def test_inspected_l1_retries_really_run():
    """An inspector records every L1 access, so with one attached no
    load retry is parked."""
    warps = [[[MemoryOp(tuple((1 << 20) + (w * 16 + i) * 4224
                              for i in range(8)))] for w in range(4)]]
    shape = dict(num_sms=1, l1_mshr_entries=1)
    parked, parked_lookups = run(shape, "none", warps, True)
    real, real_lookups = run(shape, "none", warps, True, park=False)
    assert parked == real
    assert parked_lookups == real_lookups
