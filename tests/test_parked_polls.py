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

from repro.cache.l1 import L1Cache
from repro.core.config import test_config as make_test_config
from repro.core.system import GpuSystem
from repro.gpu.trace import ComputeOp, MemoryOp
from repro.sim.engine import Simulator
from tests.conftest import FixedTraces

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
    return shape, scheme, warps


def real_retry(sim, delay, poll):
    """``Simulator.park`` as a plain schedule of the real retry."""
    sim.schedule(delay, poll.fn, *poll.args)


def run(shape, scheme, warps, park=True):
    """Simulate; with ``park=False`` every parked retry really runs.
    Returns the outputs and the number of L1 lookups made."""
    lookups = []
    lookup = L1Cache.lookup
    parking = Simulator.park

    def counted(l1, *args):
        lookups.append(1)
        return lookup(l1, *args)

    try:
        L1Cache.lookup = counted
        if not park:
            Simulator.park = real_retry
        config = make_test_config(**shape).with_scheme(scheme)
        system = GpuSystem(config)
        system.load_workload(FixedTraces(traces=warps))
        cycles = system.run(max_events=2_000_000)
    finally:
        L1Cache.lookup = lookup
        Simulator.park = parking
    result = system.result("stalls", cycles)
    return (result.stats, result.traffic, result.cycles), len(lookups)


@given(stalling_runs())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_parked_retries_match_real_retries(case):
    shape, scheme, warps = case
    parked, parked_lookups = run(shape, scheme, warps)
    real, real_lookups = run(shape, scheme, warps, park=False)
    assert parked == real
    assert parked_lookups <= real_lookups


def test_parking_skips_repeated_lookups():
    """One SM with one MSHR and four warps of divergent loads: most
    retries repeat a failure, so parking skips their L1 lookups while
    every counter stays the same."""
    warps = [[[MemoryOp(tuple((1 << 20) + (w * 16 + i) * 4224
                              for i in range(8)))] * 2 for w in range(4)]]
    shape = dict(num_sms=1, l1_mshr_entries=1)
    parked, parked_lookups = run(shape, "none", warps)
    real, real_lookups = run(shape, "none", warps, park=False)
    assert parked == real
    assert parked[0]["sm0.stall_retries"] > 100
    assert parked_lookups < real_lookups / 2

