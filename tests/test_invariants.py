"""Whole-system property tests: conservation laws under random traces.

Hypothesis drives small random warp traces through the full machine
under every protection scheme; after each run, physical-consistency
invariants (validation module) and drain checks must hold — any lost
request, leaked credit, or impossible byte count fails here.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.validation import validate_drained, validate_result
from repro.core.config import ALL_SCHEMES, test_config as make_test_config
from repro.core.system import GpuSystem
from repro.gpu.trace import ComputeOp, MemoryOp
from repro.workloads import make_workload
from repro.workloads.base import GenContext
from tests.conftest import load_warps

# -- random trace machinery -------------------------------------------------


@st.composite
def warp_ops(draw):
    """A short random warp trace mixing patterns that stress each path."""
    ops = []
    n = draw(st.integers(2, 12))
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["compute", "coalesced", "divergent", "partial", "store",
             "scatter_store"]))
        base = draw(st.integers(0, 255)) * 131072 + (1 << 20)
        if kind == "compute":
            ops.append(ComputeOp(draw(st.integers(1, 30))))
        elif kind == "coalesced":
            ops.append(MemoryOp(tuple(base + i * 4 for i in range(32))))
        elif kind == "divergent":
            lanes = draw(st.integers(2, 8))
            ops.append(MemoryOp(tuple(base + i * 4096 for i in range(lanes))))
        elif kind == "partial":
            ops.append(MemoryOp((base, base + 32)))
        elif kind == "store":
            ops.append(MemoryOp(tuple(base + i * 4 for i in range(32)),
                                is_store=True))
        else:
            lanes = draw(st.integers(2, 6))
            ops.append(MemoryOp(tuple(base + i * 2048 for i in range(lanes)),
                                is_store=True))
    return ops


@st.composite
def machine_runs(draw):
    scheme = draw(st.sampled_from(ALL_SCHEMES + ("sector-l2",)))
    traces = draw(st.lists(warp_ops(), min_size=1, max_size=4))
    return scheme, traces


@given(machine_runs())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_traces_conserve_and_drain(run):
    scheme, traces = run
    config = make_test_config().with_scheme(scheme)
    system = GpuSystem(config)
    load_warps(system, traces)
    cycles = system.run(max_events=2_000_000)
    result = system.result("random", cycles)
    assert validate_result(result, config) == []
    assert validate_drained(system) == []


@given(machine_runs())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_traces_functionally_clean(run):
    """Functional mode: random traces must decode CLEAN everywhere."""
    scheme, traces = run
    if scheme == "none":
        scheme = "cachecraft"
    config = make_test_config().with_scheme(scheme).with_protection(
        functional=True)
    system = GpuSystem(config)
    load_warps(system, traces)
    system.run(max_events=2_000_000)
    flat = system.stats.flatten()
    due = sum(v for k, v in flat.items() if k.endswith("decode_due"))
    corrected = sum(v for k, v in flat.items()
                    if k.endswith("decode_corrected"))
    assert due == 0 and corrected == 0


# -- invariants on the real workload suite ----------------------------------


@pytest.mark.parametrize("scheme", ALL_SCHEMES + ("sector-l2",))
def test_suite_workload_validates(scheme):
    config = make_test_config().with_scheme(scheme)
    system = GpuSystem(config)
    gen = GenContext(num_sms=2, warps_per_sm=4, scale=0.06, seed=13)
    system.load_workload(make_workload("histogram"), gen)
    cycles = system.run()
    result = system.result("histogram", cycles)
    assert validate_result(result, config) == []
    assert validate_drained(system) == []


def test_validation_catches_impossible_result():
    """The validator itself must reject a cooked result."""
    config = make_test_config()
    system = GpuSystem(config)
    gen = GenContext(num_sms=2, warps_per_sm=2, scale=0.03, seed=1)
    system.load_workload(make_workload("vecadd"), gen)
    cycles = system.run()
    result = system.result("vecadd", cycles)
    result.cycles = 1  # faster than the memory bus allows
    assert any("bandwidth" in v for v in validate_result(result, config))
