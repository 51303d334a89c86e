"""Compatibility matrix: every workload under every scheme, on both
fidelity tiers.

A tiny-scale smoke simulation of the full cross product (18 workloads x
7 schemes) with physical validation on each run — the broadest single
net against integration regressions.
"""

import pytest

from repro.analysis.validation import validate_drained, validate_result
from repro.core.config import ALL_SCHEMES, test_config as make_test_config
from repro.core.system import GpuSystem
from repro.workloads import EXTRA_WORKLOADS, WORKLOADS, make_workload
from repro.workloads.base import GenContext

ALL_WORKLOADS = tuple(WORKLOADS) + ("fft", "nbody", "kmeans", "atomic-hist")
ALL = ALL_SCHEMES + ("sector-l2",)

GEN = GenContext(num_sms=2, warps_per_sm=2, scale=0.02, seed=17)


def run_and_validate(workload, scheme, fidelity):
    config = make_test_config().with_scheme(scheme).with_fidelity(fidelity)
    system = GpuSystem(config)
    system.load_workload(make_workload(workload), GEN)
    cycles = system.run(max_events=3_000_000)
    result = system.result(workload, cycles)
    assert result.total_dram_bytes >= 0
    violations = validate_result(result, config)
    assert violations == [], (workload, scheme, violations)
    assert validate_drained(system) == [], (workload, scheme)
    return cycles


@pytest.mark.parametrize("scheme", ALL)
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_matrix(workload, scheme):
    assert run_and_validate(workload, scheme, "event") > 0


@pytest.mark.parametrize("scheme", ALL)
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_matrix_functional(workload, scheme):
    assert run_and_validate(workload, scheme, "functional") == 0
