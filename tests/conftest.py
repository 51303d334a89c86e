"""Shared fixtures for the test suite."""

import pytest

from repro.core.config import SystemConfig, test_config
from repro.workloads.base import GenContext, Workload


@pytest.fixture(autouse=True)
def isolated_result_cache(tmp_path_factory, monkeypatch):
    """Keep every test away from the user's real ~/.cache/repro.

    CLI paths (``compare``) persist results by default, so an
    unisolated run would both pollute the developer's cache and let a
    warm cache mask simulation bugs."""
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("result-cache")))


@pytest.fixture
def small_config() -> SystemConfig:
    """A 2-SM, 256 KiB-L2 machine that simulates in well under a second."""
    return test_config()


@pytest.fixture
def small_gen() -> GenContext:
    """Trace sizing matched to small_config."""
    return GenContext(num_sms=2, warps_per_sm=4, scale=0.08, seed=7)


@pytest.fixture
def tiny_gen() -> GenContext:
    """The smallest useful trace sizing (for per-scheme sweeps)."""
    return GenContext(num_sms=2, warps_per_sm=2, scale=0.04, seed=7)


class FixedTraces(Workload):
    """Hand-built traces (``[sm][warp] -> ops``) as a workload, so they
    reach either tier through ``GpuSystem.load_workload``.  The
    ``traces`` param is a list, so the compiled memo never keys on (or
    keeps) it."""

    name = "fixed-traces"

    def warp_trace(self, sm_id, warp_id, ctx):
        return self.params["traces"][sm_id][warp_id]

    def build(self, ctx):
        return self.params["traces"]


def load_warps(system, warps, sm=0):
    """Load ``warps`` (a list of op lists) onto SM ``sm`` of ``system``."""
    system.load_workload(
        FixedTraces(traces=[[] for _ in range(sm)] + [list(warps)]))
