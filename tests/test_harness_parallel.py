"""Parallel experiment-grid tests.

The contract under test: ``matrix(workers=N)`` produces results
bit-identical to the serial path on both tiers — every
:class:`RunResult` field equal except ``host_seconds`` (wall clock) —
with identical dict ordering, a dying or chaos-killed worker costs
only its own cell, and ``normalized_performance`` runs a missing
baseline implicitly instead of raising.
"""

import os

import pytest

from repro.analysis.harness import ExperimentHarness, compare_schemes
from repro.core.config import FIDELITIES
from repro.core.system import GpuSystem
from repro.obs.structlog import read_jsonl
from repro.resilience.chaos import CHAOS_ENV, ChaosPolicy
from repro.sim.engine import SimulationError
from repro.workloads import WORKLOAD_REGISTRY, Workload

WORKLOADS = ["vecadd", "pchase"]
SCHEMES = ["none", "cachecraft"]
SCALE = 0.05


def comparable(result) -> dict:
    """A RunResult's identity-relevant fields (host wall time varies)."""
    payload = result.to_dict()
    payload.pop("host_seconds")
    return payload


@pytest.fixture(scope="module")
def serial_grid():
    harness = ExperimentHarness(scale=SCALE)
    return harness.matrix(WORKLOADS, SCHEMES)


class DyingWorkload(Workload):
    """A workload whose trace generator kills its process."""

    name = "dying"

    def warp_trace(self, sm_id, warp_id, ctx):
        os._exit(13)


class RaisingWorkload(Workload):
    """A workload whose trace generator raises."""

    name = "raising"

    def warp_trace(self, sm_id, warp_id, ctx):
        raise ValueError("generator bug")


class TestParallelMatrix:
    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_bit_identical_to_serial(self, fidelity):
        serial = ExperimentHarness(scale=SCALE, fidelity=fidelity).matrix(
            WORKLOADS, SCHEMES)
        harness = ExperimentHarness(scale=SCALE, fidelity=fidelity)
        grid = harness.matrix(WORKLOADS, SCHEMES, workers=2)
        assert harness.sims_run == len(WORKLOADS) * len(SCHEMES)
        for wl in WORKLOADS:
            for sc in SCHEMES:
                assert comparable(grid[wl][sc]) \
                    == comparable(serial[wl][sc]), f"{wl}/{sc} differs"

    def test_ordering_matches_serial(self, serial_grid):
        harness = ExperimentHarness(scale=SCALE)
        grid = harness.matrix(WORKLOADS, SCHEMES, workers=3)
        assert list(grid) == list(serial_grid) == WORKLOADS
        for wl in WORKLOADS:
            assert list(grid[wl]) == list(serial_grid[wl]) == SCHEMES

    def test_workers_one_uses_serial_path(self, serial_grid):
        harness = ExperimentHarness(scale=SCALE)
        grid = harness.matrix(WORKLOADS, SCHEMES, workers=1)
        for wl in WORKLOADS:
            for sc in SCHEMES:
                assert comparable(grid[wl][sc]) \
                    == comparable(serial_grid[wl][sc])

    def test_parallel_fills_memory_cache(self):
        harness = ExperimentHarness(scale=SCALE)
        harness.matrix(["vecadd"], SCHEMES, workers=2)
        assert harness.sims_run == len(SCHEMES)
        harness.matrix(["vecadd"], SCHEMES)  # serial rerun: all cached
        assert harness.sims_run == len(SCHEMES)

    def test_obs_factory_rejected_in_parallel(self):
        harness = ExperimentHarness(scale=SCALE,
                                    obs_factory=lambda _w, _s: None)
        with pytest.raises(ValueError, match="obs"):
            harness.matrix(["vecadd"], ["none"], workers=2)

    def test_dying_worker_fails_only_its_own_cells(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setitem(WORKLOAD_REGISTRY, "dying", DyingWorkload)
        healthy = [(wl, sc) for wl in WORKLOADS for sc in SCHEMES]
        harness = ExperimentHarness(scale=0.02, cache_dir=tmp_path)
        with pytest.raises(RuntimeError) as raised:
            harness.matrix(["vecadd", "dying", "pchase"], SCHEMES,
                           workers=2)
        assert all(f"dying/{sc}" in str(raised.value) for sc in SCHEMES)
        assert not any(f"{wl}/{sc}" in str(raised.value)
                       for wl, sc in healthy)
        assert harness.sims_run == len(healthy)
        # Every healthy cell is in memory: asking again reads no disk...
        hits = harness.result_cache.hits
        for cell in healthy:
            harness.run(*cell)
        assert (harness.sims_run, harness.result_cache.hits) \
            == (len(healthy), hits)
        # ...and on disk: a fresh harness simulates nothing.
        fresh = ExperimentHarness(scale=0.02, cache_dir=tmp_path)
        for cell in healthy:
            fresh.run(*cell)
        assert fresh.sims_run == 0

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_raising_generator_fails_only_its_own_cell(self, tmp_path,
                                                        monkeypatch,
                                                        fidelity):
        """A functional cell's cache key compiles its trace in this
        process; a generator that raises there loses its cell, as a
        worker's raise does, and the healthy cells run and are
        stored."""
        monkeypatch.setitem(WORKLOAD_REGISTRY, "raising", RaisingWorkload)
        harness = ExperimentHarness(scale=0.02, cache_dir=tmp_path,
                                    fidelity=fidelity)
        with pytest.raises(RuntimeError, match=(
                r"^1 of 2 parallel cells did not complete: raising/none "
                r"\(ValueError: generator bug\)$")):
            harness.matrix(["vecadd", "raising"], ["none"], workers=2)
        assert harness.sims_run == 1
        fresh = ExperimentHarness(scale=0.02, cache_dir=tmp_path,
                                  fidelity=fidelity)
        fresh.run("vecadd", "none")
        assert fresh.sims_run == 0

    def test_chaos_killed_worker_converges(self, serial_grid, tmp_path,
                                           monkeypatch):
        cells = [f"{wl}/{sc}" for wl in WORKLOADS for sc in SCHEMES]

        def victims(seed):
            policy = ChaosPolicy(seed=seed, kill_prob=0.5)
            killed = [c for c in cells if policy.worker_fault(c, 1) == "kill"]
            spared = all(policy.worker_fault(c, 2) is None for c in killed)
            return killed if spared else []

        seed = next(s for s in range(500) if victims(s))
        monkeypatch.setenv(CHAOS_ENV,
                           ChaosPolicy(seed=seed, kill_prob=0.5).to_json())
        log = tmp_path / "run.log.jsonl"
        grid = ExperimentHarness(scale=SCALE, log=log).matrix(
            WORKLOADS, SCHEMES, workers=2)
        monkeypatch.setenv(CHAOS_ENV, "off")
        for wl in WORKLOADS:
            for sc in SCHEMES:
                assert comparable(grid[wl][sc]) \
                    == comparable(serial_grid[wl][sc]), f"{wl}/{sc} differs"
        retried = {r["cell"] for r in read_jsonl(log)
                   if r["event"] == "campaign.cell.retry"}
        assert retried == set(victims(seed))


class TestNormalizedPerformance:
    def test_implicit_baseline_not_in_schemes(self):
        # Pre-fix this raised KeyError('none'): the baseline was looked
        # up in the grid without ever being run.
        harness = ExperimentHarness(scale=SCALE)
        table = harness.normalized_performance(["vecadd"], ["cachecraft"],
                                               baseline="none")
        assert list(table["vecadd"]) == ["cachecraft"]
        assert table["vecadd"]["cachecraft"] > 0
        assert "geomean" in table

    def test_explicit_baseline_row_kept(self):
        harness = ExperimentHarness(scale=SCALE)
        table = harness.normalized_performance(["vecadd"], SCHEMES,
                                               baseline="none")
        assert table["vecadd"]["none"] == pytest.approx(1.0)

    def test_parallel_matches_serial(self):
        serial = ExperimentHarness(scale=SCALE).normalized_performance(
            WORKLOADS, SCHEMES)
        parallel = ExperimentHarness(scale=SCALE).normalized_performance(
            WORKLOADS, SCHEMES, workers=2)
        assert parallel == serial


def test_compare_schemes_workers_and_harness():
    harness = ExperimentHarness(scale=SCALE)
    rows = compare_schemes("vecadd", SCHEMES, scale=SCALE,
                           workers=2, harness=harness)
    assert [r["scheme"] for r in rows] == SCHEMES
    assert rows[0]["norm_perf"] == pytest.approx(1.0)
    assert harness.sims_run == len(SCHEMES)


class TestOneWatchdogOnBothPaths:
    """A cell that livelocks trips the engine watchdog's no-progress
    check whether it runs in this process or in a forked worker, long
    before ``max_events`` runs out."""

    @pytest.fixture
    def livelocked(self, monkeypatch):
        """Every loaded system also queues an event that reschedules
        itself at the same cycle forever."""
        load = GpuSystem.load_workload

        def load_and_spin(system, *args, **kwargs):
            def spin():
                system.sim.schedule(0, spin)

            gen_ctx = load(system, *args, **kwargs)
            system.sim.schedule(0, spin)
            return gen_ctx

        monkeypatch.setattr(GpuSystem, "load_workload", load_and_spin)

    def test_serial_cell(self, livelocked):
        harness = ExperimentHarness(scale=0.02, max_events=2_000_000)
        with pytest.raises(SimulationError, match="watchdog: no progress"):
            harness.run("vecadd", "none")

    def test_parallel_cells(self, livelocked):
        harness = ExperimentHarness(scale=0.02, max_events=2_000_000)
        with pytest.raises(RuntimeError, match="watchdog: no progress"):
            harness.matrix(["vecadd"], ["none", "sideband"], workers=2)
