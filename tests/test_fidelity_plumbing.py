"""Plumbing around the fidelity tiers: trace memoization, cache keys,
cache stats, ledger/regress records, harness and CLI surfaces."""

import json

import pytest

from repro.analysis.harness import ExperimentHarness, compare_schemes
from repro.analysis.result_cache import ResultCache, cache_key
from repro.cli import main
from repro.core.config import test_config as small_config
from repro.core.results import MODEL_VERSION, RunResult
from repro.workloads.base import (
    COMPILED_CACHE_CAPACITY,
    GenContext,
    make_workload,
    materialize,
    materialize_compiled,
    trace_cache_clear,
    trace_cache_stats,
)


class TestTraceMemoization:
    """One memo per trace: the compiled artifact.  The op lists it is
    compiled from are generated afresh and live only until then."""

    def setup_method(self):
        trace_cache_clear()

    def test_hit_on_identical_request(self):
        wl = make_workload("vecadd")
        ctx = GenContext(num_sms=1, warps_per_sm=2, scale=0.05)
        assert materialize(wl, ctx) is not materialize(wl, ctx)
        first = materialize_compiled(wl, ctx)
        stats = trace_cache_stats()
        assert (stats["compiled_hits"], stats["compiled_misses"]) == (0, 1)
        second = materialize_compiled(make_workload("vecadd"), ctx)
        stats = trace_cache_stats()
        assert (stats["compiled_hits"], stats["compiled_misses"]) == (1, 1)
        assert first is second

    def test_distinct_params_and_ctx_miss(self):
        ctx = GenContext(num_sms=1, warps_per_sm=2, scale=0.05)
        materialize_compiled(make_workload("vecadd"), ctx)
        materialize_compiled(make_workload("divergence", density=0.5), ctx)
        materialize_compiled(make_workload("divergence", density=0.9), ctx)
        materialize_compiled(make_workload("vecadd"),
                             GenContext(num_sms=1, warps_per_sm=2,
                                        scale=0.06))
        stats = trace_cache_stats()
        assert stats["compiled_misses"] == 4
        assert stats["compiled_entries"] == 4

    def test_lru_eviction_bounds_entries(self):
        wl = make_workload("vecadd")
        for i in range(COMPILED_CACHE_CAPACITY + 4):
            materialize_compiled(wl, GenContext(num_sms=1, warps_per_sm=1,
                                                scale=0.01, seed=i))
        assert trace_cache_stats()["compiled_entries"] \
            == COMPILED_CACHE_CAPACITY

    def test_system_load_uses_memo(self):
        """The event tier compiles too: its SMs run the artifact."""
        from repro.core.system import GpuSystem

        config = small_config()
        ctx = GenContext(num_sms=config.gpu.num_sms,
                         warps_per_sm=config.gpu.warps_per_sm, scale=0.02)
        for _ in range(2):
            system = GpuSystem(config)
            system.load_workload(make_workload("vecadd"), ctx)
        assert trace_cache_stats()["compiled_hits"] >= 1


class TestImmediateQueueBudget:
    """``max_events`` is a hard cap: at most N micro-tasks run.

    Regression tests for the historical off-by-one where the
    comparison ran after the increment, so ``budget + 1`` tasks
    executed before the queue noticed.
    """

    def _queue(self, budget):
        from repro.sim.functional import ImmediateQueue

        q = ImmediateQueue()
        q.set_budget(budget)
        return q

    def test_exact_budget_completes(self):
        q = self._queue(3)
        ran = []
        for i in range(3):
            q.schedule(0, ran.append, i)
        q.drain()  # total work == budget: must finish cleanly
        assert ran == [0, 1, 2]
        assert q.events_executed == 3

    def test_budget_plus_one_raises_without_running_it(self):
        from repro.sim.engine import SimulationError

        q = self._queue(3)
        ran = []
        for i in range(4):
            q.schedule(0, ran.append, i)
        with pytest.raises(SimulationError):
            q.drain()
        assert ran == [0, 1, 2]  # the 4th task never executed
        assert q.events_executed == 3

    def test_budget_is_cumulative_across_drains(self):
        from repro.sim.engine import SimulationError

        q = self._queue(3)
        q.schedule(0, lambda: None)
        q.schedule(0, lambda: None)
        q.drain()
        q.schedule(0, lambda: None)
        q.drain()
        assert q.events_executed == 3
        q.schedule(0, lambda: None)
        with pytest.raises(SimulationError):
            q.drain()
        assert q.events_executed == 3


class TestFunctionalChannelEnqueue:
    """The functional DRAM channel counts an access at enqueue and runs
    its callback through the queue, once per enqueue."""

    def _channel(self):
        from repro.sim.functional import FunctionalChannel, ImmediateQueue

        q = ImmediateQueue()
        return q, FunctionalChannel("dram0", q)

    def test_callback_survives_enqueue(self):
        from repro.dram.channel import RequestKind

        q, ch = self._channel()
        acks = []
        ch.enqueue(0x1000, False, RequestKind.DATA,
                   lambda: acks.append(1), atoms=2)
        assert acks == []  # queued, not called from inside enqueue
        q.drain()
        assert acks == [1]
        assert ch.stats.get("reads").value == 2

    def test_reenqueued_request_acks_again(self):
        from repro.dram.channel import RequestKind

        q, ch = self._channel()
        acks = []
        access = (0x2000, False, RequestKind.DATA, lambda: acks.append(1))
        ch.enqueue(*access)
        q.drain()
        ch.enqueue(*access)  # replay/retry path re-submits the same access
        q.drain()
        assert acks == [1, 1]
        assert ch.stats.get("reads").value == 2


class TestCacheKeyCompat:
    def test_default_fidelity_and_blocking_stores_do_not_change_keys(self):
        cfg = small_config()
        assert cache_key("vecadd", cfg, 0.1, 42) \
            == cache_key("vecadd", cfg.with_fidelity("event"), 0.1, 42)

    def test_functional_gets_its_own_key(self):
        cfg = small_config()
        assert cache_key("vecadd", cfg, 0.1, 42) \
            != cache_key("vecadd", cfg.with_fidelity("functional"), 0.1, 42)

    def test_blocking_stores_gets_its_own_key(self):
        cfg = small_config()
        assert cache_key("vecadd", cfg, 0.1, 42) \
            != cache_key("vecadd", small_config(blocking_stores=True),
                         0.1, 42)

    def test_trace_digest_none_is_back_compatible(self):
        cfg = small_config()
        assert cache_key("vecadd", cfg, 0.1, 42) \
            == cache_key("vecadd", cfg, 0.1, 42, trace_digest=None)

    def test_trace_digest_changes_the_key(self):
        cfg = small_config().with_fidelity("functional")
        base = cache_key("vecadd", cfg, 0.1, 42)
        d1 = cache_key("vecadd", cfg, 0.1, 42, trace_digest="a" * 32)
        d2 = cache_key("vecadd", cfg, 0.1, 42, trace_digest="b" * 32)
        assert len({base, d1, d2}) == 3

    def test_result_cache_threads_digest(self, tmp_path):
        cfg = small_config().with_fidelity("functional")
        cache = ResultCache(tmp_path)
        assert cache.key_for("vecadd", cfg, 0.1, 42,
                             trace_digest="a" * 32) \
            == cache_key("vecadd", cfg, 0.1, 42, trace_digest="a" * 32)


def _result(fidelity="event", cycles=100):
    return RunResult(workload="vecadd", scheme="none", cycles=cycles,
                     traffic={"data": 512}, stats={}, fidelity=fidelity)


class TestResultFidelity:
    def test_round_trip(self):
        res = _result("functional", cycles=0)
        again = RunResult.from_dict(json.loads(json.dumps(res.to_dict())))
        assert again.fidelity == "functional"
        assert json.loads(res.to_json())["fidelity"] == "functional"

    def test_legacy_payload_defaults_to_event(self):
        payload = _result().to_dict()
        del payload["fidelity"]
        assert RunResult.from_dict(payload).fidelity == "event"

    def test_performance_vs_needs_timing(self):
        timed, untimed = _result(), _result("functional", cycles=0)
        with pytest.raises(ValueError, match="timing"):
            untimed.performance_vs(timed)
        with pytest.raises(ValueError, match="timing"):
            timed.performance_vs(untimed)

    def test_key_metrics_omits_cycles_when_functional(self):
        assert "cycles" in _result().key_metrics()
        assert "cycles" not in _result("functional").key_metrics()


class TestCacheStatsByVersion:
    def test_per_version_breakdown(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("vecadd", small_config(), 0.1, 42)
        cache.put(key, _result())
        # A stale generation, hand-planted the way an old process
        # would have left it.
        stale_dir = tmp_path / "ab"
        stale_dir.mkdir()
        (stale_dir / ("ab" + "0" * 62 + ".json")).write_text(json.dumps(
            {"format": 1, "model_version": "0", "result": {}}))
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["current_model_entries"] == 1
        by_version = stats["by_model_version"]
        assert by_version[MODEL_VERSION]["entries"] == 1
        assert by_version["0"]["entries"] == 1
        assert by_version["0"]["bytes"] > 0


class TestLedgerAndRegressFidelity:
    def test_record_carries_fidelity_and_cell_suffix(self):
        from repro.obs.ledger import record_from_result

        rec = record_from_result(_result("functional", cycles=0))
        assert rec["fidelity"] == "functional"
        assert rec["cell"] == "vecadd/none@functional"
        event = record_from_result(_result())
        assert event["fidelity"] == "event"
        assert event["cell"] == "vecadd/none"

    def test_match_separates_tiers(self):
        from repro.obs.regress import _match

        spec = {"workload": "vecadd", "scheme": "none"}
        assert _match(spec, {"workload": "vecadd", "scheme": "none"})
        assert not _match(spec, {"workload": "vecadd", "scheme": "none",
                                 "fidelity": "functional"})
        functional_spec = dict(spec, fidelity="functional")
        assert _match(functional_spec,
                      {"workload": "vecadd", "scheme": "none",
                       "fidelity": "functional"})

    def test_bench_record_includes_functional_figure(self):
        from repro.obs.ledger import record_from_bench

        payload = {"raw_engine": {"events_per_sec": 10},
                   "real_sim": {"events_per_sec": 2},
                   "functional_sim": {"events_per_sec": 20}}
        rec = record_from_bench(payload)
        assert rec["metrics"]["functional_events_per_sec"] == 20
        legacy = record_from_bench({"raw_engine": {}, "real_sim": {}})
        assert "functional_events_per_sec" not in legacy["metrics"]


class TestHarnessFidelity:
    def test_rejects_unknown_tier(self):
        with pytest.raises(ValueError, match="fidelity"):
            ExperimentHarness(fidelity="speedy")

    def test_functional_compare_rows(self, tmp_path):
        rows = compare_schemes(
            "vecadd", schemes=("none", "cachecraft"),
            config=small_config(), scale=0.05, seed=42,
            cache_dir=tmp_path, ledger=False, fidelity="functional")
        assert [r["scheme"] for r in rows] == ["none", "cachecraft"]
        for row in rows:
            assert row["norm_perf"] is None
            assert row["cycles"] == 0
            assert row["dram_bytes"] > 0

    def test_functional_campaign_rejected(self):
        harness = ExperimentHarness(config=small_config(), ledger=False,
                                    fidelity="functional")
        with pytest.raises(ValueError, match="event"):
            harness.run_campaign(["vecadd"], ["none"])


class TestCliFidelity:
    def test_timed_flags_fail_fast(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="event timing"):
            main(["compare", "-w", "vecadd", "--scale", "0.02",
                  "--fidelity", "functional",
                  "--trace-out", str(tmp_path / "t.json")])
        with pytest.raises(SystemExit, match="event timing"):
            main(["run", "-w", "vecadd", "--scale", "0.02",
                  "--fidelity", "functional",
                  "--metrics-out", str(tmp_path / "m.csv")])

    def test_functional_run_smoke(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "-w", "vecadd", "--scale", "0.02",
                     "--fidelity", "functional"]) == 0
        out = capsys.readouterr().out
        assert "fidelity=functional" in out
        assert "cycles=" not in out
        assert "bottleneck=" not in out
