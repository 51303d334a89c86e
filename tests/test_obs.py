"""Unit and integration tests for the observability package."""

import io
import json

import pytest

from repro.core.system import GpuSystem, run_workload
from repro.obs.hub import OBS_OFF, Observability, make_observability
from repro.obs.latency import LatencyAttributor
from repro.obs.profile import (check_breakdown_sums, hottest_components,
                               latency_breakdown_rows, render_profile)
from repro.obs.sampler import MetricsSampler
from repro.obs.tracer import ChromeTracer
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.workloads import make_workload


# -- tracer ------------------------------------------------------------------


class TestChromeTracer:
    def test_records_all_categories_by_default(self):
        tr = ChromeTracer()
        tr.instant("l2", "miss", 3)
        tr.complete("dram", "read", 5, 10)
        assert len(tr) == 2
        assert tr.wants("anything")

    def test_category_filter(self):
        tr = ChromeTracer(categories=["dram"])
        assert tr.wants("dram") and not tr.wants("l2")
        tr.instant("l2", "miss", 1)
        tr.instant("dram", "read", 1)
        assert [e["cat"] for e in tr.events] == ["dram"]

    def test_event_schema(self):
        tr = ChromeTracer()
        tr.instant("l2", "miss", 3, args={"line": 7}, tid=2)
        tr.complete("dram", "read", 5, dur=10, tid=1)
        inst, comp = tr.events
        assert inst == {"name": "miss", "cat": "l2", "ph": "i", "ts": 3,
                        "pid": 0, "tid": 2, "s": "t", "args": {"line": 7}}
        assert comp["ph"] == "X" and comp["dur"] == 10 and comp["ts"] == 5

    def test_ring_buffer_bounds_memory(self):
        tr = ChromeTracer(capacity=3)
        for i in range(10):
            tr.instant("l2", f"e{i}", i)
        assert len(tr) == 3
        assert tr.dropped == 7
        assert [e["name"] for e in tr.events] == ["e7", "e8", "e9"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ChromeTracer(capacity=0)

    def test_export_to_file_object(self):
        tr = ChromeTracer()
        tr.instant("l2", "miss", 1)
        buf = io.StringIO()
        assert tr.export(buf) == 1
        payload = json.loads(buf.getvalue())
        assert payload["traceEvents"][0]["name"] == "miss"
        assert payload["otherData"]["dropped_events"] == 0

    def test_export_to_path(self, tmp_path):
        tr = ChromeTracer()
        tr.complete("dram", "read", 2, 7)
        out = tmp_path / "trace.json"
        tr.export(str(out))
        payload = json.loads(out.read_text())
        assert payload["traceEvents"][0]["dur"] == 7


# -- sampler -----------------------------------------------------------------


def _sampler_fixture(interval=100):
    sim = Simulator()
    stats = StatsRegistry()
    group = stats.child("c")
    return sim, stats, group, MetricsSampler(sim, stats, interval)


class TestMetricsSampler:
    def test_counter_windows_are_deltas(self):
        sim, _stats, group, sampler = _sampler_fixture()
        counter = group.counter("events")
        counter.add(5)
        sampler.start()  # baseline snapshot swallows the pre-start 5
        sim.schedule(50, counter.add, 3)
        sim.schedule(150, counter.add, 2)
        sim.schedule(201, lambda: None)
        sim.run()
        sampler.finish()
        assert sampler.series("c.events") == [3, 2, 0]

    def test_gauge_sampled_as_level(self):
        sim, _stats, group, sampler = _sampler_fixture()
        gauge = group.gauge("depth")
        sampler.start()
        sim.schedule(50, gauge.set, 4)
        sim.schedule(150, gauge.set, 1)
        sim.schedule(201, lambda: None)
        sim.run()
        sampler.finish()
        assert sampler.series("c.depth") == [4, 1, 1]

    def test_derived_hit_rate(self):
        sim, _stats, group, sampler = _sampler_fixture()
        hits = group.counter("hits")
        misses = group.counter("sector_misses")
        sampler.start()
        sim.schedule(10, hits.add, 3)
        sim.schedule(20, misses.add, 1)
        sim.schedule(100, lambda: None)
        sim.run()
        sampler.finish()
        assert sampler.series("c.hit_rate") == [0.75]

    def test_metadata_hits_do_not_pollute_hit_rate(self):
        sim, stats, group, sampler = _sampler_fixture()
        group.counter("metadata_hits").add(0)
        mdc = stats.child("mdc0")
        hits, misses = mdc.counter("hits"), mdc.counter("line_misses")
        sampler.start()
        sim.schedule(10, group.get("metadata_hits").add, 9)
        sim.schedule(10, hits.add, 1)
        sim.schedule(10, misses.add, 1)
        sim.schedule(100, lambda: None)
        sim.run()
        sampler.finish()
        row = sampler.samples[0]
        assert row["mdc0.hit_rate"] == 0.5
        assert "c.hit_rate" not in row

    def test_bus_utilization_is_bounded(self):
        sim, _stats, group, sampler = _sampler_fixture()
        busy = group.counter("bus_busy_cycles")
        sampler.start()
        sim.schedule(10, busy.add, 60)
        sim.schedule(100, lambda: None)
        sim.run()
        sampler.finish()
        assert sampler.series("c.bus_utilization") == [0.6]

    def test_histogram_count_delta(self):
        sim, _stats, group, sampler = _sampler_fixture()
        hist = group.histogram("lat", [10])
        sampler.start()
        sim.schedule(10, hist.record, 5)
        sim.schedule(20, hist.record, 50)
        sim.schedule(100, lambda: None)
        sim.run()
        sampler.finish()
        assert sampler.series("c.lat.count") == [2]

    def test_sampler_never_extends_the_run(self):
        sim, _stats, group, sampler = _sampler_fixture(interval=100)
        group.counter("events")
        sampler.start()
        sim.schedule(350, lambda: None)
        sim.run()
        assert sim.now == 350
        sampler.finish()
        # Three full windows plus the trailing partial one.
        assert [row["cycle"] for row in sampler.samples] == [100, 200, 300,
                                                             350]

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MetricsSampler(sim, StatsRegistry(), 0)

    def test_jsonl_and_csv_round_trip(self):
        sim, _stats, group, sampler = _sampler_fixture()
        counter = group.counter("events")
        sampler.start()
        sim.schedule(50, counter.add, 3)
        sim.schedule(150, counter.add, 2)
        sim.run()
        sampler.finish()
        buf = io.StringIO()
        assert sampler.to_jsonl(buf) == len(sampler.samples)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert rows[0]["c.events"] == 3

        csv_buf = io.StringIO()
        sampler.to_csv(csv_buf)
        lines = csv_buf.getvalue().splitlines()
        assert "c.events" in lines[0].split(",")
        assert len(lines) == len(sampler.samples) + 1


# -- latency attribution -----------------------------------------------------


def _attributor():
    sim = Simulator()
    return sim, LatencyAttributor(sim, StatsRegistry().child("latency"))


class TestLatencyAttribution:
    def test_l2_hit_is_pure_queue_time(self):
        sim, attr = _attributor()
        token = attr.issue()
        token.hit = True

        def finish():
            attr.complete(token)

        sim.schedule(40, finish)
        sim.run()
        b = attr.breakdown()
        assert b["requests"] == 1 and b["l2_hit_requests"] == 1
        assert b["total_cycles"] == 40
        assert b["queue_cycles"] == 40
        assert b["data_cycles"] == 0 and b["metadata_cycles"] == 0

    def test_sum_identity_with_data_and_metadata(self):
        sim, attr = _attributor()
        token = attr.issue()

        def at_l2():
            token.t_arrive = sim.now
            attr.begin_fetch(token)
            data_cb = attr.link_read(False, lambda: None)
            meta_cb = attr.link_read(True, lambda: None)
            attr.end_fetch()
            sim.schedule(100, data_cb)     # data back at t=110
            sim.schedule(150, meta_cb)     # metadata 40 cycles later
            sim.schedule(200, done)

        def done():
            attr.complete(token)

        sim.schedule(10, at_l2)
        sim.run()
        b = attr.breakdown()
        assert b["total_cycles"] == 210    # issued at 0, completed at 210
        assert b["data_cycles"] == 100     # 110 - 10
        assert b["metadata_cycles"] == 50  # 160 - 110
        assert b["queue_cycles"] == 60
        assert (b["data_cycles"] + b["metadata_cycles"] + b["queue_cycles"]
                == b["total_cycles"])

    def test_metadata_under_data_shadow_costs_nothing(self):
        sim, attr = _attributor()
        token = attr.issue()

        def at_l2():
            attr.begin_fetch(token)
            data_cb = attr.link_read(False, lambda: None)
            meta_cb = attr.link_read(True, lambda: None)
            attr.end_fetch()
            sim.schedule(30, meta_cb)      # metadata first...
            sim.schedule(100, data_cb)     # ...data later shadows it
            sim.schedule(120, done)

        def done():
            attr.complete(token)

        sim.schedule(0, at_l2)
        sim.run()
        b = attr.breakdown()
        assert b["metadata_cycles"] == 0
        assert b["data_cycles"] == 100

    def test_link_read_takes_latest_completion(self):
        sim, attr = _attributor()
        token = attr.issue()
        attr.begin_fetch(token)
        first = attr.link_read(False, lambda: None)
        second = attr.link_read(False, lambda: None)
        attr.end_fetch()
        sim.schedule(80, first)
        sim.schedule(20, second)
        sim.run()
        assert token.t_data == 80

    def test_unfetched_token_attributes_everything_to_queue(self):
        # An MSHR-merged request never opens a fetch scope.
        sim, attr = _attributor()
        token = attr.issue()
        sim.schedule(70, attr.complete, token)
        sim.run()
        b = attr.breakdown()
        assert b["queue_cycles"] == 70
        assert b["data_cycles"] == 0


# -- hub ---------------------------------------------------------------------


class TestObservabilityHub:
    def test_off_hub_is_inert(self, small_config):
        assert OBS_OFF.enabled is False
        assert OBS_OFF.tracer is None
        GpuSystem(small_config, obs=OBS_OFF)
        assert OBS_OFF.sampler is None and OBS_OFF.latency is None

    def test_make_observability_defaults_off(self):
        obs = make_observability()
        assert obs.enabled is False

    def test_make_observability_trace_categories(self):
        obs = make_observability(trace_out="t.json",
                                 trace_categories="dram, l2")
        assert obs.tracer.wants("dram") and obs.tracer.wants("l2")
        assert not obs.tracer.wants("sm")

    def test_metrics_out_with_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            make_observability(metrics_out="m.jsonl", sample_interval=0)

    def test_sampler_only_with_metrics_out(self, small_config):
        obs = make_observability(metrics_out="m.jsonl", sample_interval=250)
        GpuSystem(small_config, obs=obs)
        assert obs.sampler is not None and obs.sampler.interval == 250
        assert obs.enabled

    def test_attach_builds_attributor(self, small_config):
        obs = Observability(attribute_latency=True)
        GpuSystem(small_config, obs=obs)
        assert obs.latency is not None

    def test_enabled_hub_rejects_second_attach(self, small_config):
        obs = Observability(attribute_latency=True)
        GpuSystem(small_config, obs=obs)
        with pytest.raises(RuntimeError, match="already attached"):
            GpuSystem(small_config, obs=obs)

    def test_detach_allows_reattach(self, small_config):
        obs = Observability(attribute_latency=True)
        GpuSystem(small_config, obs=obs)
        obs.detach()
        GpuSystem(small_config, obs=obs)  # no raise
        assert obs.latency is not None

    def test_disabled_hub_attach_is_repeatable(self, small_config):
        # OBS_OFF is shared by every GpuSystem: the single-attach
        # contract must only bind hubs that actually observe.
        obs = Observability()
        GpuSystem(small_config, obs=obs)
        GpuSystem(small_config, obs=obs)  # no raise

    def test_flame_hub_counts_as_enabled_but_not_timed(self):
        from repro.obs.flame import FlameProfiler

        obs = Observability(flame=FlameProfiler())
        assert obs.enabled and not obs.timed_enabled


# -- profile rendering -------------------------------------------------------


class TestProfile:
    def test_breakdown_rows_share_sums_to_total(self):
        latency = {"requests": 4, "total_cycles": 400, "data_cycles": 250,
                   "metadata_cycles": 50, "queue_cycles": 100}
        rows = latency_breakdown_rows(latency)
        assert [r[0] for r in rows] == ["data", "metadata", "queue/transit",
                                        "total"]
        assert sum(r[1] for r in rows[:-1]) == rows[-1][1] == 400

    def test_check_breakdown_sums(self):
        good = {"total_cycles": 100, "data_cycles": 70,
                "metadata_cycles": 10, "queue_cycles": 20}
        bad = dict(good, queue_cycles=40)
        assert check_breakdown_sums(good)
        assert not check_breakdown_sums(bad)
        assert check_breakdown_sums({})  # nothing attributed: trivially ok

    def test_hottest_components_ranks_by_occupancy(self):
        stats = {"dram0.bus_busy_cycles": 800, "dram1.bus_busy_cycles": 200,
                 "xbar.req0.busy_cycles": 500, "sm0.instructions": 100,
                 "l2s0.load_requests": 300, "l2s0.store_requests": 100}
        rows = hottest_components(stats, cycles=1000, k=3)
        assert [r[0] for r in rows] == ["dram0", "xbar.req0", "l2s0"]
        assert rows[0][2] == "80.0%"

    def test_hottest_components_empty_on_zero_cycles(self):
        assert hottest_components({"dram0.bus_busy_cycles": 5}, 0) == []


# -- end-to-end --------------------------------------------------------------


class TestIntegration:
    def test_disabled_run_has_no_observability_residue(self, small_config,
                                                       tiny_gen):
        result = run_workload(make_workload("vecadd"), small_config,
                              gen_ctx=tiny_gen)
        assert result.latency == {}
        assert not any(key.startswith("latency.") for key in result.stats)

    def test_observed_run_produces_all_artifacts(self, small_config,
                                                 tiny_gen):
        obs = make_observability(
            trace_out="t.json", metrics_out="m.jsonl", sample_interval=200,
            attribute_latency=True)
        result = run_workload(make_workload("vecadd"), small_config,
                              gen_ctx=tiny_gen, obs=obs)

        events = obs.tracer.events
        assert events, "trace should capture events"
        assert {e["cat"] for e in events} >= {"sm", "l2", "dram"}
        for event in events:
            assert event["ph"] in ("X", "i", "C")
            assert "ts" in event and "name" in event

        assert len(obs.sampler.samples) >= 2
        assert len(obs.sampler.keys()) >= 2

        lat = result.latency
        assert lat["requests"] > 0
        assert (lat["data_cycles"] + lat["metadata_cycles"]
                + lat["queue_cycles"] == lat["total_cycles"])
        assert check_breakdown_sums(lat)

        report = render_profile(result)
        assert "latency breakdown" in report
        assert "hottest components" in report

    def test_observed_and_disabled_runs_agree_on_results(self, small_config,
                                                         tiny_gen):
        plain = run_workload(make_workload("spmv"), small_config,
                             gen_ctx=tiny_gen)
        obs = make_observability(trace_out="t.json", metrics_out="m.jsonl",
                                 sample_interval=100, attribute_latency=True)
        observed = run_workload(make_workload("spmv"), small_config,
                                gen_ctx=tiny_gen, obs=obs)
        assert observed.cycles == plain.cycles
        assert observed.traffic == plain.traffic

    def test_attribution_works_under_every_scheme(self, small_config,
                                                  tiny_gen):
        from repro.core.config import ALL_SCHEMES

        for scheme in ALL_SCHEMES:
            obs = Observability(attribute_latency=True)
            result = run_workload(make_workload("saxpy"),
                                  small_config.with_scheme(scheme),
                                  gen_ctx=tiny_gen, obs=obs)
            lat = result.latency
            assert lat["requests"] > 0, scheme
            assert check_breakdown_sums(lat), scheme
            assert lat["queue_cycles"] >= 0, scheme


# -- profile edge cases ------------------------------------------------------


class TestProfileEdgeCases:
    def test_check_breakdown_sums_zero_total_is_vacuously_true(self):
        assert check_breakdown_sums({}) is True
        assert check_breakdown_sums({"total_cycles": 0}) is True
        assert check_breakdown_sums({"total_cycles": 0,
                                     "data_cycles": 99}) is True

    def test_check_breakdown_sums_detects_mismatch(self):
        assert check_breakdown_sums({"total_cycles": 100,
                                     "data_cycles": 50,
                                     "metadata_cycles": 10,
                                     "queue_cycles": 10}) is False
        assert check_breakdown_sums({"total_cycles": 100,
                                     "data_cycles": 60,
                                     "metadata_cycles": 30,
                                     "queue_cycles": 10}) is True

    def test_hottest_components_zero_cycles_is_empty(self):
        stats = {"dram.busy_cycles": 500, "l2.busy_cycles": 100}
        assert hottest_components(stats, cycles=0) == []
        assert hottest_components(stats, cycles=-1) == []

    def test_render_profile_without_latency_says_so(self, small_config,
                                                    tiny_gen):
        result = run_workload(make_workload("vecadd"), small_config,
                              gen_ctx=tiny_gen)  # no latency attribution
        text = render_profile(result)
        assert "no attributed requests" in text

    def test_latency_breakdown_rows_zero_requests_no_crash(self):
        rows = latency_breakdown_rows({"total_cycles": 0, "requests": 0,
                                       "data_cycles": 0})
        assert isinstance(rows, list)
