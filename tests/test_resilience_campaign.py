"""Tests for the resilient campaign runner, worker and journal resume.

Worker cells run the tiniest useful configuration (vecadd at scale
0.02) so the whole module stays in the seconds range.
"""

import json

import pytest

from repro.analysis.harness import ExperimentHarness, bench_config
from repro.resilience.campaign import (CampaignRunner, CampaignSummary,
                                       build_cells, result_summary)
from repro.resilience.worker import run_cell_result

TINY = {"scale": 0.02, "max_events": 5_000_000}


def tiny_cells(workloads=("vecadd",), schemes=("none",), **kwargs):
    merged = dict(TINY)
    merged.update(kwargs)
    return build_cells(list(workloads), list(schemes), **merged)


class TestCellSpecs:
    def test_grid_covers_workload_x_scheme(self):
        cells = build_cells(["vecadd", "spmv"], ["none", "cachecraft"])
        assert [c["cell"] for c in cells] == [
            "vecadd/none", "vecadd/cachecraft",
            "spmv/none", "spmv/cachecraft"]

    def test_sabotage_tags_only_named_cell(self):
        cells = build_cells(["vecadd"], ["none", "cachecraft"],
                            sabotage={"vecadd/none": "crash"})
        by_id = {c["cell"]: c for c in cells}
        assert by_id["vecadd/none"]["sabotage"] == "crash"
        assert "sabotage" not in by_id["vecadd/cachecraft"]

    def test_spec_round_trips_to_config(self):
        spec = tiny_cells(
            schemes=("cachecraft",),
            resilience={"recovery": {"max_retries": 5},
                        "fault_processes": [
                            {"kind": "transient", "rate_per_kcycle": 1.0}],
                        "inject_seed": 7},
            protection={"functional": True})[0]
        config = spec["config"]
        assert config.protection.scheme == "cachecraft"
        assert config.protection.functional
        assert config.resilience.recovery.max_retries == 5
        assert config.resilience.inject_seed == 7
        assert config.resilience.fault_processes[0].rate_per_kcycle == 1.0

    def test_run_cell_in_process(self):
        spec = tiny_cells()[0]
        out = result_summary(spec, run_cell_result(spec))
        assert out["status"] == "ok"
        assert out["cell"] == "vecadd/none"
        assert out["cycles"] > 0

    def test_run_cell_reports_resilience_stats(self):
        spec = tiny_cells(
            schemes=("sideband",),
            resilience={"fault_processes": [
                {"kind": "transient", "rate_per_kcycle": 50.0}]},
            protection={"functional": True})[0]
        out = result_summary(spec, run_cell_result(spec))
        assert out["status"] == "ok"
        assert out["resilience"]["injector.data_flips"] > 0


class TestRunner:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignRunner(tmp_path / "j.jsonl", workers=0)
        with pytest.raises(ValueError):
            CampaignRunner(tmp_path / "j.jsonl", max_attempts=0)

    def test_all_cells_complete(self, tmp_path):
        journal = tmp_path / "ok.jsonl"
        runner = CampaignRunner(journal, workers=2, timeout=120)
        summary = runner.run(tiny_cells(schemes=("none", "cachecraft")))
        assert summary.ok
        assert sorted(summary.done) == ["vecadd/cachecraft", "vecadd/none"]
        assert summary.records["vecadd/none"]["cycles"] > 0

    def test_crash_is_isolated_and_quarantined(self, tmp_path):
        journal = tmp_path / "crash.jsonl"
        runner = CampaignRunner(journal, workers=2, timeout=120,
                                max_attempts=2, retry_backoff=0.05)
        summary = runner.run(tiny_cells(
            schemes=("none", "cachecraft"),
            sabotage={"vecadd/none": "crash"}))
        # Every attempt died transiently (hard exit, no error report):
        # the taxonomy calls that crash-looping and quarantines it.
        assert summary.quarantined == ["vecadd/none"]
        assert not summary.failed and not summary.ok
        assert summary.done == ["vecadd/cachecraft"]  # sweep continued
        record = summary.records["vecadd/none"]
        assert record["status"] == "quarantined"
        assert record["class"] == "crash-looping"
        assert record["classes"] == ["transient", "transient"]
        assert record["attempts"] == 2  # retried before giving up
        assert "13" in record["error"]

    def test_hang_is_killed_by_timeout(self, tmp_path):
        journal = tmp_path / "hang.jsonl"
        runner = CampaignRunner(journal, workers=1, timeout=2,
                                max_attempts=1)
        summary = runner.run(tiny_cells(sabotage={"vecadd/none": "hang"}))
        assert summary.failed == ["vecadd/none"]
        assert "timeout" in summary.records["vecadd/none"]["error"]

    def test_livelock_tripped_by_engine_watchdog(self, tmp_path):
        journal = tmp_path / "livelock.jsonl"
        runner = CampaignRunner(journal, workers=1, timeout=120,
                                max_attempts=1)
        summary = runner.run(tiny_cells(
            sabotage={"vecadd/none": "livelock"}))
        assert summary.failed == ["vecadd/none"]
        assert "watchdog" in summary.records["vecadd/none"]["error"]

    def test_resume_skips_journaled_cells(self, tmp_path):
        journal = tmp_path / "resume.jsonl"
        cells = tiny_cells(schemes=("none", "cachecraft"))
        first = CampaignRunner(journal, timeout=120).run(cells[:1])
        assert first.done == ["vecadd/none"]
        second = CampaignRunner(journal, timeout=120).run(cells)
        assert second.skipped == ["vecadd/none"]
        assert second.done == ["vecadd/cachecraft"]
        # The skipped cell's journal record is still surfaced.
        assert second.records["vecadd/none"]["status"] == "done"

    def test_no_resume_truncates_journal(self, tmp_path):
        journal = tmp_path / "fresh.jsonl"
        cells = tiny_cells()
        CampaignRunner(journal, timeout=120).run(cells)
        summary = CampaignRunner(journal, timeout=120).run(cells,
                                                           resume=False)
        assert summary.done == ["vecadd/none"] and not summary.skipped

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        journal = tmp_path / "torn.jsonl"
        cells = tiny_cells(schemes=("none", "cachecraft"))
        CampaignRunner(journal, timeout=120).run(cells[:1])
        with journal.open("a") as fh:
            fh.write('{"cell": "vecadd/cachecraft", "status": "do')  # torn
        summary = CampaignRunner(journal, timeout=120).run(cells)
        assert summary.skipped == ["vecadd/none"]
        assert summary.done == ["vecadd/cachecraft"]

    def test_failed_cells_are_not_resumed_as_done(self, tmp_path):
        journal = tmp_path / "fail.jsonl"
        cells = tiny_cells(sabotage={"vecadd/none": "crash"})
        CampaignRunner(journal, timeout=120, max_attempts=1).run(cells)
        # Without the sabotage flag, the rerun executes the cell again.
        summary = CampaignRunner(journal, timeout=120).run(tiny_cells())
        assert summary.done == ["vecadd/none"] and not summary.skipped

    def test_journal_records_are_json_lines(self, tmp_path):
        journal = tmp_path / "lines.jsonl"
        CampaignRunner(journal, timeout=120).run(tiny_cells())
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert records and records[-1]["status"] == "done"
        assert records[-1]["result"]["cycles"] > 0

    def test_summary_ok_property(self):
        assert CampaignSummary(done=["a"]).ok
        assert not CampaignSummary(failed=["b"]).ok
        assert not CampaignSummary(quarantined=["c"]).ok


class TestFailureTaxonomy:
    def test_classification_rules(self):
        classify = CampaignRunner.classify_failure
        assert classify({"timeout": True}) == "transient"
        assert classify({"worker_reported": True,
                         "returncode": 1}) == "persistent"
        # Signal death / hard exit without a self-report: host's fault.
        assert classify({"worker_reported": False,
                         "returncode": -9}) == "transient"
        assert classify({"returncode": 13}) == "transient"

    def test_retry_delay_deterministic_jittered_capped(self, tmp_path):
        runner = CampaignRunner(tmp_path / "j.jsonl", retry_backoff=0.5,
                                retry_backoff_max=4.0)
        first = runner.retry_delay("a/b", 1)
        assert first == runner.retry_delay("a/b", 1)  # deterministic
        assert 0.25 <= first < 0.75                   # base * [0.5, 1.5)
        assert first != runner.retry_delay("c/d", 1)  # per-cell jitter
        # Exponential growth hits the configurable cap.
        assert runner.retry_delay("a/b", 10) <= 4.0 * 1.5

    def test_backoff_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignRunner(tmp_path / "j.jsonl", retry_backoff_max=0)

    def test_persistent_failures_get_a_bounded_budget(self, tmp_path):
        # Livelock makes the worker report its own error (exit 1 with
        # an error object): persistent, so even a generous
        # max_attempts only buys persistent_max_attempts tries.
        journal = tmp_path / "persistent.jsonl"
        runner = CampaignRunner(journal, workers=1, timeout=120,
                                max_attempts=5, retry_backoff=0.01)
        summary = runner.run(tiny_cells(
            sabotage={"vecadd/none": "livelock"}))
        assert summary.failed == ["vecadd/none"]  # failed, not quarantined
        record = summary.records["vecadd/none"]
        assert record["attempts"] == CampaignRunner.persistent_max_attempts
        assert record["classes"] == ["persistent", "persistent"]

    def test_quarantine_blocks_resume_until_fsck_releases(self, tmp_path):
        from repro.resilience.fsck import FsckReport, fsck_jsonl

        journal = tmp_path / "quar.jsonl"
        CampaignRunner(journal, timeout=120, max_attempts=2,
                       retry_backoff=0.01).run(
            tiny_cells(sabotage={"vecadd/none": "crash"}))
        # Resume (now without sabotage): the cell stays parked.
        parked = CampaignRunner(journal, timeout=120).run(tiny_cells())
        assert parked.quarantined == ["vecadd/none"]
        assert not parked.done and not parked.ok
        # fsck --repair is the operator's explicit release signal.
        fsck_jsonl(journal, "journal", FsckReport(), repair=True,
                   drop_status="quarantined")
        released = CampaignRunner(journal, timeout=120).run(tiny_cells())
        assert released.done == ["vecadd/none"] and released.ok


class TestGracefulDegradation:
    def test_degradable_gate(self, tmp_path):
        runner = CampaignRunner(tmp_path / "j.jsonl")
        assert runner._degradable(tiny_cells()[0])
        assert not runner._degradable(
            tiny_cells(resilience={"inject_seed": 1})[0])
        assert not runner._degradable(tiny_cells(
            config=bench_config().with_fidelity("functional"))[0])

    def test_functional_rescue_after_chaos_kills(self, tmp_path,
                                                 monkeypatch):
        from repro.obs.structlog import read_jsonl
        from repro.resilience.chaos import CHAOS_ENV

        # Every chaos-armed attempt dies by SIGKILL; the degraded
        # rescue attempt is chaos-exempt and runs the functional tier.
        monkeypatch.setenv(CHAOS_ENV, '{"seed": 1, "kill_prob": 1.0}')
        journal = tmp_path / "degrade.jsonl"
        runner = CampaignRunner(journal, workers=1, timeout=120,
                                max_attempts=1, retry_backoff=0.01,
                                degrade=True)
        summary = runner.run(tiny_cells())
        monkeypatch.setenv(CHAOS_ENV, "off")
        assert summary.done == ["vecadd/none"]
        assert summary.degraded == ["vecadd/none"]
        result = summary.records["vecadd/none"]
        assert result["fidelity"] == "functional"
        assert result["degraded"] is True
        statuses = [r["status"] for r in read_jsonl(journal)]
        assert statuses == ["degrading", "done"]
        done = list(read_jsonl(journal))[-1]
        assert done["degraded"] is True  # provenance survives resume

    def test_no_degradation_without_the_flag(self, tmp_path, monkeypatch):
        from repro.resilience.chaos import CHAOS_ENV

        monkeypatch.setenv(CHAOS_ENV, '{"seed": 1, "kill_prob": 1.0}')
        runner = CampaignRunner(tmp_path / "j.jsonl", workers=1,
                                timeout=120, max_attempts=2,
                                retry_backoff=0.01)
        summary = runner.run(tiny_cells())
        monkeypatch.setenv(CHAOS_ENV, "off")
        assert summary.quarantined == ["vecadd/none"]  # crash-looping


class TestHarnessIntegration:
    def test_run_campaign_through_harness(self, tmp_path):
        harness = ExperimentHarness(scale=0.02)
        summary = harness.run_campaign(
            ["vecadd"], schemes=["none"],
            journal_path=str(tmp_path / "h.jsonl"), timeout=120)
        assert summary.ok and summary.done == ["vecadd/none"]

    def test_run_campaign_uses_the_harness_machine(self, tmp_path):
        # The campaign cell must simulate what harness.run does: the
        # harness's machine and workload params, not bench_config().
        harness = ExperimentHarness(
            config=bench_config(l2_size_kb=256, num_sms=2), scale=0.02,
            workload_params={"vecadd": {"iters_per_warp": 600}}, ledger=False)
        summary = harness.run_campaign(
            ["vecadd"], schemes=["cachecraft"],
            journal_path=str(tmp_path / "m.jsonl"), timeout=120)
        direct = harness.run("vecadd", "cachecraft")
        record = summary.records["vecadd/cachecraft"]
        assert record["cycles"] == direct.cycles
        assert record["traffic"] == direct.traffic
