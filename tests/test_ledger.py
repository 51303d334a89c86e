"""Tests for the cross-run telemetry ledger (repro.obs.ledger)."""

import json
import os

import pytest

from repro.analysis.harness import ExperimentHarness
from repro.core.results import MODEL_VERSION
from repro.obs.ledger import (LEDGER_ENV, RunLedger, default_ledger_path,
                              record_from_bench, record_from_result,
                              resolve_ledger)


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(tmp_path / "ledger.jsonl")


# -- append / read round trips ------------------------------------------------


class TestAppend:
    def test_append_creates_file_and_returns_run_id(self, ledger):
        run_id = ledger.append({"kind": "run", "cell": "vecadd/none",
                                "metrics": {"cycles": 100}})
        assert isinstance(run_id, str) and len(run_id) == 12
        records = ledger.records()
        assert len(records) == 1
        assert records[0]["run_id"] == run_id

    def test_provenance_stamped_on_every_record(self, ledger):
        ledger.append({"kind": "run", "cell": "vecadd/none", "metrics": {}})
        rec = ledger.records()[0]
        assert rec["format"] == 1
        assert rec["model_version"] == MODEL_VERSION
        assert isinstance(rec["ts"], float)
        # In this repo the git SHA resolves; outside git it would be None.
        assert "git_sha" in rec

    def test_each_line_is_one_complete_json_record(self, ledger):
        for i in range(5):
            ledger.append({"kind": "run", "cell": f"c/{i}", "metrics": {}})
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            assert isinstance(json.loads(line), dict)

    def test_run_ids_are_unique(self, ledger):
        ids = {ledger.append({"kind": "run", "cell": "x/y", "metrics": {}})
               for _ in range(10)}
        assert len(ids) == 10

    def test_caller_fields_win_over_defaults(self, ledger):
        ledger.append({"kind": "bench", "ts": 1.5, "git_sha": "abc",
                       "metrics": {}})
        rec = ledger.records()[0]
        assert rec["ts"] == 1.5 and rec["git_sha"] == "abc"

    def test_safe_append_swallows_os_errors(self, tmp_path, capsys):
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("file, not directory")
        bad = RunLedger(blocked / "ledger.jsonl")
        assert bad.safe_append({"kind": "run", "metrics": {}}) is None
        assert bad.safe_append({"kind": "run", "metrics": {}}) is None
        err = capsys.readouterr().err
        assert err.count("warning: ledger append") == 1  # warns once


class TestTornTail:
    """Crash tolerance: a half-written final line must not poison the
    ledger — it is skipped on read and healed on the next append."""

    def test_torn_tail_skipped_on_read(self, ledger):
        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        with ledger.path.open("a") as fh:
            fh.write('{"kind": "run", "cell": "torn')  # no newline
        records = ledger.records()
        assert len(records) == 1
        assert records[0]["cell"] == "a/b"

    def test_append_after_torn_tail_starts_fresh_line(self, ledger):
        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        with ledger.path.open("a") as fh:
            fh.write('{"half": ')
        ledger.append({"kind": "run", "cell": "c/d", "metrics": {}})
        cells = [r["cell"] for r in ledger.records()]
        assert cells == ["a/b", "c/d"]  # fragment dropped, not merged

    def test_blank_and_garbage_lines_tolerated(self, ledger):
        ledger.path.write_text('\n\nnot json\n{"kind": "run", '
                               '"cell": "ok/ok", "run_id": "x"}\n')
        assert [r["cell"] for r in ledger.records()] == ["ok/ok"]

    def test_missing_file_reads_empty(self, ledger):
        assert ledger.records() == []
        assert ledger.tail(5) == []


class TestFind:
    def test_find_by_prefix(self, ledger):
        run_id = ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        assert ledger.find(run_id[:6])["run_id"] == run_id

    def test_find_missing_returns_none(self, ledger):
        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        assert ledger.find("zzzzzz") is None

    def test_ambiguous_prefix_raises(self, ledger):
        ledger.append({"kind": "run", "run_id": "aa11", "metrics": {}})
        ledger.append({"kind": "run", "run_id": "aa22", "metrics": {}})
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.find("aa")


# -- the JSONL is the only state ---------------------------------------------


class TestJsonlOnly:
    def test_append_leaves_only_the_jsonl(self, ledger):
        for i in range(3):
            ledger.append({"kind": "run", "cell": f"w/{i}", "metrics": {}})
        assert sorted(p.name for p in ledger.path.parent.iterdir()) \
            == ["ledger.jsonl"]

    def test_history_counts_records_from_jsonl(self, ledger, capsys):
        """``obs history`` totals every record the JSONL holds, one
        appended out of band included."""
        from repro.cli import main

        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        ledger.append({"kind": "run", "cell": "a/b", "metrics": {}})
        ledger.append({"kind": "bench", "metrics": {}})
        with ledger.path.open("a") as fh:
            fh.write(json.dumps({"kind": "run", "cell": "c/d",
                                 "run_id": "x", "metrics": {}}) + "\n")
        for extra in ([], ["--kind", "bench"]):
            assert main(["obs", "history", "--ledger", str(ledger.path)]
                        + extra) == 0
            assert "4 records, 3 distinct cells" in capsys.readouterr().out


# -- configuration ------------------------------------------------------------


class TestResolveLedger:
    def test_false_disables(self):
        assert resolve_ledger(False) is None

    def test_path_builds_ledger(self, tmp_path):
        led = resolve_ledger(tmp_path / "l.jsonl")
        assert isinstance(led, RunLedger)
        assert led.path == tmp_path / "l.jsonl"

    def test_ledger_passes_through(self, ledger):
        assert resolve_ledger(ledger) is ledger

    def test_env_off_disables_default(self, monkeypatch):
        for value in ("off", "0", "none", "disabled", ""):
            monkeypatch.setenv(LEDGER_ENV, value)
            assert default_ledger_path() is None
            assert resolve_ledger(None) is None

    def test_env_path_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "alt.jsonl"))
        assert default_ledger_path() == tmp_path / "alt.jsonl"

    def test_default_lives_in_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_ledger_path() == tmp_path / "ledger.jsonl"


# -- record builders ----------------------------------------------------------


class TestRecordBuilders:
    def test_record_from_result_carries_provenance(self, small_config,
                                                   tiny_gen):
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed,
                                    ledger=False)
        result = harness.run("vecadd", "none")
        rec = record_from_result(result, label="t", config_key="ab" * 32,
                                 scale=tiny_gen.scale, seed=tiny_gen.seed)
        assert rec["kind"] == "run"
        assert rec["cell"] == "vecadd/none"
        assert rec["cached"] is False
        assert rec["metrics"]["cycles"] == result.cycles
        assert rec["metrics"]["total_dram_bytes"] > 0
        assert rec["metrics"]["events"] > 0
        assert rec["metrics"]["events_per_sec"] > 0
        assert rec["config_key"] == "ab" * 32

    def test_campaign_record_derives_traffic_split(self, ledger, tmp_path):
        from repro.resilience.campaign import CampaignRunner, build_cells

        summary = CampaignRunner(tmp_path / "j.jsonl", workers=1,
                                 ledger=ledger).run(build_cells(
                                     ["vecadd"], ["cachecraft"],
                                     scale=0.04, seed=3))
        (rec,) = [r for r in ledger.records() if r["kind"] == "run"]
        traffic = summary.records["vecadd/cachecraft"]["traffic"]
        assert rec["metrics"]["total_dram_bytes"] == sum(traffic.values())
        assert rec["metrics"]["demand_bytes"] == traffic["data"]
        overhead = (traffic["metadata"] + traffic["verify_fill"]
                    + traffic["metadata_write"])
        assert overhead > 0
        assert rec["metrics"]["overhead_bytes"] == overhead
        assert rec["scale"] == 0.04 and rec["seed"] == 3
        assert rec["fidelity"] == "event" and "degraded" not in rec

    def test_campaign_record_flags_degraded_rescue(self, ledger, tmp_path,
                                                   monkeypatch):
        from repro.resilience.campaign import CampaignRunner, build_cells
        from repro.resilience.chaos import CHAOS_ENV

        # Every chaos-armed attempt dies; the rescue runs functional.
        monkeypatch.setenv(CHAOS_ENV, '{"seed": 1, "kill_prob": 1.0}')
        CampaignRunner(tmp_path / "j.jsonl", workers=1, max_attempts=1,
                       degrade=True, ledger=ledger).run(
            build_cells(["vecadd"], ["none"], scale=0.02))
        monkeypatch.setenv(CHAOS_ENV, "off")
        (rec,) = [r for r in ledger.records() if r["kind"] == "run"]
        # A functional-tier rescue must never alias the event-tier
        # cell's history: the id carries the tier, the flag the cause.
        assert rec["cell"] == "vecadd/none@functional"
        assert rec["fidelity"] == "functional"
        assert rec["degraded"] is True

    def test_record_from_bench_keeps_full_payload(self):
        payload = {"raw_engine": {"events_per_sec": 1000},
                   "real_sim": {"events_per_sec": 200}}
        rec = record_from_bench(payload)
        assert rec["kind"] == "bench"
        assert rec["metrics"] == {"raw_events_per_sec": 1000,
                                  "sim_events_per_sec": 200}
        assert rec["bench"] is payload

    def test_record_from_result_links_log_path(self, small_config,
                                               tiny_gen):
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed, ledger=False)
        result = harness.run("vecadd", "none")
        rec = record_from_result(result, label="t",
                                 scale=tiny_gen.scale, seed=tiny_gen.seed,
                                 log_path="/tmp/run.log.jsonl")
        assert rec["log"] == "/tmp/run.log.jsonl"
        bare = record_from_result(result, label="t",
                                  scale=tiny_gen.scale, seed=tiny_gen.seed)
        assert "log" not in bare

    def test_record_from_session_summarizes_fleet(self):
        from repro.obs.ledger import record_from_session

        summary = {"cells_total": 6, "cells_done": 5, "cells_failed": 1,
                   "cells_cached": 0, "cache_hit_ratio": 0.0,
                   "wall_seconds": 12.5, "note": "not-a-metric"}
        rec = record_from_session("campaign", summary,
                                  log_path="/tmp/c.log.jsonl",
                                  progress_dir="/tmp/prog")
        assert rec["kind"] == "session"
        assert rec["cell"] == "session/campaign"
        assert rec["label"] == "campaign"
        assert rec["metrics"]["cells_done"] == 5
        assert "note" not in rec["metrics"]  # numeric metrics only
        assert rec["log"] == "/tmp/c.log.jsonl"
        assert rec["progress_dir"] == "/tmp/prog"


# -- harness integration ------------------------------------------------------


class TestHarnessLedger:
    def test_serial_run_appends_with_cached_flags(self, ledger,
                                                  small_config, tiny_gen):
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed,
                                    ledger=ledger)
        harness.run("vecadd", "none")
        harness.run("vecadd", "cachecraft")
        records = ledger.records()
        assert [r["cell"] for r in records] == ["vecadd/none",
                                                "vecadd/cachecraft"]
        assert all(r["cached"] is False for r in records)
        assert all(r["label"] == "harness" for r in records)

    def test_mem_cache_hit_logged_once_per_harness(self, ledger,
                                                   small_config, tiny_gen):
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed,
                                    ledger=ledger)
        harness.run("vecadd", "none")
        harness.run("vecadd", "none")  # mem-cache hit: no second record
        assert len(ledger.records()) == 1

    def test_persistent_cache_hit_flagged_cached(self, ledger, tmp_path,
                                                 small_config, tiny_gen):
        cache_dir = tmp_path / "cache"
        warm = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                 seed=tiny_gen.seed, cache_dir=cache_dir,
                                 ledger=False)
        warm.run("vecadd", "none")
        replay = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                   seed=tiny_gen.seed, cache_dir=cache_dir,
                                   ledger=ledger)
        replay.run("vecadd", "none")
        records = ledger.records()
        assert len(records) == 1
        assert records[0]["cached"] is True
        assert replay.sims_run == 0

    def test_parallel_matrix_appends_from_parent(self, ledger,
                                                 small_config, tiny_gen):
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed,
                                    ledger=ledger)
        harness.matrix(["vecadd"], ["none", "sideband"], workers=2)
        cells = sorted(r["cell"] for r in ledger.records())
        assert cells == ["vecadd/none", "vecadd/sideband"]

    @pytest.mark.parametrize("fidelity,workers", [
        pytest.param("event", 1, id="event"),
        pytest.param("functional", 1, id="functional"),
        pytest.param("event", 2, id="event-workers2"),
        pytest.param("functional", 2, id="functional-workers2")])
    def test_config_key_names_the_cache_file(self, ledger, tmp_path,
                                             small_config, tiny_gen,
                                             fidelity, workers):
        """The record's ``config_key`` is the key the harness filed the
        result under, on both tiers, serial or parallel, and on a warm
        lookup too."""
        cache_dir = tmp_path / "cache"
        for _ in range(2):  # simulate, then serve from the cache
            ExperimentHarness(small_config, scale=tiny_gen.scale,
                              seed=tiny_gen.seed, cache_dir=cache_dir,
                              ledger=ledger, fidelity=fidelity
                              ).matrix(["vecadd"], ["cachecraft"],
                                       workers=workers)
        (entry,) = cache_dir.glob("*/*.json")
        records = ledger.records()
        assert [r["cached"] for r in records] == [False, True]
        assert [r["config_key"] for r in records] == [entry.stem] * 2

    def test_ledger_false_disables(self, small_config, tiny_gen,
                                   monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        harness = ExperimentHarness(small_config, scale=tiny_gen.scale,
                                    seed=tiny_gen.seed,
                                    ledger=False)
        harness.run("vecadd", "none")
        assert not (tmp_path / "ledger.jsonl").exists()


class TestCampaignLedger:
    def test_campaign_cells_append_on_receipt(self, ledger, tmp_path):
        from repro.resilience.campaign import CampaignRunner, build_cells

        runner = CampaignRunner(str(tmp_path / "journal.jsonl"),
                                workers=2, ledger=ledger)
        summary = runner.run(build_cells(["vecadd"], ["none", "cachecraft"],
                                         scale=0.04, seed=7))
        assert summary.ok
        records = ledger.records()
        runs = [r for r in records if r["kind"] == "run"]
        assert sorted(r["cell"] for r in runs) == ["vecadd/cachecraft",
                                                   "vecadd/none"]
        for rec in runs:
            assert rec["label"] == "campaign"
            assert rec["metrics"]["cycles"] > 0
            assert rec["metrics"]["total_dram_bytes"] > 0
        # The campaign also records one session summary for `obs history`.
        (session,) = [r for r in records if r["kind"] == "session"]
        assert session["cell"] == "session/campaign"
        assert session["metrics"]["cells_done"] == 2
        assert session["metrics"]["wall_seconds"] >= 0
