"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "vecadd" in out
    assert "cachecraft" in out
    assert "F1" in out


def test_run_small(capsys):
    rc = main(["run", "-w", "vecadd", "-s", "none", "--scale", "0.03",
               "--l2-kb", "256"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cycles=" in out
    assert "dram_bytes=" in out


def test_run_cachecraft_functional(capsys):
    rc = main(["run", "-w", "vecadd", "-s", "cachecraft", "--scale", "0.03",
               "--l2-kb", "256", "--functional"])
    assert rc == 0
    assert "cycles=" in capsys.readouterr().out


def test_compare_prints_all_schemes(capsys):
    rc = main(["compare", "-w", "vecadd", "--scale", "0.03"])
    assert rc == 0
    out = capsys.readouterr().out
    for scheme in ("none", "sideband", "inline-sector", "metadata-cache",
                   "inline-full", "cachecraft"):
        assert scheme in out


def test_experiment_t1(capsys):
    assert main(["experiment", "T1"]) == 0
    assert "T1" in capsys.readouterr().out


def test_run_with_observability_outputs(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.jsonl"
    rc = main(["run", "-w", "vecadd", "-s", "cachecraft", "--scale", "0.03",
               "--l2-kb", "256", "--trace-out", str(trace),
               "--metrics-out", str(metrics), "--sample-interval", "200"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote trace" in out

    payload = json.loads(trace.read_text())
    assert payload["traceEvents"], "trace must not be empty"
    assert all("ph" in e and "ts" in e for e in payload["traceEvents"])

    rows = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert len(rows) >= 2
    keys = set().union(*rows) - {"cycle", "window_cycles"}
    assert len(keys) >= 2, "expected at least two sampled series"


def test_run_metrics_csv(tmp_path):
    metrics = tmp_path / "metrics.csv"
    rc = main(["run", "-w", "vecadd", "-s", "none", "--scale", "0.03",
               "--l2-kb", "256", "--metrics-out", str(metrics)])
    assert rc == 0
    lines = metrics.read_text().splitlines()
    assert lines[0].startswith("cycle") or "cycle" in lines[0].split(",")
    assert len(lines) >= 2


def test_profile_breakdown(capsys):
    rc = main(["profile", "-w", "vecadd", "-s", "cachecraft",
               "--scale", "0.03", "--l2-kb", "256"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency breakdown" in out
    assert "hottest components" in out
    assert "100.0%" in out  # the total row's share column


def test_compare_per_scheme_outputs(tmp_path, capsys):
    import json

    trace = tmp_path / "cmp.json"
    rc = main(["compare", "-w", "vecadd", "--scale", "0.03",
               "--trace-out", str(trace)])
    assert rc == 0
    per_scheme = sorted(p.name for p in tmp_path.glob("cmp.*.json"))
    assert "cmp.cachecraft.json" in per_scheme
    assert "cmp.none.json" in per_scheme
    payload = json.loads((tmp_path / "cmp.cachecraft.json").read_text())
    assert payload["traceEvents"]


def test_compare_warm_cache_runs_zero_simulations(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["compare", "-w", "vecadd", "--scale", "0.03",
            "--cache-dir", cache_dir]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "6 simulated, 0 from cache" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "0 simulated, 6 from cache" in warm
    # The tables themselves must be identical, cold or warm (only the
    # trailing "N simulated" summary line differs).
    assert cold.splitlines()[:-1] == warm.splitlines()[:-1]


def test_compare_no_cache_flag(tmp_path, capsys):
    rc = main(["compare", "-w", "vecadd", "--scale", "0.03", "--no-cache",
               "--cache-dir", str(tmp_path / "cache")])
    assert rc == 0
    assert "persistent cache off" in capsys.readouterr().out
    assert not (tmp_path / "cache").exists()


def test_compare_workers_matches_serial(tmp_path, capsys):
    main(["compare", "-w", "vecadd", "--scale", "0.03", "--no-cache"])
    serial = capsys.readouterr().out
    main(["compare", "-w", "vecadd", "--scale", "0.03", "--no-cache",
          "--workers", "2"])
    parallel = capsys.readouterr().out
    assert serial.splitlines()[:-1] == parallel.splitlines()[:-1]


def test_cache_stats_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    main(["compare", "-w", "vecadd", "--scale", "0.03",
          "--cache-dir", cache_dir])
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries: 6" in out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 6 entries" in capsys.readouterr().out
    main(["cache", "stats", "--cache-dir", cache_dir])
    assert "entries: 0" in capsys.readouterr().out


def test_cache_stats_reports_the_l2_stream_memo(tmp_path, capsys):
    """A functional compare runs the L1s once: one stream, five hits."""
    from repro.workloads.base import trace_cache_clear

    trace_cache_clear()
    main(["compare", "-w", "vecadd", "--scale", "0.03", "--no-cache",
          "--fidelity", "functional"])
    capsys.readouterr()
    main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")])
    assert "L2 stream memo (this process): 1 entries, 5 hits, 1 misses" \
        in capsys.readouterr().out


def test_cache_stats_empty_dir(tmp_path, capsys):
    assert main(["cache", "stats", "--cache-dir",
                 str(tmp_path / "nothing")]) == 0
    assert "entries: 0" in capsys.readouterr().out


def test_invalid_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "-w", "notaworkload"])


def test_invalid_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "Z9"])


# -- compare x observability interplay ---------------------------------------


def test_compare_obs_flags_print_cache_notice(tmp_path, capsys):
    rc = main(["compare", "-w", "vecadd", "--scale", "0.03",
               "--trace-out", str(tmp_path / "cmp.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "note: persistent result cache disabled" in out


def test_compare_no_cache_silences_notice(tmp_path, capsys):
    rc = main(["compare", "-w", "vecadd", "--scale", "0.03", "--no-cache",
               "--trace-out", str(tmp_path / "cmp.json")])
    assert rc == 0
    assert "note: persistent result cache" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "-w", "vecadd", "--scale", "0.02", "--no-ledger",
     "--trace-out", "{missing}/t.json"],
    ["run", "-w", "vecadd", "--scale", "0.02", "--no-ledger",
     "--metrics-out", "{missing}/m.jsonl"],
    ["profile", "-w", "vecadd", "--scale", "0.02",
     "--flame-out", "{missing}/f.folded"],
    ["compare", "-w", "vecadd", "--scale", "0.02", "--no-cache",
     "--no-ledger", "--inspect-out", "{missing}/vecadd.json"],
    ["obs", "flame", "-w", "vecadd", "--scale", "0.02",
     "--out", "{missing}/f.folded"],
    ["obs", "inspect", "-w", "vecadd", "--scale", "0.02",
     "--json-out", "{missing}/i.json"],
    ["obs", "inspect", "-w", "vecadd", "--scale", "0.02",
     "--html", "{missing}/i.html"],
], ids=["trace-out", "metrics-out", "flame-out", "inspect-out",
        "obs-flame-out", "obs-inspect-json-out", "obs-inspect-html"])
def test_missing_output_directory_fails_before_simulating(
        argv, tmp_path, capsys, monkeypatch):
    """An observer output whose directory does not exist is refused
    with status 2 and a one-line error before any system is built (the
    files are written only after every run)."""
    from repro.core.system import GpuSystem

    built = []
    real_init = GpuSystem.__init__

    def init(system, *args, **kwargs):
        built.append(system)
        real_init(system, *args, **kwargs)

    monkeypatch.setattr(GpuSystem, "__init__", init)
    missing = tmp_path / "nodir"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(missing=missing) for arg in argv])
    assert exc.value.code == 2
    assert not built
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(missing) in err and "does not exist" in err


def test_compare_workers_with_obs_degrades_to_serial(tmp_path, capsys):
    """--workers must not silently lose --metrics-out: the CLI warns
    and runs serially so every per-scheme file is still written."""
    metrics = tmp_path / "cmp.jsonl"
    rc = main(["compare", "-w", "vecadd", "--scale", "0.03", "--no-cache",
               "--workers", "2", "--metrics-out", str(metrics)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "--workers requires unobserved runs" in captured.err
    per_scheme = sorted(p.name for p in tmp_path.glob("cmp.*.jsonl"))
    assert "cmp.none.jsonl" in per_scheme
    assert "cmp.cachecraft.jsonl" in per_scheme


# -- the obs subcommand (ledger / sentinel / report) --------------------------


@pytest.fixture
def seeded_ledger(tmp_path):
    """A ledger holding one full compare sweep."""
    ledger = str(tmp_path / "ledger.jsonl")
    assert main(["compare", "-w", "vecadd", "--scale", "0.03",
                 "--no-cache", "--ledger", ledger]) == 0
    return ledger


def test_compare_appends_to_ledger(seeded_ledger, capsys):
    capsys.readouterr()
    assert main(["obs", "history", "--ledger", seeded_ledger]) == 0
    out = capsys.readouterr().out
    assert "vecadd/cachecraft" in out
    assert "cli.compare" in out
    assert "6 records, 6 distinct cells" in out


def test_obs_history_filters_and_json(seeded_ledger, capsys):
    import json

    capsys.readouterr()
    assert main(["obs", "history", "--ledger", seeded_ledger,
                 "--scheme", "none", "--json"]) == 0
    rows = [json.loads(line)
            for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 1
    assert rows[0]["cell"] == "vecadd/none"


def test_obs_diff(seeded_ledger, capsys):
    import json

    ids = [json.loads(line)["run_id"]
           for line in open(seeded_ledger) if line.strip()]
    capsys.readouterr()
    assert main(["obs", "diff", ids[0][:8], ids[-1][:8],
                 "--ledger", seeded_ledger]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out and "B vs A" in out


def test_obs_diff_unknown_id_errors(seeded_ledger):
    with pytest.raises(SystemExit):
        main(["obs", "diff", "zzzzzz", "zzzzzz",
              "--ledger", seeded_ledger])


def test_obs_baseline_then_regress_clean_and_sabotaged(
        seeded_ledger, tmp_path, capsys):
    import json

    baseline = str(tmp_path / "BASELINE.json")
    assert main(["obs", "baseline", "--ledger", seeded_ledger,
                 "-o", baseline]) == 0
    assert "6 cells" in capsys.readouterr().out

    # Clean rerun against its own baseline: exit 0.
    assert main(["obs", "regress", "--ledger", seeded_ledger,
                 "--baseline", baseline]) == 0
    assert "ok: all metrics within tolerance" in capsys.readouterr().out

    # An injected regression (sabotaged baseline metric): exit 1.
    doc = json.load(open(baseline))
    doc["cells"]["vecadd/cachecraft"]["metrics"]["cycles"] = 1
    json.dump(doc, open(baseline, "w"))
    assert main(["obs", "regress", "--ledger", seeded_ledger,
                 "--baseline", baseline]) == 1
    assert "REGRESSION: 1 breached metric(s)" in capsys.readouterr().out


def test_obs_regress_tolerance_override(seeded_ledger, tmp_path, capsys):
    import json

    baseline = str(tmp_path / "BASELINE.json")
    main(["obs", "baseline", "--ledger", seeded_ledger, "-o", baseline])
    doc = json.load(open(baseline))
    cycles = doc["cells"]["vecadd/cachecraft"]["metrics"]["cycles"]
    doc["cells"]["vecadd/cachecraft"]["metrics"]["cycles"] = \
        int(cycles * 0.9)  # current is +11% over baseline
    json.dump(doc, open(baseline, "w"))
    capsys.readouterr()
    assert main(["obs", "regress", "--ledger", seeded_ledger,
                 "--baseline", baseline]) == 1
    assert main(["obs", "regress", "--ledger", seeded_ledger,
                 "--baseline", baseline, "--tolerance", "cycles=0.5"]) == 0


def test_obs_regress_bad_tolerance_spec(seeded_ledger):
    with pytest.raises(SystemExit):
        main(["obs", "regress", "--ledger", seeded_ledger,
              "--tolerance", "cycles"])


def test_obs_report_html(seeded_ledger, tmp_path, capsys):
    out_html = tmp_path / "report.html"
    assert main(["obs", "report", "--ledger", seeded_ledger,
                 "--html", str(out_html)]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = out_html.read_text()
    assert doc.startswith("<!DOCTYPE html>")
    assert "vecadd" in doc
    assert "http://" not in doc.lower() and "https://" not in doc.lower()


def test_obs_requires_a_ledger(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LEDGER", "off")
    with pytest.raises(SystemExit):
        main(["obs", "history"])


def test_compare_no_ledger_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    rc = main(["compare", "-w", "vecadd", "--scale", "0.03",
               "--no-cache", "--no-ledger"])
    assert rc == 0
    assert not (tmp_path / "ledger.jsonl").exists()

# -- live telemetry / structured logs -----------------------------------------


def test_run_log_out_writes_lifecycle_events(tmp_path, capsys):
    import json

    log = tmp_path / "run.log.jsonl"
    rc = main(["run", "-w", "vecadd", "-s", "none", "--scale", "0.03",
               "--l2-kb", "256", "--log-out", str(log)])
    assert rc == 0
    records = [json.loads(line) for line in open(log) if line.strip()]
    events = [r["event"] for r in records]
    assert events[0] == "run.start" and events[-1] == "run.done"
    done = records[-1]
    assert done["cell"] == "vecadd/none"
    assert done["run"] == "cli.run"
    assert done["cycles"] > 0 and done["events"] > 0


def test_compare_live_single_frame_and_session_record(tmp_path, capsys):
    import json

    ledger = tmp_path / "ledger.jsonl"
    log = tmp_path / "cmp.log.jsonl"
    progress = tmp_path / "progress"
    rc = main(["compare", "-w", "vecadd", "--scale", "0.03", "--no-cache",
               "--ledger", str(ledger), "--log-out", str(log),
               "--live", "--live-interval", "0",
               "--progress-dir", str(progress)])
    assert rc == 0
    out = capsys.readouterr().out
    # The final dashboard frame reports real fleet state.
    assert "6/6 cells" in out
    assert "done 6" in out
    assert "cache hit ratio" in out and "eta" in out
    # Cell lifecycle came over the progress channel.
    assert any(progress.glob("*.jsonl"))
    # The session record links the run to its log + progress artifacts.
    records = [json.loads(line) for line in open(ledger) if line.strip()]
    sessions = [r for r in records if r.get("kind") == "session"]
    assert len(sessions) == 1
    assert sessions[0]["metrics"]["cells_done"] == 6
    assert sessions[0]["log"] == str(log)
    assert sessions[0]["progress_dir"] == str(progress)
    # Run records link to the log too.
    runs = [r for r in records if r.get("kind") == "run"]
    assert runs and all(r.get("log") == str(log) for r in runs)
    # The structured log saw each cell run.
    log_events = [json.loads(line)["event"] for line in open(log)
                  if line.strip()]
    assert log_events.count("cell.start") == 6
    assert log_events.count("cell.done") == 6


def test_obs_history_json_stable_key_order(seeded_ledger, capsys):
    import json

    capsys.readouterr()
    assert main(["obs", "history", "--ledger", seeded_ledger,
                 "--json"]) == 0
    for line in capsys.readouterr().out.splitlines():
        keys = list(json.loads(line))
        assert keys == sorted(keys)


def test_obs_diff_json_stable_key_order(seeded_ledger, capsys):
    import json

    ids = [json.loads(line)["run_id"]
           for line in open(seeded_ledger) if line.strip()]
    capsys.readouterr()
    assert main(["obs", "diff", ids[0][:8], ids[-1][:8], "--json",
                 "--ledger", seeded_ledger]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert list(doc) == ["a", "b", "rows"]
    assert list(doc["a"]) == sorted(doc["a"])
    assert all(list(row) == sorted(row) for row in doc["rows"])
    assert any(row["metric"] == "cycles" for row in doc["rows"])
    # Byte-stable: re-serializing with sorted keys is the identity.
    assert json.dumps(doc, sort_keys=True) == out.strip()


def test_obs_history_kind_session_filter(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    assert main(["compare", "-w", "vecadd", "--scale", "0.03", "--no-cache",
                 "--ledger", str(ledger), "--live", "--live-interval", "0",
                 "--progress-dir", str(tmp_path / "prog")]) == 0
    capsys.readouterr()
    assert main(["obs", "history", "--ledger", str(ledger),
                 "--kind", "session"]) == 0
    out = capsys.readouterr().out
    assert "session/cli.compare" in out


def test_fsck_clean_on_empty_world(tmp_path, capsys):
    rc = main(["fsck", "--cache-dir", str(tmp_path / "nope"),
               "--ledger", str(tmp_path / "nope.jsonl")])
    assert rc == 0
    assert "fsck: clean" in capsys.readouterr().out


def test_fsck_detects_then_repairs_torn_journal(tmp_path, capsys):
    journal = tmp_path / "j.jsonl"
    journal.write_text('{"cell": "a/b", "status": "done"}\n{"torn')
    base = ["fsck", "--cache-dir", str(tmp_path / "nope"),
            "--ledger", str(tmp_path / "nope.jsonl"),
            "--journal", str(journal)]
    assert main(base) == 1
    out = capsys.readouterr().out
    assert "torn_tail" in out and "--repair" in out
    assert main(base + ["--repair"]) == 0
    assert "repaired" in capsys.readouterr().out
    assert main(base) == 0  # clean after healing
    assert journal.read_text() == '{"cell": "a/b", "status": "done"}\n'


def test_fsck_json_output(tmp_path, capsys):
    import json

    journal = tmp_path / "j.jsonl"
    journal.write_text('{"torn')
    rc = main(["fsck", "--cache-dir", str(tmp_path / "nope"),
               "--ledger", str(tmp_path / "nope.jsonl"),
               "--journal", str(journal), "--json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["issues"][0]["kind"] == "torn_tail"


def test_campaign_rejects_bad_chaos_policy(tmp_path):
    with pytest.raises(SystemExit, match="chaos-policy"):
        main(["campaign", "-w", "vecadd", "-s", "none",
              "--journal", str(tmp_path / "j.jsonl"), "--no-ledger",
              "--chaos-policy", str(tmp_path / "missing.json")])


def test_campaign_resilience_flags(tmp_path, capsys, monkeypatch):
    from repro.resilience.chaos import CHAOS_ENV

    # --chaos-policy exports REPRO_CHAOS for workers; monkeypatch
    # snapshots the (unset) variable so the test leaves no trace.
    monkeypatch.setenv(CHAOS_ENV, "off")
    rc = main(["campaign", "-w", "vecadd", "-s", "none", "--scale", "0.02",
               "--journal", str(tmp_path / "j.jsonl"), "--no-ledger",
               "--retry-backoff", "0.05", "--retry-backoff-max", "1",
               "--degrade", "--chaos-policy", '{"seed": 1}'])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaos policy armed" in out
    assert "1 done" in out
