"""Storage fsck: issue detection and safe repair for every store."""

import json

import pytest

from repro.obs.ledger import RunLedger
from repro.obs.structlog import append_jsonl, read_jsonl
from repro.resilience.fsck import (FsckReport, fsck_all, fsck_cache,
                                   fsck_jsonl)


def kinds(report):
    return sorted(i.kind for i in report.issues)


class TestJsonlScan:
    def test_clean_file_is_clean(self, tmp_path):
        path = tmp_path / "a.jsonl"
        append_jsonl(path, {"a": 1})
        report = FsckReport()
        fsck_jsonl(path, "log", report)
        assert report.ok and not report.issues
        assert report.scanned == {"log": 1}

    def test_missing_file_is_skipped(self, tmp_path):
        report = FsckReport()
        fsck_jsonl(tmp_path / "absent.jsonl", "log", report)
        assert report.scanned == {}

    def test_torn_tail_detected_and_repaired(self, tmp_path):
        path = tmp_path / "a.jsonl"
        append_jsonl(path, {"a": 1})
        with path.open("a") as fh:
            fh.write('{"torn": tru')
        report = FsckReport()
        fsck_jsonl(path, "journal", report)
        assert kinds(report) == ["torn_tail"]
        assert not report.ok  # unrepaired error
        repaired = FsckReport()
        fsck_jsonl(path, "journal", repaired, repair=True)
        assert repaired.ok and repaired.issues[0].repaired
        assert not path.read_text().rstrip().endswith("tru")
        assert list(read_jsonl(path)) == [{"a": 1}]

    def test_garbage_line_dropped_on_repair(self, tmp_path):
        path = tmp_path / "a.jsonl"
        append_jsonl(path, {"a": 1})
        with path.open("a") as fh:
            fh.write("not json at all\n")
            fh.write("[1, 2]\n")  # parseable but not an object
        append_jsonl(path, {"b": 2})
        report = FsckReport()
        fsck_jsonl(path, "log", report, repair=True)
        assert kinds(report) == ["garbage_line", "garbage_line"]
        assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]

    def test_bad_checksum_detected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        append_jsonl(path, {"a": 1})
        # Corrupt the record in place, keeping its (now wrong) _ck.
        line = json.loads(path.read_text())
        line["a"] = 999
        path.write_text(json.dumps(line) + "\n")
        report = FsckReport()
        fsck_jsonl(path, "ledger", report)
        assert kinds(report) == ["bad_checksum"]
        fixed = FsckReport()
        fsck_jsonl(path, "ledger", fixed, repair=True)
        assert fixed.ok and list(read_jsonl(path)) == []

    def test_repair_keeps_good_lines_byte_identical(self, tmp_path):
        path = tmp_path / "a.jsonl"
        append_jsonl(path, {"a": 1})
        append_jsonl(path, {"b": 2})
        good = path.read_bytes()
        with path.open("a") as fh:
            fh.write('{"torn')
        fsck_jsonl(path, "log", FsckReport(), repair=True)
        assert path.read_bytes() == good

    def test_legacy_records_without_checksum_pass(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"old": 1}\n')  # pre-checksum store
        report = FsckReport()
        fsck_jsonl(path, "log", report)
        assert report.ok and not report.issues


class TestJournalQuarantineRelease:
    def test_quarantine_is_info_until_repaired(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_jsonl(path, {"cell": "a/b", "status": "done"})
        append_jsonl(path, {"cell": "c/d", "status": "quarantined",
                            "error": "signal 9"})
        report = FsckReport()
        fsck_jsonl(path, "journal", report, drop_status="quarantined")
        assert kinds(report) == ["quarantined_cell"]
        assert report.issues[0].severity == "info"
        assert report.ok  # info never fails an fsck
        assert len(list(read_jsonl(path))) == 2  # nothing dropped

    def test_repair_releases_the_quarantine(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_jsonl(path, {"cell": "a/b", "status": "done"})
        append_jsonl(path, {"cell": "c/d", "status": "quarantined",
                            "attempts": 4, "error": "signal 9"})
        report = FsckReport()
        fsck_jsonl(path, "journal", report, repair=True,
                   drop_status="quarantined")
        assert report.issues[0].repaired
        records = list(read_jsonl(path))
        assert [r["status"] for r in records] == ["done", "released"]
        # The release keeps the attempt count: a deterministic chaos
        # policy must draw fresh fault decisions on the rerun, not
        # replay the exact attempts that doomed the cell.
        assert records[1] == {"cell": "c/d", "status": "released",
                              "released_from": "quarantined",
                              "attempts": 4}


class TestCacheScan:
    def _entry_path(self, root, name="e1"):
        sub = root / "ab"
        sub.mkdir(parents=True, exist_ok=True)
        return sub / f"{name}.json"

    def test_clean_entry_passes(self, tmp_path):
        from repro.analysis.result_cache import entry_checksum

        path = self._entry_path(tmp_path)
        entry = {"cycles": 1}
        entry["checksum"] = entry_checksum(entry)
        path.write_text(json.dumps(entry))
        report = FsckReport()
        fsck_cache(tmp_path, report)
        assert report.ok and not report.issues

    def test_bad_entry_quarantined_on_repair(self, tmp_path):
        path = self._entry_path(tmp_path)
        path.write_text("{corrupt")
        report = FsckReport()
        fsck_cache(tmp_path, report, repair=True)
        assert kinds(report) == ["bad_entry"]
        assert report.issues[0].repaired
        assert not path.exists()
        assert path.with_suffix(".bad").exists()

    def test_checksum_mismatch_flagged(self, tmp_path):
        from repro.analysis.result_cache import entry_checksum

        path = self._entry_path(tmp_path)
        entry = {"cycles": 1}
        entry["checksum"] = entry_checksum(entry)
        entry["cycles"] = 2  # silent corruption
        path.write_text(json.dumps(entry))
        report = FsckReport()
        fsck_cache(tmp_path, report)
        assert kinds(report) == ["bad_entry"]
        assert "checksum" in report.issues[0].detail

    def test_orphan_tmp_deleted_on_repair(self, tmp_path):
        sub = tmp_path / "ab"
        sub.mkdir()
        tmp = sub / "half-written.tmp"
        tmp.write_text("{")
        report = FsckReport()
        fsck_cache(tmp_path, report, repair=True)
        assert kinds(report) == ["orphan_tmp"]
        assert not tmp.exists()

    def test_quarantined_inventory_is_info(self, tmp_path):
        sub = tmp_path / "ab"
        sub.mkdir()
        (sub / "old.bad").write_text("{corrupt")
        report = FsckReport()
        fsck_cache(tmp_path, report)
        assert kinds(report) == ["quarantined_entry"]
        assert report.ok


class TestLedgerScan:
    def test_clean_ledger(self, tmp_path):
        """A ledger scans clean, and an index file an older version
        left beside it is neither read nor reported."""
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append({"kind": "run", "workload": "vecadd",
                       "scheme": "none", "cycles": 10})
        (tmp_path / "ledger.idx.json").write_text('{"bytes": 0}')
        report = fsck_all(cache_dir=tmp_path / "nope", ledger=ledger.path)
        assert report.ok and not report.issues
        assert report.scanned == {"ledger": 1}


class TestFsckAll:
    def test_empty_world_is_clean(self, tmp_path):
        report = fsck_all(cache_dir=tmp_path / "nope",
                          ledger=tmp_path / "nope.jsonl")
        assert report.ok and report.scanned == {}

    def test_scans_every_named_store(self, tmp_path):
        cache = tmp_path / "cache" / "ab"
        cache.mkdir(parents=True)
        (cache / "x.json").write_text("{corrupt")
        journal = tmp_path / "j.jsonl"
        append_jsonl(journal, {"cell": "a/b", "status": "quarantined"})
        log = tmp_path / "log.jsonl"
        append_jsonl(log, {"event": "x"})
        with log.open("a") as fh:
            fh.write('{"torn')
        progress = tmp_path / "progress"
        progress.mkdir()
        append_jsonl(progress / "worker-1.jsonl", {"kind": "heartbeat"})
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append({"kind": "run", "workload": "w", "scheme": "s",
                       "cycles": 1})

        report = fsck_all(cache_dir=tmp_path / "cache",
                          ledger=tmp_path / "ledger.jsonl",
                          journals=[journal], log=log,
                          progress_dir=progress)
        assert set(report.scanned) \
            == {"cache", "ledger", "journal", "log", "progress"}
        assert kinds(report) == ["bad_entry", "quarantined_cell",
                                 "torn_tail"]
        assert not report.ok

        repaired = fsck_all(cache_dir=tmp_path / "cache",
                            ledger=tmp_path / "ledger.jsonl",
                            journals=[journal], log=log,
                            progress_dir=progress, repair=True)
        assert repaired.ok

        clean = fsck_all(cache_dir=tmp_path / "cache",
                         ledger=tmp_path / "ledger.jsonl",
                         journals=[journal], log=log,
                         progress_dir=progress)
        # Only the inventory of the newly-quarantined entry remains.
        assert kinds(clean) == ["quarantined_entry"]
        assert clean.ok

    def test_to_dict_shape(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_text('{"torn')
        report = fsck_all(cache_dir=tmp_path / "nope",
                          ledger=tmp_path / "nope.jsonl",
                          journals=[journal])
        data = report.to_dict()
        assert data["ok"] is False
        assert data["issues"][0]["kind"] == "torn_tail"
        assert data["scanned"] == {"journal": 1}


def test_report_ok_semantics():
    report = FsckReport()
    assert report.ok
    from repro.resilience.fsck import Issue

    report.issues.append(Issue("log", "p", "torn_tail", "d",
                               repairable=True))
    assert not report.ok
    report.issues[0].repaired = True
    assert report.ok
    report.issues.append(Issue("cache", "p", "quarantined_entry", "d",
                               severity="info"))
    assert report.ok  # info never blocks
