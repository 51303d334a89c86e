"""Trace-level locality analytics: reuse distances, working sets,
metadata-locality prediction (repro.analysis.locality)."""

import hashlib
import json
import random
from types import SimpleNamespace

import pytest

from repro.analysis.locality import (distance_cdf, distance_summary,
                                     key_trace_metrics,
                                     metadata_prediction, reuse_distances,
                                     trace_analytics, working_set_curve)
from repro.core.config import test_config as make_test_config
from repro.core.system import GpuSystem
from repro.workloads import make_workload
from repro.workloads.base import GenContext, materialize_compiled


class TestReuseDistances:
    def test_crafted_sequence_exact(self):
        # 1 2 1 3 2 1 -> cold cold {2}=1 cold {1,3}=2 {3,2}=2
        dists = reuse_distances([1, 2, 1, 3, 2, 1])
        assert dists == [-1, -1, 1, -1, 2, 2]

    def test_immediate_rereference_is_zero(self):
        dists = reuse_distances([7, 7, 7])
        assert dists == [-1, 0, 0]

    def test_all_distinct_all_cold(self):
        assert reuse_distances(list(range(10))) == [-1] * 10

    def test_empty_stream(self):
        assert reuse_distances([]) == []

    def test_distance_equals_lru_capacity_minus_one(self):
        # A cyclic sweep over N keys re-references each at distance N-1
        # (it hits in a fully-associative LRU of exactly N keys).
        n = 5
        dists = reuse_distances(list(range(n)) * 3)
        assert dists[n:] == [n - 1] * (2 * n)


class TestSummaries:
    def test_summary_counts_cold_and_percentiles(self):
        summary = distance_summary([-1, -1, 0, 2, 8])
        assert summary["refs"] == 5
        assert summary["cold"] == 2
        assert summary["reuse_frac"] == pytest.approx(0.6)
        assert summary["p50"] == 2.0
        assert sum(summary["histogram"]["counts"]) == 3

    def test_summary_all_cold_has_none_percentiles(self):
        summary = distance_summary([-1, -1])
        assert summary["p50"] is None
        assert summary["mean"] is None

    def test_cdf_monotone(self):
        cdf = distance_cdf([0, 1, 1, 4, 9, -1])
        fracs = [frac for _dist, frac in cdf]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    def test_cdf_empty_when_no_reuse(self):
        assert distance_cdf([-1, -1]) == []

    def test_working_set_monotone_and_exact_total(self):
        keys = [3, 3, 1, 2, 1, 4]
        curve = working_set_curve(keys)
        assert curve["unique"] == sorted(curve["unique"])
        assert curve["unique"][-1] == 4
        assert curve["refs"][-1] == len(keys)


class TestNumpyDefinitions:
    """Quantiles, sample points and buckets follow numpy's defaults bit
    for bit: the pinned reports and the regression baseline's locality
    bands were recorded with numpy."""

    def test_quantile_histogram_and_mean_match_numpy(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(7)
        for _ in range(300):
            top = rng.choice([1, 5, 50, 1000, 10**6])
            dists = [rng.randint(-1, top) for _ in range(rng.randint(1, 200))]
            warm = np.array([d for d in dists if d >= 0], dtype=np.int64)
            summary = distance_summary(dists)
            if not len(warm):
                continue
            for p in (50, 90, 99):
                assert summary[f"p{p}"] == float(np.percentile(warm, p))
            assert summary["mean"] == round(float(warm.mean()), 2)
            edges = summary["histogram"]["edges"]
            assert summary["histogram"]["counts"] == np.histogram(
                warm, bins=edges + [edges[-1] + 1])[0].tolist()
            qs = np.linspace(0.0, 1.0, 33)
            assert distance_cdf(dists) == [
                [float(x), round(float(q), 4)]
                for x, q in zip(np.quantile(np.sort(warm), qs), qs)]

    def test_working_set_samples_match_numpy(self):
        np = pytest.importorskip("numpy")
        for n in range(1, 400):
            refs = working_set_curve(list(range(n)))["refs"]
            assert refs == np.unique(np.linspace(1, n, min(64, n))
                                     .astype(np.int64)).tolist()


class _FakeLayout(SimpleNamespace):
    """Duck-typed InlineEccLayout: only the fields the predictor uses."""


def _layout(granule_bytes=128, meta_per_granule=8, atom_bytes=32):
    return _FakeLayout(
        granule_bytes=granule_bytes,
        meta_per_granule=meta_per_granule,
        atom_bytes=atom_bytes,
        metadata_base=1 << 34,
        granules_per_meta_atom=atom_bytes // meta_per_granule,
    )


class TestMetadataPrediction:
    def test_colocated_granules_predict_free_reuse(self):
        # 4 consecutive 128 B granules share one 32 B metadata atom
        # (8 B/granule): a pure streaming sweep has zero naive reuse
        # but the packed layout turns 3 of 4 references into reuses.
        compiled = SimpleNamespace(
            txn_line=[0, 1, 2, 3], line_bytes=128)
        pred = metadata_prediction(compiled, range(4), _layout())
        assert pred["meta_refs"] == 4
        assert pred["meta_atoms"] == 1
        assert pred["colocation"] == 4.0
        assert pred["packed_reuse_frac"] == pytest.approx(0.75)
        assert pred["naive_reuse_frac"] == 0.0
        assert pred["predicted_efficacy"] == pytest.approx(0.75)

    def test_private_atoms_predict_no_advantage(self):
        # meta_per_granule == atom_bytes: every granule owns a whole
        # atom, so packed and naive layouts are identical.
        compiled = SimpleNamespace(
            txn_line=[0, 1, 0, 1], line_bytes=128)
        pred = metadata_prediction(
            compiled, range(4), _layout(meta_per_granule=32))
        assert pred["packed_reuse_frac"] == pred["naive_reuse_frac"]
        assert pred["predicted_efficacy"] == 0.0
        assert pred["colocation"] == 1.0

    def test_line_spanning_multiple_granules(self):
        # 128 B line over 32 B granules: 4 granules per line, all in
        # one atom (8 B each) -> still a single atom reference per txn.
        compiled = SimpleNamespace(txn_line=[0, 0], line_bytes=128)
        pred = metadata_prediction(
            compiled, range(2), _layout(granule_bytes=32))
        assert pred["meta_refs"] == 2
        assert pred["meta_atoms"] == 1

    def test_straddling_line_expands_in_place(self):
        # With the metadata region 24 B into an atom, line 0's four
        # granules (4 B of metadata each) straddle atoms A and B, and
        # line 1's fit in B: the stream is A B | B | A B, so the
        # warm distances are 0, 1 and 1.
        layout = _layout(granule_bytes=32, meta_per_granule=4)
        layout.metadata_base += 24
        compiled = SimpleNamespace(txn_line=[0, 1, 0], line_bytes=128)
        pred = metadata_prediction(compiled, range(3), layout)
        assert pred["meta_refs"] == 5
        assert pred["meta_atoms"] == 2
        assert pred["reuse"]["histogram"]["counts"] == [1, 2, 0]
        assert pred["colocation"] == 1.5


class TestTraceAnalytics:
    @pytest.fixture(scope="class")
    def compiled(self):
        gen = GenContext(num_sms=2, warps_per_sm=4, scale=0.05, seed=7)
        return materialize_compiled(make_workload("vecadd"), gen,
                                    line_bytes=128, sector_bytes=32)

    def test_report_structure_and_invariants(self, compiled):
        report = trace_analytics(compiled, machine_sms=2)
        assert report["txns"] > 0
        assert report["mem_ops"] > 0
        line = report["line"]
        assert line["footprint_bytes"] == line["footprint_lines"] * 128
        assert 0.0 < report["coalescing"]["sector_utilization"] <= 1.0
        assert "metadata" not in report

    def test_metadata_section_with_real_layout(self, compiled):
        config = make_test_config().with_scheme("cachecraft")
        from repro.protection.base import make_scheme

        scheme = make_scheme(config.protection.scheme,
                             **config.protection.scheme_kwargs())
        layout = scheme.prepare(False, atom_bytes=32)
        report = trace_analytics(compiled, machine_sms=2, layout=layout)
        meta = report["metadata"]
        assert meta["meta_refs"] >= report["txns"]
        assert meta["meta_atoms"] <= meta["granules"]
        assert 0.0 <= meta["predicted_efficacy"] <= 1.0
        metrics = key_trace_metrics(report)
        assert "predicted_efficacy" in metrics
        assert "meta_colocation" in metrics

    def test_analytics_deterministic(self, compiled):
        a = trace_analytics(compiled, machine_sms=2)
        b = trace_analytics(compiled, machine_sms=2)
        assert a == b

    def test_report_is_pinned(self):
        """bfs's report under CacheCraft's layout serializes to the
        bytes the numpy implementation wrote (MODEL_VERSION 7)."""
        config = make_test_config()
        compiled = materialize_compiled(
            make_workload("bfs"),
            GenContext(num_sms=2, warps_per_sm=4, scale=0.05, seed=7))
        layout = GpuSystem(config.with_scheme("cachecraft")).ctx.layout
        report = trace_analytics(compiled, machine_sms=2, layout=layout)
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == ("1f5b7dd1c05cbaad53ff9654a9f17aa8"
                          "d1630d6418d63d8eddf706d6801a48e2")
