"""The benchmark's own checks: the span wrappers leave the model's
outputs alone, the per-layer self times account for the traced wall
time, and a drifted output is counted as a failed cell."""

import json
import time

import pytest

from repro.core.config import test_config as small_config
from repro.core.system import run_workload
from repro.sim.engine import Simulator
from repro.workloads import make_workload
from repro.workloads.base import GenContext, trace_cache_clear

from perfbench.grid import (GridSpec, References, Store, cell_name,
                            fingerprint, request_grid)
from perfbench.run import run_untraced
from perfbench.spans import TRACING, Instrumentation, SpanTracer

#: Allowed gap between the summed self times and the wall time measured
#: around the root span: the root wrapper's own cost, well under 1 ms.
SELF_TIME_TOLERANCE_S = 0.005

TINY_EVENT = GridSpec("tiny-event", "event", ("histogram",),
                      ("none", "cachecraft"), scale=0.005)
TINY_FUNCTIONAL = GridSpec("tiny-functional", "functional",
                           ("histogram", "spmv"), ("none", "cachecraft"),
                           scale=0.01)


def tiny_cell(fidelity):
    trace_cache_clear()
    cfg = small_config().with_scheme("cachecraft").with_fidelity(fidelity)
    gen_ctx = GenContext(num_sms=2, warps_per_sm=4, scale=0.04, seed=7)
    return run_workload(make_workload("histogram"), cfg, gen_ctx=gen_ctx)


@pytest.mark.parametrize("fidelity,layer", [("event", "dram"),
                                            ("functional",
                                             "functional.replay")])
def test_spans_leave_every_counter_unchanged(fidelity, layer):
    plain = tiny_cell(fidelity)
    schedule = vars(Simulator)["schedule"]
    tracer = SpanTracer()
    with Instrumentation(tracer):
        traced = tiny_cell(fidelity)
    assert traced.stats == plain.stats
    assert traced.traffic == plain.traffic
    assert traced.cycles == plain.cycles
    assert fingerprint(traced) == fingerprint(plain)
    assert tracer.layer_self_ns()[layer] > 0
    assert vars(Simulator)["schedule"] is schedule  # unwrapped on exit


def test_self_times_sum_to_traced_wall_time(tmp_path):
    tracer = SpanTracer()
    with Store(tmp_path) as store, Instrumentation(tracer):
        trace_cache_clear()
        started = time.perf_counter()
        run = tracer.root(request_grid, TINY_EVENT, 3, store)
        wall = time.perf_counter() - started
    assert not run.failed
    layers = tracer.layer_self_ns()
    assert layers["dram"] > 0 and layers["engine"] > 0
    assert layers[TRACING] > 0
    total = sum(layers.values()) / 1e9
    assert abs(total - wall) <= SELF_TIME_TOLERANCE_S


def test_planted_wrong_reference_fails_its_cell(tmp_path):
    refs_path = tmp_path / "refs.json"
    refs = References(refs_path)
    first, _ = run_untraced(TINY_FUNCTIONAL, 5, 0.0, refs, tmp_path)
    assert first["correct"] and first["failed"] == 0
    assert first["metrics"]["cells_ok_frac"]["value"] == 1.0

    data = json.loads(refs_path.read_text())
    (seeds,) = [by_seed for version in data.values()
                for by_seed in version.values()]
    planted = cell_name(("spmv", "cachecraft"))
    seeds["5"][planted] = "0" * 16
    refs_path.write_text(json.dumps(data))

    out, _ = run_untraced(TINY_FUNCTIONAL, 5, 0.0, References(refs_path),
                          tmp_path)
    cells = len(TINY_FUNCTIONAL.cells)
    assert out["attempted"] == cells
    assert out["failed"] == 1 and not out["correct"]
    assert out["metrics"]["cells_ok_frac"]["value"] == 1.0 - 1.0 / cells
