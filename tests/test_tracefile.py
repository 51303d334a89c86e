"""Unit tests for trace serialization and replay."""

import io
import json

import pytest

from repro.cli import main
from repro.core.config import test_config as make_test_config
from repro.core.system import GpuSystem
from repro.gpu.trace import ComputeOp, MemoryOp
from repro.gpu.tracefile import (
    distribute_traces,
    dump_traces,
    flatten_machine_traces,
    load_traces,
)
from repro.workloads import make_workload
from repro.workloads.base import GenContext
from tests.conftest import FixedTraces

SAMPLE = [
    [ComputeOp(5), MemoryOp((0, 4, 8))],
    [MemoryOp((128,), is_store=True),
     MemoryOp((256,), is_store=True, is_atomic=True)],
]


class TestRoundTrip:
    def test_dump_and_load(self):
        buf = io.StringIO()
        count = dump_traces(SAMPLE, buf, workload="sample")
        assert count == 2
        buf.seek(0)
        loaded = load_traces(buf)
        assert loaded == SAMPLE

    def test_header_carries_workload(self):
        buf = io.StringIO()
        dump_traces(SAMPLE, buf, workload="sample")
        header = json.loads(buf.getvalue().splitlines()[0])
        assert header["workload"] == "sample"
        assert header["repro-trace"] == 1

    def test_headerless_file_loads(self):
        buf = io.StringIO('[["c",3],["m",[0,4]]]\n')
        loaded = load_traces(buf)
        assert loaded == [[ComputeOp(3), MemoryOp((0, 4))]]

    def test_blank_lines_skipped(self):
        buf = io.StringIO('\n[["c",1]]\n\n')
        assert load_traces(buf) == [[ComputeOp(1)]]

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            load_traces(io.StringIO('[["x",1]]\n'))
        with pytest.raises(ValueError):
            load_traces(io.StringIO('{"not": "a header"}\n[["c",1]]\n'))
        # Missing, extra, non-integral and mistyped fields raise a
        # ValueError naming the line, not an IndexError, a TypeError or
        # a silent truncation.
        for entry in ('["c"]', '["m"]', '["m", 5]', '["c", null]',
                      '["c", 2.5]', '["m", [1.5]]', '["c", 1, 2]',
                      '["m", [0], true, true, true]', '["m", [0], "yes"]',
                      '["c", true]', '["c", 0]', '["m", []]'):
            with pytest.raises(ValueError, match="^line 3: "):
                load_traces(io.StringIO('{"repro-trace": 1}\n[["c",1]]\n'
                                        '[["c",1],' + entry + ']\n'))

    def test_workload_traces_roundtrip(self):
        ctx = GenContext(num_sms=2, warps_per_sm=2, scale=0.03, seed=4)
        traces = flatten_machine_traces(make_workload("spmv").build(ctx))
        buf = io.StringIO()
        dump_traces(traces, buf)
        buf.seek(0)
        assert load_traces(buf) == traces


class TestDistribution:
    def test_sm_major_shape_inverts_flatten(self):
        warps = [[ComputeOp(i + 1)] for i in range(6)]
        shaped = distribute_traces(warps, num_sms=2, warps_per_sm=3)
        assert len(shaped) == 2
        assert [len(per_sm) for per_sm in shaped] == [3, 3]
        assert shaped[0][0] == [ComputeOp(1)]
        assert shaped[1][0] == [ComputeOp(4)]
        assert flatten_machine_traces(shaped) == warps

    def test_excess_warps_dropped(self):
        warps = [[ComputeOp(1)]] * 10
        shaped = distribute_traces(warps, num_sms=1, warps_per_sm=4)
        assert len(shaped[0]) == 4

    def test_replayed_trace_simulates_identically(self):
        """Dump -> load -> replay must give the exact same cycle count
        as generating the traces directly."""
        ctx = GenContext(num_sms=2, warps_per_sm=4, scale=0.04, seed=6)
        config = make_test_config().with_scheme("cachecraft")

        direct = GpuSystem(config)
        direct.load_workload(make_workload("histogram"), ctx)
        direct_cycles = direct.run()

        traces = flatten_machine_traces(
            make_workload("histogram").build(ctx))
        buf = io.StringIO()
        dump_traces(traces, buf)
        buf.seek(0)
        replayed = distribute_traces(load_traces(buf), ctx.num_sms,
                                     ctx.warps_per_sm)
        replay = GpuSystem(config)
        replay.load_workload(FixedTraces(traces=replayed))
        replay_cycles = replay.run()
        assert replay_cycles == direct_cycles


class TestCli:
    def test_trace_command(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        rc = main(["trace", "-w", "vecadd", "--scale", "0.03",
                   "-o", str(out)])
        assert rc == 0
        with open(out) as fh:
            warps = load_traces(fh)
        assert len(warps) > 0

    def test_run_json_output(self, capsys):
        rc = main(["run", "-w", "vecadd", "-s", "none", "--scale", "0.03",
                   "--l2-kb", "256", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "vecadd"
        assert payload["cycles"] > 0
