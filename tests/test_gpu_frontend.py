"""Unit tests for traces, the coalescer, and the crossbar."""

import numpy as np
import pytest

from repro.gpu.coalescer import coalesce
from repro.gpu.crossbar import Crossbar
from repro.gpu.trace import ComputeOp, MemoryOp, validate_trace
from repro.sim.engine import Simulator


class TestTraceOps:
    def test_compute_validation(self):
        with pytest.raises(ValueError):
            ComputeOp(0)
        with pytest.raises(TypeError):
            ComputeOp(2.5)
        with pytest.raises(TypeError):
            ComputeOp("3")
        op = ComputeOp(np.int64(3))
        assert type(op.cycles) is int and op == ComputeOp(3)

    def test_memory_validation(self):
        with pytest.raises(ValueError):
            MemoryOp(())
        with pytest.raises(ValueError):
            MemoryOp(tuple(range(33)))
        with pytest.raises(ValueError):
            MemoryOp((-1,))

    def test_validate_trace(self):
        validate_trace([ComputeOp(1), MemoryOp((0,))])
        with pytest.raises(TypeError):
            validate_trace([ComputeOp(1), "not an op"])


class TestCoalescer:
    def test_fully_coalesced_warp(self):
        addrs = [i * 4 for i in range(32)]  # 128 consecutive bytes
        txns = coalesce(addrs)
        assert txns == [(0, 0xF)]

    def test_single_sector_access(self):
        txns = coalesce([0, 1, 2, 3])
        assert txns == [(0, 0b0001)]

    def test_fully_divergent_warp(self):
        addrs = [i * 1024 for i in range(32)]
        txns = coalesce(addrs)
        assert len(txns) == 32
        assert all(bin(m).count("1") == 1 for _l, m in txns)

    def test_strided_within_line(self):
        addrs = [0, 40, 80, 120]  # sectors 0..3 of line 0
        assert coalesce(addrs) == [(0, 0xF)]

    def test_output_sorted_by_line(self):
        txns = coalesce([1000, 0, 500])
        lines = [l for l, _m in txns]
        assert lines == sorted(lines)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            coalesce([0], line_bytes=100, sector_bytes=32)


class TestCrossbar:
    def test_request_traverses_with_latency(self):
        sim = Simulator()
        xbar = Crossbar(sim, 2, latency=10, cycles_per_request=1)
        arrived = []
        xbar.send_request(0, 0, lambda: arrived.append(sim.now))
        sim.run()
        assert arrived == [11]  # 1 service + 10 latency

    def test_port_contention_serializes(self):
        sim = Simulator()
        xbar = Crossbar(sim, 1, latency=0, cycles_per_request=4)
        times = []
        for _ in range(3):
            xbar.send_request(0, 0, lambda: times.append(sim.now))
        sim.run()
        assert times == [4, 8, 12]

    def test_slices_independent(self):
        sim = Simulator()
        xbar = Crossbar(sim, 2, latency=0, cycles_per_request=4)
        times = []
        xbar.send_request(0, 0, lambda: times.append(("s0", sim.now)))
        xbar.send_request(1, 0, lambda: times.append(("s1", sim.now)))
        sim.run()
        assert ("s0", 4) in times and ("s1", 4) in times

    def test_response_payload_occupies_bandwidth(self):
        sim = Simulator()
        xbar = Crossbar(sim, 1, latency=0, cycles_per_sector=2)
        times = []
        xbar.send_response(0, 4, lambda: times.append(sim.now))
        xbar.send_response(0, 1, lambda: times.append(sim.now))
        sim.run()
        assert times == [8, 10]

    def test_deliver_takes_arguments(self):
        """``deliver(*args)`` runs with the arguments passed along, in
        send order when both directions share one cycle."""
        sim = Simulator()
        xbar = Crossbar(sim, 2, latency=3, cycles_per_request=1,
                        cycles_per_sector=1)
        got = []

        def deliver(*args):
            got.append((sim.now,) + args)
        xbar.send_request(1, 0, deliver, "load", 0x40, 0b0011)
        xbar.send_response(1, 1, deliver, "fill", 0x40)
        xbar.send_request(1, 2, deliver)
        sim.run()
        assert got == [(4, "load", 0x40, 0b0011), (4, "fill", 0x40), (6,)]

    def test_invalid_slices(self):
        with pytest.raises(ValueError):
            Crossbar(Simulator(), 0)
