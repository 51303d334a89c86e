"""Deterministic self-profiler: sampling, stacks, counter neutrality."""

from repro.analysis.harness import bench_config, bench_gen_ctx
from repro.cli import main
from repro.core.system import run_workload
from repro.obs.flame import FlameProfiler, frame_name
from repro.obs.hub import Observability
from repro.sim.engine import Simulator
from repro.workloads import make_workload


def profiled_run(small_config, tiny_gen, fidelity="event", sample_every=16):
    config = small_config.with_scheme("cachecraft")
    if fidelity != "event":
        config = config.with_fidelity(fidelity)
    flame = FlameProfiler(sample_every=sample_every)
    result = run_workload(make_workload("vecadd"), config, gen_ctx=tiny_gen,
                          obs=Observability(flame=flame))
    return flame, result


class TestFrameName:
    def test_bound_method_uses_component_name(self):
        class Dram:
            name = "dram0"

            def tick(self):
                pass

        assert frame_name(Dram().tick) == "dram0.tick"

    def test_private_method_prefix_stripped(self):
        class Xbar:
            name = "xbar"

            def _pump(self):
                pass

        assert frame_name(Xbar()._pump) == "xbar.pump"

    def test_plain_function_uses_qualname(self):
        def helper():
            pass

        assert frame_name(helper).endswith("helper")
        assert "<locals>." not in frame_name(helper)


class TestProfilerMechanics:
    def test_samples_every_nth_frame(self):
        sim = Simulator()
        flame = FlameProfiler(sample_every=4)
        flame.instrument(sim)
        for _ in range(12):
            sim.schedule(1, lambda: None)
        sim.run()
        assert flame.frames_executed == 12
        assert flame.sample_count == 3

    def test_stacks_follow_scheduling_ancestry(self):
        sim = Simulator()
        flame = FlameProfiler(sample_every=1)
        flame.instrument(sim)

        def parent():
            sim.schedule(1, child)

        def child():
            pass

        sim.schedule(1, parent)
        sim.run()
        stacks = set(flame.samples)
        assert any(s and s[-1].endswith("parent") for s in stacks)
        assert any(len(s) == 2 and s[-1].endswith("child") for s in stacks)

    def test_double_instrument_rejected(self):
        import pytest

        sim = Simulator()
        flame = FlameProfiler()
        flame.instrument(sim)
        with pytest.raises(RuntimeError):
            flame.instrument(sim)

    def test_release_restores_engine(self):
        sim = Simulator()
        flame = FlameProfiler(sample_every=1)
        flame.instrument(sim)
        flame.release()
        sim.schedule(1, lambda: None)
        sim.run()
        assert flame.frames_executed == 0  # nothing routed post-release

    def test_collapsed_format_and_export(self, tmp_path):
        sim = Simulator()
        flame = FlameProfiler(sample_every=1)
        flame.instrument(sim)
        sim.schedule(1, lambda: None)
        sim.run()
        text = flame.collapsed()
        assert text.endswith("\n")
        line = text.splitlines()[0]
        frames, count = line.rsplit(" ", 1)
        assert int(count) >= 1 and frames
        out = tmp_path / "flame.txt"
        flame.export(out)
        assert out.read_text() == text


class TestDeterminism:
    def test_event_tier_bit_identical_across_runs(self, small_config,
                                                  tiny_gen):
        a, _ = profiled_run(small_config, tiny_gen)
        b, _ = profiled_run(small_config, tiny_gen)
        assert a.collapsed() == b.collapsed()
        assert a.sample_count > 0

    def test_functional_tier_bit_identical_across_runs(self, small_config,
                                                       tiny_gen):
        a, _ = profiled_run(small_config, tiny_gen, fidelity="functional")
        b, _ = profiled_run(small_config, tiny_gen, fidelity="functional")
        assert a.collapsed() == b.collapsed()
        assert a.sample_count > 0


class TestCounterNeutrality:
    def test_profiled_run_changes_no_counters(self, small_config, tiny_gen):
        config = small_config.with_scheme("cachecraft")
        bare = run_workload(make_workload("vecadd"), config, gen_ctx=tiny_gen)
        _, profiled = profiled_run(small_config, tiny_gen)
        assert profiled.cycles == bare.cycles
        assert profiled.stats == bare.stats
        assert profiled.traffic == bare.traffic

    def test_every_parked_turn_is_a_frame(self):
        """Stall retries parked with ``Simulator.park`` run as frames of
        their real retry, so the profiler sees every executed event and
        the counters match an unprofiled run.  pchase/cachecraft on the
        benchmark machine retries stalled transactions ~97,000 times."""
        config = bench_config().with_scheme("cachecraft")
        gen_ctx = bench_gen_ctx(config, scale=0.01, seed=42)
        bare = run_workload(make_workload("pchase"), config, gen_ctx=gen_ctx)
        flame = FlameProfiler(sample_every=1)
        profiled = run_workload(make_workload("pchase"), config,
                                gen_ctx=gen_ctx,
                                obs=Observability(flame=flame))
        assert sum(v for k, v in bare.stats.items()
                   if k.endswith("stall_retries")) > 50_000
        assert flame.frames_executed == profiled.events_executed
        assert profiled.events_executed == bare.events_executed
        assert profiled.stats == bare.stats
        assert profiled.cycles == bare.cycles
        frames = {frame for stack in flame.samples for frame in stack}
        assert any(f.endswith(".advance_mem_op") for f in frames)
        assert not any("turn" in f for f in frames)

    def test_functional_counters_unchanged(self, small_config, tiny_gen):
        config = small_config.with_scheme("cachecraft") \
            .with_fidelity("functional")
        bare = run_workload(make_workload("vecadd"), config, gen_ctx=tiny_gen)
        _, profiled = profiled_run(small_config, tiny_gen,
                                   fidelity="functional")
        assert profiled.stats == bare.stats


class TestStackContent:
    def test_event_tier_attributes_component_layers(self, small_config,
                                                    tiny_gen):
        flame, _ = profiled_run(small_config, tiny_gen, sample_every=4)
        frames = {frame for stack in flame.samples for frame in stack}
        assert any(f.startswith("dram") for f in frames)
        assert any(f.startswith("sm") for f in frames)
        assert any("CacheCraft" in f or "cachecraft" in f for f in frames)

    def test_functional_tier_roots_at_sm_step(self, small_config, tiny_gen):
        flame, _ = profiled_run(small_config, tiny_gen,
                                fidelity="functional", sample_every=4)
        roots = {stack[0] for stack in flame.samples if stack}
        assert any(r.endswith(".step") for r in roots)


class TestFlameCli:
    def test_obs_flame_stdout_deterministic(self, capsys):
        argv = ["obs", "flame", "-w", "vecadd", "-s", "cachecraft",
                "--scale", "0.04", "--sample-every", "32"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.strip()

    def test_obs_flame_out_file(self, tmp_path, capsys):
        out = tmp_path / "flame.folded"
        rc = main(["obs", "flame", "-w", "vecadd", "--scale", "0.04",
                   "--out", str(out)])
        assert rc == 0
        assert "flame samples" in capsys.readouterr().out
        assert out.read_text().strip()

    def test_profile_flame_out(self, tmp_path, capsys):
        out = tmp_path / "flame.folded"
        rc = main(["profile", "-w", "vecadd", "--scale", "0.04",
                   "--flame-out", str(out)])
        assert rc == 0
        assert "flame samples" in capsys.readouterr().out
        for line in out.read_text().splitlines():
            frames, count = line.rsplit(" ", 1)
            assert int(count) > 0
