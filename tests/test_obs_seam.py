"""Observers connect to a built system in one place,
``Observability.attach``: trace categories reach exactly their
components, and observers attached together each see what they see
alone without moving a counter."""

import pytest

from repro.analysis.harness import bench_config, bench_gen_ctx
from repro.core.config import ResilienceConfig
from repro.core.system import GpuSystem
from repro.obs.flame import FlameProfiler
from repro.obs.hub import Observability
from repro.obs.inspect import MemoryInspector
from repro.obs.tracer import ChromeTracer
from repro.resilience import BurstEvent, RecoveryPolicy
from repro.workloads import make_workload


def run_system(config, gen_ctx, obs=None, workload="vecadd"):
    system = GpuSystem(config, obs=obs)
    wl = make_workload(workload)
    system.load_workload(wl, gen_ctx)
    cycles = system.run()
    return system, system.result(wl.name, cycles)


def faulty_mdcache_config():
    """Metadata-cache protection with a healable metadata burst (DUE,
    invalidation, recovery) and a hard data burst (poisoning)."""
    config = bench_config().with_scheme("metadata-cache", functional=True)
    return config.with_resilience(ResilienceConfig(
        recovery=RecoveryPolicy(max_retries=2),
        fault_processes=(
            BurstEvent(at_cycle=50, bits=2, target="metadata",
                       healable=True),
            BurstEvent(at_cycle=120, bits=4)),
        inject_interval=25))


class TestTraceCategories:
    @pytest.fixture(scope="class")
    def faulty(self):
        config = faulty_mdcache_config()
        gen = bench_gen_ctx(config, scale=0.02, seed=42)
        _system, bare = run_system(config, gen)
        return config, gen, bare

    def test_mdcache_and_resilience_instants(self, faulty):
        config, gen, bare = faulty
        tracer = ChromeTracer()
        _system, traced = run_system(config, gen,
                                     Observability(tracer=tracer))
        names = {(e["cat"], e["name"]) for e in tracer.events}
        for name in ("inject_meta", "inject_data", "due",
                     "metadata_invalidate", "retry", "heal", "recovered",
                     "poisoned"):
            assert ("resilience", name) in names, name
        mdcache = {name for cat, name in names if cat == "mdcache"}
        for suffix in ("_miss", "_fill", "_invalidate"):
            assert any(name.endswith(suffix) for name in mdcache), suffix
        assert traced.stats == bare.stats
        assert traced.cycles == bare.cycles
        assert traced.traffic == bare.traffic

    def test_category_filter_reaches_only_its_components(self, faulty):
        config, gen, bare = faulty
        tracer = ChromeTracer(categories=["dram"])
        system, traced = run_system(config, gen,
                                    Observability(tracer=tracer))
        assert tracer.events
        assert {e["cat"] for e in tracer.events} == {"dram"}
        assert all(ch._tracer is tracer for ch in system.channels)
        others = [*system.sms, *system.slices, system.recovery,
                  system.injector, *system.scheme.metadata_caches()]
        assert all(c._tracer is None for c in others)
        assert traced.stats == bare.stats
        assert traced.cycles == bare.cycles
        assert traced.traffic == bare.traffic


def _model_counters(stats, kinds):
    """Stats without what observers add themselves: the attributor's
    ``latency`` group.  (The sampler's ticks are observer turns, which
    ``engine.events`` leaves out.)"""
    return {k: v for k, v in stats.items() if not k.startswith("latency.")}


def observe(fidelity, kinds):
    """Run spmv/metadata-cache with the named observers attached
    together; returns the result and each observer's artifact."""
    config = bench_config().with_scheme("metadata-cache") \
        .with_fidelity(fidelity)
    obs = Observability(
        tracer=ChromeTracer() if "tracer" in kinds else None,
        sample_interval=200 if "sampler" in kinds else 0,
        attribute_latency="latency" in kinds,
        flame=FlameProfiler(sample_every=4) if "flame" in kinds else None,
        inspect=MemoryInspector() if "inspect" in kinds else None)
    _system, result = run_system(
        config, bench_gen_ctx(config, scale=0.01, seed=42), obs,
        workload="spmv")
    artifacts = {}
    if obs.tracer is not None:
        artifacts["tracer"] = obs.tracer.events
    if obs.sampler is not None:
        # The sampler walks the whole stats registry, so it also
        # samples the attributor's ``latency`` group.
        artifacts["sampler"] = [
            {k: v for k, v in row.items() if not k.startswith("latency.")}
            for row in obs.sampler.samples]
    if obs.latency is not None:
        artifacts["latency"] = result.latency
    if obs.inspect is not None:
        artifacts["inspect"] = obs.inspect.artifact()
    if obs.flame is not None:
        artifacts["flame"] = (obs.flame.samples, obs.flame.frames_executed)
    return result, artifacts


@pytest.fixture(scope="module")
def observed():
    """Memoized :func:`observe` (each single-observer run is shared)."""
    runs = {}

    def get(fidelity, kinds):
        key = (fidelity, tuple(kinds))
        if key not in runs:
            runs[key] = observe(fidelity, kinds)
        return runs[key]
    return get


@pytest.mark.parametrize("fidelity, kinds", [
    ("event", ("tracer", "sampler", "latency", "inspect")),
    # The sampler's daemons and the attributor's read wrappers are
    # frames of their own, so flame composes with these two only.
    ("event", ("flame", "tracer", "inspect")),
    ("functional", ("flame", "inspect")),
])
def test_observers_compose(observed, fidelity, kinds):
    """Observers attached together each give the artifact they give
    alone, and the model's counters match an unobserved run.  The
    metadata-cache scheme shares two hook sites between the tracer and
    the inspector: the metadata cache and the DRAM issue."""
    bare, _ = observed(fidelity, ())
    together, artifacts = observed(fidelity, kinds)
    for kind in kinds:
        _result, alone = observed(fidelity, (kind,))
        assert artifacts[kind] == alone[kind], kind
    assert _model_counters(together.stats, kinds) \
        == _model_counters(bare.stats, kinds)
    assert together.traffic == bare.traffic
    assert together.cycles == bare.cycles
    if "inspect" in kinds:
        assert artifacts["inspect"]["runtime"]["mdcache"]
