"""One entry point per reproduced table/figure.

Experiment IDs are this reproduction's own (the original paper text was
unavailable — see DESIGN.md): tables T1-T5 and figures F1-F9.  Each
function returns an :class:`ExperimentOutput` whose ``text`` is the
printable table and whose ``data`` is the raw structure the benchmarks
assert against.  EXPERIMENTS.md records the expected qualitative shape
for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.characterize import WorkloadProfile, profile_workload
from repro.analysis.energy import energy_breakdown, relative_energy
from repro.analysis.harness import (
    ExperimentHarness,
    bench_config,
    bench_gen_ctx,
    geomean,
)
from repro.analysis.tables import format_series, format_table
from repro.core.config import ALL_SCHEMES, SystemConfig
from repro.ecc import (
    BurstFault,
    ChipFault,
    CrcCode,
    ExtendedHammingCode,
    FaultCampaign,
    HsiaoCode,
    InterleavedCode,
    MultiBitFault,
    ParityCode,
    ReedSolomonCode,
    SingleBitFault,
)
from repro.protection.base import make_scheme
from repro.workloads import REPRESENTATIVE_WORKLOADS, WORKLOADS, make_workload

#: Scheme order used in every figure.
FIGURE_SCHEMES = ALL_SCHEMES


@dataclass
class ExperimentOutput:
    """What every experiment function returns."""

    ident: str
    title: str
    data: dict
    text: str
    notes: List[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = [f"[{self.ident}] {self.title}", self.text]
        body.extend(f"note: {n}" for n in self.notes)
        return "\n".join(body)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def t1_configuration(config: Optional[SystemConfig] = None) -> ExperimentOutput:
    """T1: simulated system configuration."""
    cfg = config or bench_config()
    gpu = cfg.gpu
    rows = [
        ["SMs x warps", f"{gpu.num_sms} x {gpu.warps_per_sm}"],
        ["L1 per SM", f"{gpu.l1_size_kb} KiB, {gpu.l1_ways}-way, "
                      f"{gpu.line_bytes} B lines / {gpu.sector_bytes} B sectors"],
        ["L1 MSHRs / store buffer", f"{gpu.l1_mshr_entries} / {gpu.store_buffer}"],
        ["L2", f"{gpu.l2_size_kb} KiB, {gpu.l2_ways}-way, "
               f"{gpu.num_slices} slices, {gpu.l2_policy}"],
        ["Crossbar", f"{gpu.xbar_latency} cyc latency"],
        ["DRAM channels", f"{gpu.num_slices} x GDDR6-class "
                          f"({gpu.dram.banks} banks, {gpu.dram.row_bytes} B rows)"],
        ["DRAM timing (CL/RCD/RP/burst)",
         f"{gpu.dram.t_cl}/{gpu.dram.t_rcd}/{gpu.dram.t_rp}/{gpu.dram.t_burst}"],
        ["Partition interleave", f"{gpu.slice_chunk_bytes} B"],
        ["Protection granule (granule schemes)",
         f"{cfg.protection.granule_bytes} B, code {cfg.protection.code_name}"],
        ["ECC check latency", f"{gpu.ecc_check_latency} cyc"],
    ]
    text = format_table(["parameter", "value"], rows,
                        title="T1: simulated system configuration")
    return ExperimentOutput("T1", "System configuration",
                            {"rows": rows}, text)


def t2_workloads(scale: float = 0.2, seed: int = 42,
                 workloads: Sequence[str] = WORKLOADS) -> ExperimentOutput:
    """T2: workload characterization (trace-level, no simulation)."""
    cfg = bench_config()
    ctx = bench_gen_ctx(cfg, scale=scale, seed=seed)
    profiles: List[WorkloadProfile] = []
    for name in workloads:
        profiles.append(profile_workload(make_workload(name), ctx,
                                         granule_bytes=128))
    rows = [p.as_row() for p in profiles]
    text = format_table(WorkloadProfile.ROW_HEADERS, rows,
                        title="T2: workload characterization")
    return ExperimentOutput("T2", "Workload characterization",
                            {"profiles": {p.name: p for p in profiles}}, text)


def t3_overheads() -> ExperimentOutput:
    """T3: per-scheme storage / SRAM overhead summary."""
    rows = []
    data = {}
    for name in FIGURE_SCHEMES:
        scheme = make_scheme(name)
        scheme.prepare(functional=False)
        storage = scheme.storage_overhead()
        # Dedicated SRAM depends on slice count; report per-slice-4.
        sram = getattr(scheme, "mdcache_kb", 0) * 4 if hasattr(
            scheme, "mdcache_kb") else 0
        if name == "cachecraft":
            sram = scheme.sram_overhead_bytes() // 1024 or 1
        device = getattr(scheme, "device_overhead", 0.0)
        rows.append([name, f"{storage * 100:.2f}%", f"{device * 100:.2f}%",
                     f"{sram} KiB"])
        data[name] = {"storage": storage, "device": device, "sram_kb": sram}
    text = format_table(
        ["scheme", "DRAM capacity", "extra devices", "dedicated SRAM"],
        rows, title="T3: protection overhead summary")
    return ExperimentOutput("T3", "Scheme overheads", data, text)


def t4_energy(harness: Optional[ExperimentHarness] = None,
              workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
              schemes: Sequence[str] = FIGURE_SCHEMES) -> ExperimentOutput:
    """T4: relative energy per scheme (geomean over workloads)."""
    h = harness or ExperimentHarness()
    grid = h.matrix(workloads, schemes)
    rel: Dict[str, List[float]] = {sc: [] for sc in schemes}
    for wl in workloads:
        base = grid[wl]["none"]
        for sc in schemes:
            rel[sc].append(relative_energy(grid[wl][sc], base))
    rows = []
    data = {}
    for sc in schemes:
        gm = geomean(rel[sc])
        sample = energy_breakdown(grid[workloads[0]][sc])
        dram_share = sample["dram"] / sum(sample.values())
        rows.append([sc, gm, dram_share])
        data[sc] = {"relative_energy": gm, "dram_share": dram_share}
    text = format_table(["scheme", "rel. energy (geomean)",
                         "DRAM share (sample)"], rows,
                        title="T4: relative energy")
    return ExperimentOutput("T4", "Relative energy", data, text)


def t5_reliability(trials: int = 400, granule_bytes: int = 32) -> ExperimentOutput:
    """T5: fault coverage per code under four fault models."""
    codes = [
        ParityCode(granule_bytes, interleave=8),
        ExtendedHammingCode(granule_bytes),
        HsiaoCode(granule_bytes),
        InterleavedCode(granule_bytes, ways=4),
        ReedSolomonCode(granule_bytes, 4),
        CrcCode(granule_bytes, width=32),
    ]
    faults = [SingleBitFault(), MultiBitFault(2), BurstFault(4), ChipFault(8)]
    rows = []
    data: Dict[str, dict] = {}
    for code in codes:
        campaign = FaultCampaign(code, seed=7)
        per_fault = {}
        row = [code.spec.name]
        for fault in faults:
            res = campaign.run(fault, trials)
            per_fault[fault.name] = res.as_dict()
            covered = res.corrected + res.detected + res.benign
            row.append(covered / trials)
        rows.append(row)
        data[code.spec.name] = per_fault
    headers = ["code"] + [f.name + " cov." for f in faults]
    text = format_table(headers, rows, title="T5: fault coverage "
                        f"({trials} trials/cell; coverage = corrected"
                        "+detected+benign)")
    return ExperimentOutput("T5", "Reliability coverage", data, text)


def t6_fit_projection(capacity_gb: float = 16.0, trials: int = 600,
                      granule_bytes: int = 32) -> ExperimentOutput:
    """T6: system-level FIT projection per code.

    Scales the T5 per-event outcomes to failures-in-time for a full
    GPU's memory capacity under a beam-study-shaped event mix.  The
    headline lesson: monolithic SEC-DED's burst *miscorrections* give
    it a worse SDC budget than even detection-only parity; interleaving
    or symbol codes eliminate SDC outright.
    """
    from repro.analysis.reliability import ReliabilityProjection, compare_codes

    codes = [
        ParityCode(granule_bytes, interleave=8),
        HsiaoCode(granule_bytes),
        InterleavedCode(granule_bytes, ways=4),
        ReedSolomonCode(granule_bytes, 4),
    ]
    projections = compare_codes(codes, capacity_gb=capacity_gb,
                                trials=trials)
    rows = [p.as_row() for p in projections]
    text = format_table(
        ReliabilityProjection.ROW_HEADERS, rows,
        title=f"T6: FIT projection at {capacity_gb:.0f} GiB "
              f"({trials} trials/event class)")
    return ExperimentOutput(
        "T6", "System FIT projection",
        {p.code_name: p for p in projections}, text)


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def f1_performance(harness: Optional[ExperimentHarness] = None,
                   workloads: Sequence[str] = WORKLOADS,
                   schemes: Sequence[str] = FIGURE_SCHEMES) -> ExperimentOutput:
    """F1 (headline): normalized performance of every scheme."""
    h = harness or ExperimentHarness()
    perf = h.normalized_performance(workloads, schemes)
    order = list(workloads) + ["geomean"]
    series = [(sc, [perf[wl][sc] for wl in order]) for sc in schemes]
    text = format_series("workload", order, series,
                         title="F1: performance normalized to unprotected")
    return ExperimentOutput("F1", "Normalized performance", {"perf": perf},
                            text)


def f2_traffic(harness: Optional[ExperimentHarness] = None,
               workloads: Sequence[str] = WORKLOADS,
               schemes: Sequence[str] = FIGURE_SCHEMES) -> ExperimentOutput:
    """F2: DRAM traffic breakdown, normalized to unprotected demand.

    Traffic-only, so the default harness runs the functional fidelity
    tier at a fraction of the wall time.  Byte counters follow the
    parity contract of docs/MODEL.md — bit-for-bit on serialized
    streams.  On this concurrent default shape total DRAM bytes drift
    from the event tier's, by scheme: at ``MODEL_VERSION`` 7 streaming
    cells are identical, histogram drifts −0.5% to +2.8% and radix
    +16% to +33% (docs/PERFORMANCE.md, "Fidelity tiers").
    """
    h = harness or ExperimentHarness(fidelity="functional")
    grid = h.matrix(workloads, schemes)
    kinds = ("data", "metadata", "verify_fill", "writeback", "metadata_write")
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    rows = []
    for wl in workloads:
        base_total = grid[wl]["none"].total_dram_bytes or 1
        data[wl] = {}
        for sc in schemes:
            tr = grid[wl][sc].traffic
            norm = {k: tr.get(k, 0) / base_total for k in kinds}
            data[wl][sc] = norm
            rows.append([wl, sc] + [norm[k] for k in kinds]
                        + [sum(norm.values())])
    text = format_table(["workload", "scheme"] + list(kinds) + ["total"],
                        rows, title="F2: DRAM traffic breakdown "
                        "(normalized to unprotected total)")
    return ExperimentOutput("F2", "Traffic breakdown", {"traffic": data}, text)


def f3_reconstruction(harness: Optional[ExperimentHarness] = None,
                      workloads: Sequence[str] = WORKLOADS) -> ExperimentOutput:
    """F3: where CacheCraft's granule verifications got their sectors."""
    h = harness or ExperimentHarness()
    rows = []
    data = {}
    for wl in workloads:
        r = h.run(wl, "cachecraft")
        verified = r.stat("granules_verified") or 1
        demand = r.stat("demand_sectors")
        reused = r.stat("reused_sectors")
        contrib = r.stat("contrib_sectors")
        fills = r.stat("verify_fill_sectors")
        no_extra = r.stat("granules_no_extra_fetch")
        total = demand + reused + contrib + fills
        row = {
            "demand": demand / total if total else 0,
            "resident_reuse": reused / total if total else 0,
            "contribution": contrib / total if total else 0,
            "verify_fill": fills / total if total else 0,
            "no_extra_fetch_rate": no_extra / verified,
        }
        data[wl] = row
        rows.append([wl] + [row[k] for k in
                            ("demand", "resident_reuse", "contribution",
                             "verify_fill", "no_extra_fetch_rate")])
    text = format_table(
        ["workload", "demand", "resident reuse", "contribution",
         "verify fill", "no-extra-fetch rate"],
        rows, title="F3: granule verification sources (sector fractions)")
    return ExperimentOutput("F3", "Reconstruction effectiveness",
                            {"sources": data}, text)


def f4_l2_sweep(workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
                sizes_kb: Sequence[int] = (512, 1024, 2048, 4096),
                schemes: Sequence[str] = ("metadata-cache", "inline-full",
                                          "cachecraft"),
                scale: float = 0.3) -> ExperimentOutput:
    """F4: L2 capacity sensitivity (geomean over representative set)."""
    data: Dict[int, Dict[str, float]] = {}
    for size in sizes_kb:
        h = ExperimentHarness(config=bench_config(l2_size_kb=size),
                              scale=scale)
        perf = h.normalized_performance(workloads, ("none",) + tuple(schemes))
        data[size] = {sc: perf["geomean"][sc] for sc in schemes}
    series = [(sc, [data[size][sc] for size in sizes_kb]) for sc in schemes]
    text = format_series("L2 KiB", list(sizes_kb), series,
                         title="F4: geomean normalized perf vs L2 capacity")
    return ExperimentOutput("F4", "L2 capacity sweep", {"perf": data}, text)


def f5_granule_sweep(workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
                     granules: Sequence[int] = (64, 128, 256, 512),
                     scale: float = 0.3) -> ExperimentOutput:
    """F5: protection granule size sensitivity for granule schemes."""
    data: Dict[int, Dict[str, float]] = {}
    for granule in granules:
        h = ExperimentHarness(scale=scale)
        cfg = h.config.with_protection(granule_bytes=granule)
        perf_rows = {}
        for sc in ("inline-full", "cachecraft"):
            vals = []
            for wl in workloads:
                base = h.run(wl, "none", config=cfg)
                r = h.run(wl, sc, config=cfg)
                vals.append(r.performance_vs(base))
            perf_rows[sc] = geomean(vals)
        # Metadata overhead shrinks as granules grow.
        scheme = make_scheme("cachecraft", granule_bytes=granule)
        layout = scheme.prepare(functional=False)
        perf_rows["capacity_overhead"] = layout.capacity_overhead
        data[granule] = perf_rows
    series = [
        ("inline-full", [data[g]["inline-full"] for g in granules]),
        ("cachecraft", [data[g]["cachecraft"] for g in granules]),
        ("capacity_overhead", [data[g]["capacity_overhead"] for g in granules]),
    ]
    text = format_series("granule B", list(granules), series,
                         title="F5: geomean perf & overhead vs granule size")
    return ExperimentOutput("F5", "Granule size sweep", {"perf": data}, text)


def f6_metadata_capacity(workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
                         mdc_sizes_kb: Sequence[int] = (8, 16, 32, 64, 128),
                         scale: float = 0.3) -> ExperimentOutput:
    """F6: dedicated metadata cache size vs CacheCraft-in-L2."""
    h = ExperimentHarness(scale=scale)
    data: Dict[str, Dict] = {"metadata-cache": {}, "cachecraft": {}}
    for size in mdc_sizes_kb:
        vals = []
        for wl in workloads:
            base = h.run(wl, "none")
            r = h.run(wl, "metadata-cache", mdcache_kb=size)
            vals.append(r.performance_vs(base))
        data["metadata-cache"][size] = geomean(vals)
    vals = []
    for wl in workloads:
        base = h.run(wl, "none")
        r = h.run(wl, "cachecraft")
        vals.append(r.performance_vs(base))
    cachecraft_perf = geomean(vals)
    data["cachecraft"]["in-L2"] = cachecraft_perf
    series = [
        ("metadata-cache", [data["metadata-cache"][s] for s in mdc_sizes_kb]),
        ("cachecraft(inL2)", [cachecraft_perf] * len(mdc_sizes_kb)),
    ]
    text = format_series("MDC KiB/slice", list(mdc_sizes_kb), series,
                         title="F6: geomean perf vs dedicated MDC size "
                         "(CacheCraft flat line uses no dedicated MDC)")
    return ExperimentOutput("F6", "Metadata capacity crossover", data, text)


ABLATIONS = (
    ("full", {}, {}),
    ("-directory", {"directory_entries": 0}, {}),
    ("-reconstruction", {"reconstruction": False, "directory_entries": 0}, {}),
    ("-adaptive", {"adaptive_insertion": False}, {}),
    ("-meta_in_l2", {"metadata_in_l2": False}, {}),
    ("-verified_bits", {"verified_bits": False}, {}),
    ("craft=8", {"craft_entries": 8}, {}),
    # Alternative design point: reserve 2 of 16 L2 ways for metadata
    # instead of controlling pollution via adaptive insertion.
    ("+way-partition", {"adaptive_insertion": False},
     {"l2_metadata_ways": 2}),
)


def f7_ablation(workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
                scale: float = 0.3) -> ExperimentOutput:
    """F7: CacheCraft component ablations (geomean normalized perf)."""
    h = ExperimentHarness(scale=scale)
    data = {}
    rows = []
    for label, overrides, gpu_overrides in ABLATIONS:
        config = h.config.with_gpu(**gpu_overrides) if gpu_overrides else None
        vals = []
        traffic = []
        for wl in workloads:
            base = h.run(wl, "none", config=config)
            r = h.run(wl, "cachecraft", config=config, **overrides)
            vals.append(r.performance_vs(base))
            traffic.append(r.total_dram_bytes / (base.total_dram_bytes or 1))
        data[label] = {"perf": geomean(vals), "traffic": geomean(traffic)}
        rows.append([label, data[label]["perf"], data[label]["traffic"]])
    text = format_table(["variant", "geomean perf", "geomean traffic"],
                        rows, title="F7: CacheCraft ablations")
    return ExperimentOutput("F7", "Component ablations", data, text)


def f8_divergence(densities: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
                  schemes: Sequence[str] = ("metadata-cache", "inline-full",
                                            "cachecraft"),
                  scale: float = 0.3) -> ExperimentOutput:
    """F8: performance vs sectors-touched-per-granule density."""
    data: Dict[float, Dict[str, float]] = {}
    for density in densities:
        h = ExperimentHarness(
            scale=scale,
            workload_params={"divergence": {"density": density}})
        base = h.run("divergence", "none")
        data[density] = {}
        for sc in schemes:
            r = h.run("divergence", sc)
            data[density][sc] = r.performance_vs(base)
    series = [(sc, [data[d][sc] for d in densities]) for sc in schemes]
    text = format_series("density", list(densities), series,
                         title="F8: normalized perf vs sectors/granule density")
    return ExperimentOutput("F8", "Divergence sweep", {"perf": data}, text)


def f9_strength(workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
                codes: Sequence[str] = ("secded", "tagged", "interleaved",
                                        "rs", "secded+mac"),
                scale: float = 0.3) -> ExperimentOutput:
    """F9: stronger codes on CacheCraft — protection vs performance."""
    h = ExperimentHarness(scale=scale)
    data = {}
    rows = []
    for code in codes:
        vals = []
        for wl in workloads:
            base = h.run(wl, "none")
            r = h.run(wl, "cachecraft", code_name=code)
            vals.append(r.performance_vs(base))
        scheme = make_scheme("cachecraft", code_name=code)
        layout = scheme.prepare(functional=False)
        data[code] = {"perf": geomean(vals),
                      "meta_bytes": layout.meta_per_granule,
                      "overhead": layout.capacity_overhead}
        rows.append([code, data[code]["perf"], layout.meta_per_granule,
                     f"{layout.capacity_overhead * 100:.2f}%"])
    text = format_table(["code", "geomean perf", "meta B/granule",
                         "capacity overhead"], rows,
                        title="F9: code strength vs performance (CacheCraft)")
    return ExperimentOutput("F9", "Protection strength", data, text)


def f12_interkernel(footprint_mb: int = 8, scale: float = 0.3,
                    seed: int = 42) -> ExperimentOutput:
    """F12: inter-kernel reuse of reconstructed protection state.

    A producer kernel scatters writes over a buffer; a consumer kernel
    gathers from it.  CacheCraft's contribution directory outlives the
    producer (and even an L2 flush), so the consumer's lone-sector
    misses verify without sibling refetch — protection state, once
    crafted, is an asset that persists across launches.
    """
    from repro.core.scenario import KernelLaunch, Scenario
    from repro.analysis.harness import bench_config

    footprint = footprint_mb << 20
    variants = (
        ("metadata-cache", {}),
        ("inline-full", {}),
        ("cachecraft-nodir", {"directory_entries": 0}),
        ("cachecraft", {}),
    )
    rows = []
    data = {}
    for label, overrides in variants:
        scheme = "cachecraft" if label.startswith("cachecraft") else label
        config = bench_config().with_scheme(scheme, **overrides)
        producer = make_workload("uniform-random", write_fraction=0.5,
                                 footprint_bytes=footprint)
        consumer = make_workload("uniform-random", write_fraction=0.0,
                                 footprint_bytes=footprint)
        scenario = Scenario([KernelLaunch(producer, seed=seed),
                             KernelLaunch(consumer, seed=seed + 1)],
                            config=config)
        gpu = config.gpu
        from repro.workloads.base import GenContext
        ctx = GenContext(num_sms=gpu.num_sms, warps_per_sm=gpu.warps_per_sm,
                         seed=seed, scale=scale)
        outcome = scenario.run(gen_ctx=ctx)
        consumer_result = outcome.kernels[1]
        fills = consumer_result.traffic.get("verify_fill", 0)
        row = {
            "consumer_cycles": consumer_result.cycles,
            "consumer_fill_bytes": fills,
            "total_cycles": outcome.total_cycles,
        }
        data[label] = row
        rows.append([label, row["consumer_cycles"],
                     row["consumer_fill_bytes"], row["total_cycles"]])
    text = format_table(
        ["scheme", "consumer cycles", "consumer fill bytes", "total cycles"],
        rows, title="F12: producer->consumer scenario (shared buffer)")
    return ExperimentOutput("F12", "Inter-kernel reuse", data, text)


def f13_policies(workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
                 policies: Sequence[str] = ("lru", "plru", "srrip"),
                 scale: float = 0.3) -> ExperimentOutput:
    """F13: L2 replacement-policy sensitivity.

    CacheCraft leans on the L2's replacement policy twice over — data
    *and* metadata live there, and low-priority insertion must mean
    something to the policy.  This sweep checks the design is not an
    LRU-only artifact.
    """
    data: Dict[str, Dict[str, float]] = {}
    for policy in policies:
        h = ExperimentHarness(config=bench_config(l2_policy=policy),
                              scale=scale)
        perf = h.normalized_performance(
            list(workloads), ("none", "metadata-cache", "cachecraft"))
        data[policy] = {
            "metadata-cache": perf["geomean"]["metadata-cache"],
            "cachecraft": perf["geomean"]["cachecraft"],
        }
    series = [
        ("metadata-cache", [data[p]["metadata-cache"] for p in policies]),
        ("cachecraft", [data[p]["cachecraft"] for p in policies]),
    ]
    text = format_series("L2 policy", list(policies), series,
                         title="F13: geomean perf vs L2 replacement policy")
    return ExperimentOutput("F13", "Replacement-policy sensitivity",
                            {"perf": data}, text)


def f11_decomposition(workloads: Sequence[str] = WORKLOADS,
                      scale: float = 0.3,
                      harness: Optional[ExperimentHarness] = None
                      ) -> ExperimentOutput:
    """F11: where the win comes from.

    Three designs separated by one idea each: ``metadata-cache``
    (per-sector code, dedicated SRAM), ``sector-l2`` (same code,
    metadata moved into the L2), ``cachecraft`` (granule code +
    contribution directory on top).  The deltas attribute the benefit.
    """
    h = harness or ExperimentHarness(scale=scale)
    schemes = ("metadata-cache", "sector-l2", "cachecraft")
    perf = h.normalized_performance(list(workloads), ("none",) + schemes)
    order = list(workloads) + ["geomean"]
    series = [(sc, [perf[wl][sc] for wl in order]) for sc in schemes]
    text = format_series("workload", order, series,
                         title="F11: attribution — metadata home vs "
                               "granule code + reconstruction")
    return ExperimentOutput("F11", "Win decomposition", {"perf": perf}, text)


#: Experiment registry for the CLI.
EXPERIMENTS = {
    "T1": t1_configuration,
    "T2": t2_workloads,
    "T3": t3_overheads,
    "T4": t4_energy,
    "T5": t5_reliability,
    "T6": t6_fit_projection,
    "F1": f1_performance,
    "F2": f2_traffic,
    "F3": f3_reconstruction,
    "F4": f4_l2_sweep,
    "F5": f5_granule_sweep,
    "F6": f6_metadata_capacity,
    "F7": f7_ablation,
    "F8": f8_divergence,
    "F9": f9_strength,
    "F11": f11_decomposition,
    "F12": f12_interkernel,
    "F13": f13_policies,
}
