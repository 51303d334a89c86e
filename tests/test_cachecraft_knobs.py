"""CacheCraft's knob branches, pinned cell by cell.

The benchmark grids and ``BASELINE.json`` run CacheCraft with its
default knobs only, so the branches each ablation, speculative use, a
non-linear code and a granule other than the line take are otherwise
unchecked.  Every cell below runs a small machine on both tiers and
compares its fingerprint (traffic, cycles and the whole stat tree)
with the one recorded for the current ``MODEL_VERSION``.  Re-record
:data:`FINGERPRINTS` only together with a ``MODEL_VERSION`` bump.
"""

import hashlib
import json

import pytest

from repro.analysis.experiments import ABLATIONS
from repro.analysis.harness import bench_config, bench_gen_ctx
from repro.core.results import MODEL_VERSION
from repro.core.system import run_workload
from repro.workloads import make_workload

#: ``(label, protection overrides, machine overrides)``: F7's ablations
#: plus the branches no ablation reaches.
VARIANTS = ABLATIONS + (
    ("speculative", {"speculative_use": True}, {}),
    ("mac64", {"code_name": "mac64"}, {}),
    ("granule=64", {"granule_bytes": 64}, {}),
    ("granule=256", {"granule_bytes": 256}, {}),
)
WORKLOADS = ("bfs", "histogram")
FIDELITIES = ("event", "functional")

#: The machine and trace size of every cell: two SMs of four warps.
MACHINE = dict(num_sms=2, warps_per_sm=4)
SCALE = 0.02
SEED = 42

#: The ``MODEL_VERSION`` the table below was recorded at.
RECORDED_AT = "7"


def cell_fingerprint(label: str, workload: str, fidelity: str) -> str:
    """Run one cell and digest its traffic, cycles and stats."""
    overrides, gpu_overrides = next(
        (prot, gpu) for name, prot, gpu in VARIANTS if name == label)
    config = bench_config(**MACHINE, **gpu_overrides) \
        .with_scheme("cachecraft", **overrides).with_fidelity(fidelity)
    result = run_workload(make_workload(workload), config,
                          gen_ctx=bench_gen_ctx(config, scale=SCALE,
                                                seed=SEED))
    payload = {"traffic": result.traffic, "cycles": result.cycles,
               "stats": result.stats}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


FINGERPRINTS = {
    ("full", "bfs", "event"): "d87cd259a5fe508b",
    ("full", "bfs", "functional"): "f1baf410d6751560",
    ("full", "histogram", "event"): "f505b44bac097fdd",
    ("full", "histogram", "functional"): "64861f74a215a22d",
    ("-directory", "bfs", "event"): "fbd4a28fcadaf859",
    ("-directory", "bfs", "functional"): "16d0d2666c53ecd2",
    ("-directory", "histogram", "event"): "5af377847a92de0f",
    ("-directory", "histogram", "functional"): "bb7897ea3ebe1604",
    ("-reconstruction", "bfs", "event"): "fbd4a28fcadaf859",
    ("-reconstruction", "bfs", "functional"): "16d0d2666c53ecd2",
    ("-reconstruction", "histogram", "event"): "5af377847a92de0f",
    ("-reconstruction", "histogram", "functional"): "bb7897ea3ebe1604",
    ("-adaptive", "bfs", "event"): "d87cd259a5fe508b",
    ("-adaptive", "bfs", "functional"): "f1baf410d6751560",
    ("-adaptive", "histogram", "event"): "f505b44bac097fdd",
    ("-adaptive", "histogram", "functional"): "64861f74a215a22d",
    ("-meta_in_l2", "bfs", "event"): "f39485180a5e0bc0",
    ("-meta_in_l2", "bfs", "functional"): "a4ffc480cf026c67",
    ("-meta_in_l2", "histogram", "event"): "a828168855b3499f",
    ("-meta_in_l2", "histogram", "functional"): "05da90f517bfed90",
    ("-verified_bits", "bfs", "event"): "d87cd259a5fe508b",
    ("-verified_bits", "bfs", "functional"): "f1baf410d6751560",
    ("-verified_bits", "histogram", "event"): "f505b44bac097fdd",
    ("-verified_bits", "histogram", "functional"): "64861f74a215a22d",
    ("craft=8", "bfs", "event"): "7af75f8cb783ccdc",
    ("craft=8", "bfs", "functional"): "651134bfc0360abd",
    ("craft=8", "histogram", "event"): "42590a9cf2a2a3cf",
    ("craft=8", "histogram", "functional"): "ee4ba9998c8db86a",
    ("+way-partition", "bfs", "event"): "447878122c7ac3c8",
    ("+way-partition", "bfs", "functional"): "f1baf410d6751560",
    ("+way-partition", "histogram", "event"): "f505b44bac097fdd",
    ("+way-partition", "histogram", "functional"): "64861f74a215a22d",
    ("speculative", "bfs", "event"): "17b386aa24997d92",
    ("speculative", "bfs", "functional"): "cfa9211e6fef0393",
    ("speculative", "histogram", "event"): "4da25cf994125dbf",
    ("speculative", "histogram", "functional"): "101968451bc5628a",
    ("mac64", "bfs", "event"): "e48478b0e3099d38",
    ("mac64", "bfs", "functional"): "dbef4390d573658a",
    ("mac64", "histogram", "event"): "15febadc15ff9b55",
    ("mac64", "histogram", "functional"): "98eef90dc318ea16",
    ("granule=64", "bfs", "event"): "7cafdd8249787d9a",
    ("granule=64", "bfs", "functional"): "41ac8e1652251e69",
    ("granule=64", "histogram", "event"): "99c54d33c8632ad5",
    ("granule=64", "histogram", "functional"): "1f1a388e346ba94f",
    ("granule=256", "bfs", "event"): "b71d2c5b0965d159",
    ("granule=256", "bfs", "functional"): "783ccbf5d6c17622",
    ("granule=256", "histogram", "event"): "bb1ea19c680e2a50",
    ("granule=256", "histogram", "functional"): "5d6dbf7cdeaafdab",
}


def test_table_matches_model_version():
    assert MODEL_VERSION == RECORDED_AT, (
        "MODEL_VERSION changed: re-record FINGERPRINTS with "
        "cell_fingerprint for every cell")
    assert sorted(FINGERPRINTS) == sorted(
        (label, wl, fid) for label, _p, _g in VARIANTS
        for wl in WORKLOADS for fid in FIDELITIES)


@pytest.mark.parametrize("cell", sorted(FINGERPRINTS), ids="/".join)
def test_knob_cell_is_bit_identical(cell):
    assert cell_fingerprint(*cell) == FINGERPRINTS[cell]
