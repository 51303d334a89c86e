"""The benchmark's workload grids, their untraced passes, and the
fingerprints that check their outputs.

A workload here is a grid of (trace workload x protection scheme)
cells on the bench machine (:func:`repro.analysis.harness.bench_config`).
One *round* of a workload times three things a user waits for:

* the set-up pass: trace materialisation, columnar compilation,
  ``GpuSystem`` construction and ``load_workload`` for every cell, with
  the per-process trace memos emptied first;
* the cold grid: the whole grid through a fresh ``ExperimentHarness``
  with an empty result cache and ledger, timed cell by cell (each
  cell's request wall time, and its ``RunResult.host_seconds``, the
  ``GpuSystem.run`` wall time);
* the warm grid: the same grid asked again of a new harness against
  the now-filled cache.

Each cold grid's cells are fingerprinted and checked against the
references in ``refs.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.harness import (ExperimentHarness, bench_config,
                                    bench_gen_ctx)
from repro.core.config import ALL_SCHEMES
from repro.core.results import MODEL_VERSION, RunResult
from repro.core.system import GpuSystem
from repro.workloads import make_workload
from repro.workloads.base import trace_cache_clear

from perfbench.hostspeed import reference_pass

#: The schemes the event workloads compare: no protection, the naive
#: inline code, and the paper's scheme.
EVENT_SCHEMES = ("none", "inline-sector", "cachecraft")

#: Warm requests per round; the fastest is the round's ``warm_s`` (one
#: warm grid of a serial workload takes only milliseconds).
WARM_REPEATS = 10

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

Cell = Tuple[str, str]


@dataclass(frozen=True)
class GridSpec:
    """One benchmark workload: a grid of cells and how it is run."""

    name: str
    fidelity: str
    workloads: Tuple[str, ...]
    schemes: Tuple[str, ...]
    scale: float

    @property
    def cells(self) -> List[Cell]:
        return [(wl, sc) for wl in self.workloads for sc in self.schemes]

    def digest(self) -> str:
        """Content address of what the grid simulates (not its name)."""
        body = {k: v for k, v in asdict(self).items() if k != "name"}
        blob = json.dumps(body, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:12]


#: The benchmark's workloads; BENCHMARK.json records why each is there.
#: Scales keep a round to a few seconds, so that a run holds several
#: (the generators' per-warp minimums set a floor under the event
#: grids' cost).  Every grid is requested serially: a two-worker grid
#: on a two-core host spread twice as much from run to run, so the
#: parallel executor is measured only in the traced run.
SPECS: Dict[str, GridSpec] = {spec.name: spec for spec in (
    GridSpec("event-gather", "event", ("bfs", "spmv", "pchase"),
             EVENT_SCHEMES, scale=0.01),
    GridSpec("event-scatter", "event", ("histogram", "radix"),
             EVENT_SCHEMES, scale=0.03),
    GridSpec("functional-sweep", "functional",
             ("vecadd", "gemm", "histogram", "radix", "spmv", "bfs",
              "pchase"), ALL_SCHEMES, scale=0.05),
)}


def cell_name(cell: Cell) -> str:
    return f"{cell[0]}/{cell[1]}"


# -- running grids -----------------------------------------------------------


class Store:
    """A private result cache and ledger, deleted on exit."""

    def __init__(self, workdir: Path):
        self.root = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
        self.cache_dir = self.root / "cache"
        self.ledger = self.root / "ledger.jsonl"

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def cache_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.cache_dir.rglob("*")
                   if p.is_file())


def new_harness(spec: GridSpec, seed: int, store: Store) -> ExperimentHarness:
    return ExperimentHarness(
        config=bench_config(), scale=spec.scale, seed=seed,
        fidelity=spec.fidelity, cache_dir=store.cache_dir,
        ledger=store.ledger, log=False, progress_dir=None)


@dataclass
class GridRun:
    """The cells of one grid request and what became of them."""

    results: Dict[Cell, RunResult] = field(default_factory=dict)
    #: cell -> why it failed (raised, tripped a guard, wrong output).
    failed: Dict[Cell, str] = field(default_factory=dict)
    #: cell -> wall time of its request (cells asked for one at a time).
    cell_wall_s: Dict[Cell, float] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def sim_s(self) -> float:
        return sum(r.host_seconds for r in self.results.values())

    @property
    def cell_sim_s(self) -> Dict[Cell, float]:
        return {cell: r.host_seconds for cell, r in self.results.items()}


def request_grid(spec: GridSpec, seed: int, store: Store,
                 workers: int = 1,
                 between_cells: Optional[Callable[[], object]] = None
                 ) -> GridRun:
    """Ask a fresh harness for the whole grid, timing the request.

    Serially the cells are asked for one at a time, in ``matrix``'s
    order (a serial ``matrix`` is that loop), so that each cell's wall
    time is known and each failure is pinned on its cell.  With
    ``workers`` the grid goes through ``matrix``; if that raises, the
    cells are asked for one at a time (the request's time is then
    meaningless, but the cells that fail are failed anyway).
    ``between_cells`` is called after each cell asked for one at a
    time, outside the cell's time.
    """
    harness = new_harness(spec, seed, store)
    run = GridRun()
    started = time.perf_counter()
    if workers > 1:
        try:
            grid = harness.matrix(spec.workloads, spec.schemes,
                                  workers=workers)
            run.results = {cell: grid[cell[0]][cell[1]]
                           for cell in spec.cells}
        except Exception:  # noqa: BLE001 - attributed per cell below
            pass
    for cell in spec.cells:
        if cell in run.results:
            continue
        cell_started = time.perf_counter()
        try:
            run.results[cell] = harness.run(*cell)
        except Exception as exc:  # noqa: BLE001 - a failed cell is data
            run.failed[cell] = f"{type(exc).__name__}: {exc}"
        run.cell_wall_s[cell] = time.perf_counter() - cell_started
        if between_cells is not None:
            between_cells()
    run.wall_s = time.perf_counter() - started
    return run


def setup_seconds(spec: GridSpec, seed: int) -> float:
    """Set-up time of every cell, from empty per-process memos."""
    trace_cache_clear()
    total = 0.0
    for wl in spec.workloads:
        workload = make_workload(wl)
        for scheme in spec.schemes:
            cfg = bench_config().with_scheme(scheme) \
                .with_fidelity(spec.fidelity)
            gen_ctx = bench_gen_ctx(cfg, scale=spec.scale, seed=seed)
            started = time.perf_counter()
            GpuSystem(cfg).load_workload(workload, gen_ctx)
            total += time.perf_counter() - started
    return total


@dataclass
class Round:
    setup_s: float
    #: cell -> ``RunResult.host_seconds`` in the cold grid.
    cell_sim_s: Dict[Cell, float]
    #: cell -> wall time of its request in the cold grid.
    cell_cold_s: Dict[Cell, float]
    warm_s: float
    #: times of the round's host-speed reference passes.
    reference_s: List[float]
    attempted: int
    failed: Dict[Cell, str]


def measure_round(spec: GridSpec, seed: int, refs: "References",
                  workdir: Path) -> Round:
    """One untraced round: set-up pass, cold grid, warm grids.  A
    host-speed reference pass follows each cold cell, so that the
    reference sees the host at the moments the cells do."""
    setup = setup_seconds(spec, seed)
    reference: List[float] = []
    with Store(workdir) as store:
        trace_cache_clear()
        cold = request_grid(spec, seed, store, between_cells=lambda:
                            reference.append(reference_pass()))
        failed = dict(cold.failed)
        failed.update(refs.check(spec, seed, cold.results))
        warm = min(request_grid(spec, seed, store).wall_s
                   for _ in range(WARM_REPEATS))
    return Round(setup_s=setup, cell_sim_s=cold.cell_sim_s,
                 cell_cold_s=cold.cell_wall_s, warm_s=warm,
                 reference_s=reference, attempted=len(spec.cells),
                 failed=failed)


# -- output fingerprints -----------------------------------------------------


def fingerprint(result: RunResult) -> str:
    """Digest of a cell's outputs: traffic by kind, cycles (0 on the
    functional tier) and the flattened stat tree."""
    payload = {"traffic": result.traffic, "cycles": result.cycles,
               "stats": result.stats}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class References:
    """Reference fingerprints, keyed by ``MODEL_VERSION``, grid content
    and seed.

    A cell with no reference under the current ``MODEL_VERSION`` is
    recorded (so a version bump re-records); a cell whose reference
    differs has drifted and fails.  The model is unvalidated against
    the paper, so the references check for drift only.
    """

    def __init__(self, path: Path = REFS_PATH):
        self.path = Path(path)
        try:
            self.data = json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.data = {}

    def check(self, spec: GridSpec, seed: int,
              results: Dict[Cell, RunResult]) -> Dict[Cell, str]:
        """Cells whose fingerprint differs from the reference."""
        refs = (self.data.setdefault(MODEL_VERSION, {})
                .setdefault(f"{spec.name}@{spec.digest()}", {})
                .setdefault(str(seed), {}))
        drifted: Dict[Cell, str] = {}
        recorded = False
        for cell, result in results.items():
            name = cell_name(cell)
            fp = fingerprint(result)
            if name not in refs:
                refs[name] = fp
                recorded = True
            elif refs[name] != fp:
                drifted[cell] = (f"fingerprint {fp} != reference "
                                 f"{refs[name]} (MODEL_VERSION "
                                 f"{MODEL_VERSION})")
        if recorded:
            self.save()
        return drifted

    def save(self) -> None:
        tmp = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True)
                       + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
