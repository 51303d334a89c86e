"""Regression sentinel over the run ledger.

Compares the latest ledger records (:mod:`repro.obs.ledger`) against a
committed baseline (``benchmarks/results/BASELINE.json``) with
per-metric tolerance bands and a direction per metric:

* **perf metrics** (``cycles``, ``*_events_per_sec``, hit rates) get a
  *relative* band — a model refactor may legitimately move them a
  little, and host-throughput figures are noisy across machines — but
  a move past the band *in the bad direction* is a breach (a move past
  it in the good direction is reported as ``improved``, never fails);
* **conserved-traffic invariants** (``total_dram_bytes``,
  ``demand_bytes``, ``overhead_bytes``) are *exact* — the simulation
  is deterministic, so any drift at all means behavior changed;
* a **model-version mismatch** between baseline and records is itself
  a breach: the stored numbers describe a different model, so the
  baseline must be re-seeded (``repro obs baseline``) rather than
  silently compared.

The report renders as a readable delta table; :func:`check` returns a
:class:`RegressionReport` whose :attr:`~RegressionReport.ok` drives
the CLI's exit status.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: Baseline file format version.
BASELINE_FORMAT = 1

#: metric -> (direction, default relative tolerance).
#: direction: "lower" = lower is better (regression when it rises),
#: "higher" = higher is better, "exact" = any difference is a breach.
DEFAULT_TOLERANCES: Dict[str, Tuple[str, float]] = {
    "cycles": ("lower", 0.05),
    "total_dram_bytes": ("exact", 0.0),
    "demand_bytes": ("exact", 0.0),
    "overhead_bytes": ("exact", 0.0),
    "l1_hit_rate": ("higher", 0.05),
    "l2_hit_rate": ("higher", 0.05),
    # Memory-hierarchy introspection metrics (docs/OBSERVABILITY.md
    # "Memory-hierarchy introspection").  Row locality and efficacy are
    # deterministic model outputs; small bands absorb legitimate
    # scheduling refactors without letting real locality loss through.
    "row_hit_rate": ("higher", 0.05),
    "reconstruction_efficacy": ("higher", 0.05),
    "mdc_colocation_frac": ("higher", 0.10),
    # Trace-level predictions are pure functions of the workload trace;
    # a shift means trace generation itself changed.
    "line_reuse_p50": ("lower", 0.10),
    "mdcache_reuse_p50": ("lower", 0.10),
    "meta_colocation": ("higher", 0.05),
    "predicted_efficacy": ("higher", 0.05),
    # Host-throughput figures swing wildly across runners; the default
    # band only catches collapse, not jitter.
    "raw_events_per_sec": ("higher", 0.75),
    "sim_events_per_sec": ("higher", 0.75),
    "functional_events_per_sec": ("higher", 0.75),
}

#: Metrics excluded from seeded baselines because they measure the
#: host, not the model (bench records carry the host figures instead).
_HOST_ONLY_METRICS = ("events", "events_per_sec", "host_seconds")


def metric_spec(name: str,
                tolerances: Optional[Dict[str, float]] = None
                ) -> Tuple[str, float]:
    """(direction, relative tolerance) for a metric, with overrides."""
    direction, tol = DEFAULT_TOLERANCES.get(name, ("lower", 0.05))
    if tolerances and name in tolerances:
        tol = float(tolerances[name])
    return direction, tol


@dataclass
class Delta:
    """One metric comparison in the delta table."""

    scope: str            # "workload/scheme" cell id, or "bench"
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    status: str           # ok | improved | regressed | missing | stale

    @property
    def change(self) -> Optional[float]:
        """Relative change vs baseline (None when undefined)."""
        if self.baseline in (None, 0) or self.current is None:
            return None
        return self.current / self.baseline - 1.0

    @property
    def breach(self) -> bool:
        return self.status in ("regressed", "missing", "stale")


@dataclass
class RegressionReport:
    """Outcome of one :func:`check` invocation."""

    rows: List[Delta] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def breaches(self) -> List[Delta]:
        return [row for row in self.rows if row.breach]

    @property
    def ok(self) -> bool:
        return not self.breaches

    def render(self) -> str:
        """The human-readable delta table plus verdict line."""
        from repro.analysis.tables import format_table

        def fmt(value: Optional[float]) -> object:
            if value is None:
                return None
            if float(value).is_integer():
                return f"{int(value):,}"
            return round(float(value), 4)

        table = []
        for row in self.rows:
            change = row.change
            table.append([
                row.scope, row.metric, fmt(row.baseline), fmt(row.current),
                f"{change:+.2%}" if change is not None else "-",
                row.status.upper() if row.breach else row.status,
            ])
        parts = [format_table(
            ["scope", "metric", "baseline", "current", "delta", "status"],
            table, title="regression check")]
        parts.extend(f"note: {note}" for note in self.notes)
        breaches = self.breaches
        parts.append("REGRESSION: "
                     f"{len(breaches)} breached metric(s)" if breaches
                     else "ok: all metrics within tolerance")
        return "\n".join(parts)


# -- baseline files -----------------------------------------------------------


def default_baseline_path() -> Path:
    """The committed baseline next to the benchmark results."""
    return (Path(__file__).resolve().parents[3]
            / "benchmarks" / "results" / "BASELINE.json")


def load_baseline(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Load and structurally validate a baseline JSON file."""
    with Path(path).open() as fh:
        baseline = json.load(fh)
    if not isinstance(baseline, dict) or "cells" not in baseline:
        raise ValueError(f"{path} is not a baseline file (no 'cells')")
    return baseline


def save_baseline(baseline: Dict[str, Any],
                  path: Union[str, os.PathLike]) -> None:
    """Write a baseline as stable, reviewable (sorted, indented) JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _latest_cells(records: Sequence[Dict[str, Any]]
                  ) -> Dict[str, Dict[str, Any]]:
    """cell id -> most recent run record (file order = time order)."""
    latest: Dict[str, Dict[str, Any]] = {}
    for rec in records:
        if rec.get("kind") == "run" and rec.get("cell"):
            latest[rec["cell"]] = rec
    return latest


def _latest_bench(records: Sequence[Dict[str, Any]]
                  ) -> Optional[Dict[str, Any]]:
    bench = None
    for rec in records:
        if rec.get("kind") == "bench":
            bench = rec
    return bench


def make_baseline(records: Sequence[Dict[str, Any]],
                  tolerances: Optional[Dict[str, float]] = None
                  ) -> Dict[str, Any]:
    """Seed a baseline from the latest ledger record per cell.

    Per-cell metrics keep only the model-determined figures
    (host-noise metrics are excluded); the latest bench record seeds
    the host-throughput section with its own generous bands.
    """
    from repro.core.results import MODEL_VERSION
    from repro.obs.ledger import git_sha

    cells: Dict[str, Any] = {}
    for cell, rec in sorted(_latest_cells(records).items()):
        metrics = {k: v for k, v in (rec.get("metrics") or {}).items()
                   if k not in _HOST_ONLY_METRICS}
        if not metrics:
            continue
        cells[cell] = {
            "workload": rec.get("workload"),
            "scheme": rec.get("scheme"),
            "fidelity": rec.get("fidelity", "event"),
            "scale": rec.get("scale"),
            "seed": rec.get("seed"),
            "metrics": metrics,
        }
    baseline: Dict[str, Any] = {
        "format": BASELINE_FORMAT,
        "model_version": MODEL_VERSION,
        "git_sha": git_sha(),
        "cells": cells,
    }
    bench = _latest_bench(records)
    if bench is not None:
        baseline["bench"] = {
            k: v for k, v in (bench.get("metrics") or {}).items()
            if k in DEFAULT_TOLERANCES
        }
    if tolerances:
        baseline["tolerances"] = dict(tolerances)
    return baseline


# -- the check ----------------------------------------------------------------


def _match(cell_spec: Dict[str, Any], rec: Dict[str, Any]) -> bool:
    """Does a ledger record describe the same cell as a baseline entry?"""
    for key in ("workload", "scheme", "scale", "seed"):
        want = cell_spec.get(key)
        if want is not None and rec.get(key) != want:
            return False
    # Fidelity tiers are distinct cells; baselines predating the knob
    # (and records written before it) both mean event mode.
    return (rec.get("fidelity", "event")
            == cell_spec.get("fidelity", "event"))


def _compare(scope: str, metric: str, base: float, current: Optional[float],
             tolerances: Optional[Dict[str, float]]) -> Delta:
    if current is None:
        return Delta(scope, metric, base, None, "missing")
    direction, tol = metric_spec(metric, tolerances)
    base_f, cur_f = float(base), float(current)
    if direction == "exact":
        status = "ok" if cur_f == base_f else "regressed"
        return Delta(scope, metric, base_f, cur_f, status)
    lo, hi = base_f * (1.0 - tol), base_f * (1.0 + tol)
    if direction == "lower":          # lower is better
        status = ("regressed" if cur_f > hi
                  else "improved" if cur_f < lo else "ok")
    else:                             # higher is better
        status = ("regressed" if cur_f < lo
                  else "improved" if cur_f > hi else "ok")
    return Delta(scope, metric, base_f, cur_f, status)


def check(records: Sequence[Dict[str, Any]], baseline: Dict[str, Any],
          tolerances: Optional[Dict[str, float]] = None,
          ignore_model_version: bool = False,
          log=None) -> RegressionReport:
    """Compare the latest ledger records against a baseline.

    ``tolerances`` (``{metric: rel_tol}``) overrides both the
    defaults and the bands stored in the baseline file.  A baseline
    cell with no matching ledger record breaches as ``missing``.
    ``log`` (a :mod:`repro.obs.structlog` logger) narrates the check:
    one ``regress.breach`` event per breached metric plus a final
    ``regress.done`` verdict.
    """
    from repro.obs.structlog import NULL_LOG

    log = log if log is not None else NULL_LOG
    report = _check(records, baseline, tolerances, ignore_model_version)
    for row in report.breaches:
        log.warn("regress.breach", scope=row.scope, metric=row.metric,
                 baseline=row.baseline, current=row.current,
                 status=row.status)
    log.info("regress.done", ok=report.ok, rows=len(report.rows),
             breaches=len(report.breaches))
    return report


def _check(records: Sequence[Dict[str, Any]], baseline: Dict[str, Any],
           tolerances: Optional[Dict[str, float]],
           ignore_model_version: bool) -> RegressionReport:
    report = RegressionReport()
    merged: Dict[str, float] = dict(baseline.get("tolerances") or {})
    if tolerances:
        merged.update(tolerances)

    from repro.core.results import MODEL_VERSION

    base_model = baseline.get("model_version")
    if base_model is not None and base_model != MODEL_VERSION:
        if ignore_model_version:
            report.notes.append(
                f"baseline model v{base_model} != current v{MODEL_VERSION} "
                "(ignored)")
        else:
            report.rows.append(
                Delta("baseline", "model_version", None, None, "stale"))
            report.notes.append(
                f"baseline was seeded for model v{base_model} but the "
                f"current model is v{MODEL_VERSION}; re-seed with "
                "`repro obs baseline`")
            return report

    # Per-cell model metrics: match the newest record for each cell.
    run_records = [r for r in records if r.get("kind") == "run"]
    for cell, spec in sorted((baseline.get("cells") or {}).items()):
        rec = None
        for candidate in run_records:
            if _match(spec, candidate):
                rec = candidate
        metrics = rec.get("metrics", {}) if rec is not None else {}
        for metric, base_value in sorted(spec.get("metrics", {}).items()):
            report.rows.append(_compare(cell, metric, base_value,
                                        metrics.get(metric), merged))
        if rec is None:
            report.notes.append(
                f"no ledger record matches baseline cell {cell} "
                f"(scale={spec.get('scale')}, seed={spec.get('seed')})")

    # Host-throughput bench metrics: newest bench record wins.
    bench_spec = baseline.get("bench") or {}
    if bench_spec:
        bench = _latest_bench(records)
        bench_metrics = bench.get("metrics", {}) if bench else {}
        for metric, base_value in sorted(bench_spec.items()):
            report.rows.append(_compare("bench", metric, base_value,
                                        bench_metrics.get(metric), merged))
        if bench is None:
            report.notes.append("no bench record in the ledger "
                                "(run benchmarks/bench_engine.py)")
    return report


def diff_records(rec_a: Dict[str, Any], rec_b: Dict[str, Any]
                 ) -> List[List[object]]:
    """Metric-by-metric rows comparing two ledger records (for
    ``repro obs diff``): [metric, a, b, delta]."""
    metrics_a = rec_a.get("metrics") or {}
    metrics_b = rec_b.get("metrics") or {}
    rows: List[List[object]] = []
    for metric in sorted(set(metrics_a) | set(metrics_b)):
        a, b = metrics_a.get(metric), metrics_b.get(metric)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)) and a:
            delta = f"{b / a - 1.0:+.2%}"
        else:
            delta = "-"
        rows.append([metric, a, b, delta])
    return rows
