"""The repository benchmark: workload grids timed end to end, plus a
traced run that splits the host time by model layer.

Entry point: ``python3 perfbench/run.py --workload NAME``; see
``BENCHMARK.json`` at the repository root for the workloads and the
metrics' bounds.
"""
