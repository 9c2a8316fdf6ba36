"""The repository benchmark: four workloads, an exact output gate and a
traced per-layer breakdown.  Run it with ``python3 perfbench/run.py``;
``perfbench/README.md`` explains the workloads and metrics."""
