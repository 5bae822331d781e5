"""End-to-end benchmark of the repro library: four workloads through the
public entry points, plus a per-layer replay.  Run ``python3 perfbench/run.py
--help`` from the repository root."""
