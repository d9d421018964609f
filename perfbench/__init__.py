"""End-to-end and per-layer benchmark for brierlab; run it with ``python3 perfbench/run.py``."""

WORKLOADS = ("study-serial", "study-parallel", "report", "library")
