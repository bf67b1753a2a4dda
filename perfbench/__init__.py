"""Absolute-rate benchmark of the Vortex reproduction with per-layer host-time spans.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/METRICS.md`` for the workloads and metrics.
"""
