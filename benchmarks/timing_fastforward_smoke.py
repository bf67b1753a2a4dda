"""Fast-forward/batched-path identity smoke: optimized vs ticked per-lane.

Runs the port-limited retry-wall scenarios (and one L2/L3 hierarchy
point) twice each — once on the default SIMX driver (batched per-bank
requests + event-driven cycle fast-forward) and once with both
optimizations disabled (``simx:fastforward=off,requests=perlane``, the
pre-optimization ticked path) — diffs **every** cycle/instruction/perf
counter, writes the payload as JSON, and exits non-zero on any mismatch.
CI consumes the payload with
``benchmarks/check_regression.py --require-identical``.

Run with::

    PYTHONPATH=src python benchmarks/timing_fastforward_smoke.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.engine.session import KernelJob, diff_execution_reports, execute_job

#: The ticked per-lane request path the optimizations must reproduce exactly.
BASELINE_DRIVER = "simx:fastforward=off,requests=perlane"


def _port_limited(warps: int, threads: int) -> VortexConfig:
    return VortexConfig(
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
        memory=MemoryConfig(latency=400, bandwidth=4),
    ).with_warps_threads(warps, threads)


def _store_storm(warps: int, threads: int) -> VortexConfig:
    """1-port D$ in front of an 800-cycle DRAM: stores back up behind the full
    DRAM queue, so whole store tails are refused every cycle."""
    return VortexConfig(
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
        memory=MemoryConfig(latency=800),
    ).with_warps_threads(warps, threads)


def _wide_ported(warps: int, threads: int, num_cores: int = 1) -> VortexConfig:
    """8-port 64 KiB D$: multi-lane hit and MSHR-merge runs, cut off by the
    free ports and the per-cycle thread budget.  With more cores they share
    an L2, whose full DRAM queue refuses whole store batches in bulk."""
    return VortexConfig(
        num_cores=num_cores,
        enable_l2=num_cores > 1,
        dcache=CacheConfig(size=64 * 1024, num_banks=8, num_ports=8),
        memory=MemoryConfig(latency=10),
    ).with_warps_threads(warps, threads)


def smoke_scenarios() -> list:
    """(name, kernel, size, config) rows covering the fast-forward surface."""
    return [
        ("sgemm_1p32t", "sgemm", 12 * 12, _port_limited(8, 32)),
        ("sfilter_1p32t", "sfilter", 12 * 12, _port_limited(8, 32)),
        (
            "sgemm_1p32t_l2l3",
            "sgemm",
            8 * 8,
            _port_limited(4, 32).with_cache_hierarchy(enable_l2=True, enable_l3=True),
        ),
        ("vecadd_1p32t_dram800", "vecadd", 256, _store_storm(8, 32)),
        ("sgemm_8p32t_64k", "sgemm", 16 * 16, _wide_ported(4, 32)),
        ("sgemm_4c_l2_8p32t", "sgemm", 16 * 16, _wide_ported(4, 32, num_cores=4)),
    ]


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=root / "BENCH_timing_fastforward.json")
    args = parser.parse_args(argv)

    results = []
    for name, kernel, size, config in smoke_scenarios():
        baseline = execute_job(
            KernelJob(kernel=kernel, size=size, config=config, driver=BASELINE_DRIVER)
        )
        optimized = execute_job(KernelJob(kernel=kernel, size=size, config=config))
        errors = [job.error for job in (baseline, optimized) if job.error]
        mismatches = (
            diff_execution_reports(baseline.report, optimized.report) if not errors else []
        )
        row = {
            "scenario": name,
            "kernel": kernel,
            "size": size,
            "baseline_driver": BASELINE_DRIVER,
            "cycles": optimized.report.cycles if optimized.report else None,
            "baseline_seconds": round(baseline.wall_seconds, 4),
            "optimized_seconds": round(optimized.wall_seconds, 4),
            "identical_counters": not errors and not mismatches,
            "mismatches": mismatches,
            "errors": errors,
        }
        results.append(row)
        status = "identical" if row["identical_counters"] else "MISMATCH"
        print(
            f"  {name:20s} cycles={row['cycles']} "
            f"perlane={row['baseline_seconds']:.3f}s "
            f"batched+ff={row['optimized_seconds']:.3f}s {status}"
        )
        for mismatch in mismatches:
            print(f"    - {mismatch}")

    payload = {
        "benchmark": "SIMX fast-forward + batched request path counter identity",
        "generated_by": "benchmarks/timing_fastforward_smoke.py",
        "identical_counters": all(row["identical_counters"] for row in results),
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    if not payload["identical_counters"]:
        print("fast-forward smoke FAILED: paths diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
