"""Checkpoint/restore smoke benchmark: replay identity and sampling.

Two measurements, one payload (``BENCH_checkpoint.json``), every row
carrying an ``identical_counters`` flag that CI gates with
``benchmarks/check_regression.py --require-identical``:

* **restore_replay** — run-to-midpoint → checkpoint → pickle round-trip →
  restore into a fresh device → finish, diffed counter-by-counter against
  a straight-through run on both drivers.
* **sampled** — the funcsim→SIMX :class:`~repro.runtime.sampling.SampledRun`
  executed twice (interval counters must be deterministic) and compared to
  a full cycle-level run for wall-clock and cycle-estimate context.

Run with::

    PYTHONPATH=src python benchmarks/checkpoint_smoke.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.common.config import CacheConfig, CoreConfig, MemoryConfig, VortexConfig
from repro.engine.session import KernelJob, diff_execution_reports, execute_job
from repro.runtime.sampling import SampledRun

CONFIG = VortexConfig(
    num_cores=1,
    core=CoreConfig(num_warps=4, num_threads=4),
    dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
    memory=MemoryConfig(latency=100, bandwidth=1),
)

#: (kernel, size) points for the restore-replay identity rows.
REPLAY_POINTS = (("vecadd", 256), ("sgemm", 8 * 8), ("sfilter", 8 * 8))


def measure_restore_replay(kernel: str, size: int, driver: str) -> dict:
    """Midpoint checkpoint/restore versus straight-through, fully diffed."""
    job = KernelJob(kernel=kernel, config=CONFIG, driver=driver, size=size)
    straight = execute_job(job)
    restarted = execute_job(replace(job, restart_midpoint=True))
    mismatches: list[str] = []
    if straight.report is not None and restarted.report is not None:
        mismatches = diff_execution_reports(straight.report, restarted.report)
    identical = straight.ok and restarted.ok and not mismatches
    return {
        "scenario": f"restore_replay_{kernel}_{driver}",
        "cycles": getattr(straight.report, "cycles", None),
        "instructions": getattr(straight.report, "instructions", None),
        "identical_counters": identical,
        "mismatches": mismatches,
        "errors": [e for e in (straight.error, restarted.error) if e],
    }


def measure_sampled(kernel: str = "sgemm", size: int = 8 * 8) -> dict:
    """Sampled-simulation determinism plus wall-clock versus full SIMX."""
    kwargs = dict(sample_period=400, interval_cycles=800)
    first = SampledRun(kernel, CONFIG, size, **kwargs).run()
    second = SampledRun(kernel, CONFIG, size, **kwargs).run()
    deterministic = first.passed and second.passed and len(first.intervals) == len(
        second.intervals
    )
    if deterministic:
        for a, b in zip(first.intervals, second.intervals):
            if (
                (a.cycles, a.instructions, a.thread_instructions) != (b.cycles, b.instructions, b.thread_instructions)
                or a.counters != b.counters
            ):
                deterministic = False
                break

    start = time.perf_counter()
    full = execute_job(KernelJob(kernel=kernel, config=CONFIG, driver="simx", size=size))
    full_seconds = time.perf_counter() - start
    return {
        "scenario": f"sampled_{kernel}",
        "identical_counters": deterministic,
        "sampled_wall_seconds": first.wall_seconds,
        "full_simx_wall_seconds": full_seconds,
        "speedup": full_seconds / first.wall_seconds if first.wall_seconds else None,
        "intervals": len(first.intervals),
        "sampled_instructions": first.sampled_instructions,
        "total_instructions": first.total_instructions,
        "estimated_cycles": first.estimated_cycles,
        "actual_cycles": getattr(full.report, "cycles", None),
        "errors": [full.error] if full.error else [],
    }


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=root / "BENCH_checkpoint.json")
    args = parser.parse_args(argv)

    rows = []
    for kernel, size in REPLAY_POINTS:
        for driver in ("simx", "funcsim"):
            rows.append(measure_restore_replay(kernel, size, driver))
    rows.append(measure_sampled())

    identical = all(row["identical_counters"] for row in rows)
    payload = {
        "benchmark": "checkpoint/restore: replay identity, sampled simulation",
        "generated_by": "benchmarks/checkpoint_smoke.py",
        "identical_counters": identical,
        "results": rows,
    }
    for row in rows:
        status = "identical" if row["identical_counters"] else "MISMATCH"
        print(f"  {row['scenario']:32s} {status}")
        for mismatch in row.get("mismatches", []):
            print(f"    - {mismatch}")

    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    if not identical:
        print("checkpoint smoke FAILED: restore path diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
