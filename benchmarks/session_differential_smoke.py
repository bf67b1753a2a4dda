"""Session-level differential smoke: a small grid on both timing engines.

Runs a 5-job ``Session.run_differential`` grid — the paper's baseline
geometry, a multi-port cache point, a greedy-then-oldest scheduler point,
and the L2/L2+L3 hierarchy axis (multi-level fills under the fast-forward
path) — diffs **every** performance counter between the scalar and
vectorized timing engines, writes the report payload as JSON, and exits
non-zero on any mismatch.  CI consumes the payload with
``benchmarks/check_regression.py --require-identical``.

Each grid point also runs a third, checkpoint/restore leg
(``checkpoint_legs=True``): the vector run re-executed via run-to-midpoint
→ checkpoint → restore-into-a-fresh-device → finish, diffed against the
straight-through vector run.  A serializer that silently drops state in
any layer (MSHRs, scoreboard, in-flight memory ops, barrier tables...)
surfaces here as a counter mismatch.

Run with::

    PYTHONPATH=src python benchmarks/session_differential_smoke.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.engine.session import KernelJob, Session


def smoke_jobs() -> list:
    """The 5-job differential grid."""
    base = VortexConfig(
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
        memory=MemoryConfig(latency=100, bandwidth=1),
    )
    return [
        KernelJob(kernel="sgemm", config=base, size=8 * 8, label="sgemm_baseline"),
        KernelJob(
            kernel="sfilter",
            config=base.with_dcache_ports(2),
            size=8 * 8,
            label="sfilter_2port",
        ),
        KernelJob(
            kernel="vecadd",
            config=base.with_scheduler_policy("greedy-then-oldest"),
            size=128,
            label="vecadd_gto_policy",
        ),
        KernelJob(
            kernel="sgemm",
            config=base.with_cache_hierarchy(enable_l2=True),
            size=8 * 8,
            label="sgemm_l2",
        ),
        KernelJob(
            kernel="sfilter",
            config=base.with_cache_hierarchy(enable_l2=True, enable_l3=True),
            size=8 * 8,
            label="sfilter_l2l3",
        ),
    ]


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=root / "BENCH_session_differential.json")
    parser.add_argument(
        "--executor",
        default="service",
        choices=("serial", "service"),
        help="session executor for the sweep (default: service)",
    )
    args = parser.parse_args(argv)

    with Session(executor=args.executor) as session:
        report = session.run_differential(smoke_jobs(), checkpoint_legs=True)
    print(report.summary())
    for result in report.results:
        status = "identical" if result.identical_counters else "MISMATCH"
        cycles = result.vector.report.cycles if result.vector.report else "-"
        print(f"  {result.describe():24s} cycles={cycles} {status}")
        for mismatch in result.mismatches:
            print(f"    - {mismatch}")

    args.out.write_text(json.dumps(report.to_payload(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    if not report.identical_counters:
        print("differential smoke FAILED: engines diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
