"""Differential design-space sweep: every counter, both timing engines.

The Fig 14/19/20 differential tests used to pin a handful of fixed design
points; ``Session.run_differential`` turns that check into a reusable
sweep.  This example builds a grid across the Table 3 core design points,
two data-cache port counts and every wavefront-scheduler policy, runs each
job on **both** SIMX execution engines (the per-thread scalar reference and
the vectorized whole-warp lane plans), and diffs cycles, instruction counts
and every per-component performance counter.

Anything but a fully identical report is a bug in the vectorized engine —
the timing model (scheduler, scoreboard, latencies, caches, MSHRs) is
shared, so the engines must agree bit for bit on every configuration.

The sweep is served through the simulation service
(``Session(executor="service")``): the grid fans out across the service's
worker fleet, and because every job is content-addressed, *re*-running the
sweep is answered from the result cache — the second pass below executes
nothing and returns bit-identical reports.

Run with::

    PYTHONPATH=src python examples/differential_sweep.py
"""

from __future__ import annotations

from repro import KernelJob, Session, VortexConfig
from repro.common.config import CORE_DESIGN_POINTS, SCHEDULER_POLICIES, MemoryConfig
from repro.service import ServiceConfig


def build_jobs() -> list:
    """The differential grid: design points x ports x scheduler policies x hierarchy."""
    jobs = []
    base = VortexConfig(memory=MemoryConfig(latency=100, bandwidth=1))
    for label, (warps, threads) in CORE_DESIGN_POINTS.items():
        jobs.append(
            KernelJob(
                kernel="sgemm",
                config=base.with_warps_threads(warps, threads),
                size=8 * 8,
                label=f"sgemm/{label}",
            )
        )
    for ports in (2, 4):
        jobs.append(
            KernelJob(
                kernel="sfilter",
                config=base.with_dcache_ports(ports),
                size=8 * 8,
                label=f"sfilter/{ports}port",
            )
        )
    for policy in SCHEDULER_POLICIES:
        jobs.append(
            KernelJob(
                kernel="bfs",
                config=base.with_scheduler_policy(policy),
                size=64,
                label=f"bfs/{policy}",
            )
        )
    for label, (enable_l2, enable_l3) in {
        "l2": (True, False),
        "l2+l3": (True, True),
    }.items():
        jobs.append(
            KernelJob(
                kernel="sgemm",
                config=base.with_cache_hierarchy(enable_l2=enable_l2, enable_l3=enable_l3),
                size=8 * 8,
                label=f"sgemm/{label}",
            )
        )
    return jobs


def main() -> None:
    with Session(
        executor="service", service_config=ServiceConfig(num_shards=4)
    ) as session:
        report = session.run_differential(build_jobs())
        print(report.summary())
        print()
        print(f"{'job':24s} {'cycles':>8s} {'IPC':>7s}  agreement")
        for result in report.results:
            assert result.ok, (
                f"{result.describe()}: {result.scalar.error or result.vector.error}"
            )
            vector = result.vector.report
            status = "identical" if result.identical_counters else "MISMATCH"
            print(f"{result.describe():24s} {vector.cycles:8d} {vector.ipc:7.3f}  {status}")
            for mismatch in result.mismatches:
                print(f"  - {mismatch}")
        if not report.identical_counters:
            raise SystemExit("differential sweep found diverging counters")
        print()
        print("every counter identical across both engines on the whole grid")

        # Replay: the identical grid resubmitted to the same service fleet is
        # answered entirely from the content-addressed result cache.
        replay = session.run_differential(build_jobs())
        stats = session.service_client().stats()
        served = sum(
            result.scalar.cached + result.vector.cached for result in replay.results
        )
        assert replay.identical_counters
        print(
            f"replay: {served}/{2 * len(replay.results)} runs served from cache "
            f"in {replay.wall_seconds:.3f}s "
            f"(hit rate {stats['cache']['hit_rate']:.0%}, "
            f"{stats['executed']} total executions for {stats['submitted']} submissions)"
        )


if __name__ == "__main__":
    main()
