"""Design-space exploration: IPC vs area across core configurations.

Section 6.5 of the paper positions Vortex as a platform for architecture
research: the SIMX cycle-level simulator explores configurations that do not
fit on the FPGA while the synthesis model prices them.  This example sweeps
the Table 3 warp/thread design points plus two memory configurations, runs
``sgemm`` on each, and reports performance alongside the modeled FPGA cost —
the performance-per-area trade-off the paper uses to pick 4W-4T.

The whole sweep is one batched :class:`repro.Session` run: every
(configuration, memory latency) point becomes a job and the jobs execute
concurrently on the simulation service's worker fleet.

Run with::

    python examples/design_space_exploration.py
"""

from __future__ import annotations

from repro import KernelJob, Session, VortexConfig
from repro.common.config import CORE_DESIGN_POINTS, MemoryConfig
from repro.synthesis import CoreSynthesisModel


def build_jobs() -> list:
    """One sgemm job per (design point, memory latency) combination."""
    jobs = []
    for label, (warps, threads) in CORE_DESIGN_POINTS.items():
        for latency in (50, 200):
            config = VortexConfig(
                memory=MemoryConfig(latency=latency, bandwidth=1)
            ).with_warps_threads(warps, threads)
            jobs.append(
                KernelJob(
                    kernel="sgemm",
                    config=config,
                    driver="simx",
                    size=12 * 12,
                    label=f"{label}@{latency}",
                )
            )
    return jobs


def main() -> None:
    with Session() as session:
        batch = session.run_batch(build_jobs())
    print(batch.summary())
    print()
    print(f"{'config':8s} {'mem lat':>8s} {'cycles':>8s} {'IPC':>6s} {'LUT':>8s} "
          f"{'fmax':>6s} {'IPC/kLUT':>9s}")
    best = None
    area_model = CoreSynthesisModel()
    point_names = {geometry: name for name, geometry in CORE_DESIGN_POINTS.items()}
    for result in batch.results:
        assert result.ok, f"{result.job.describe()}: {result.error}"
        config = result.job.config
        label = point_names[(config.num_warps, config.num_threads)]
        latency = config.memory.latency
        area = area_model.estimate(config.num_warps, config.num_threads)
        ipc = result.report.ipc
        ipc_per_klut = ipc / (area["lut"] / 1000.0)
        print(
            f"{label:8s} {latency:8d} {result.report.cycles:8d} {ipc:6.2f} "
            f"{area['lut']:8.0f} {area['fmax']:6.0f} {ipc_per_klut:9.3f}"
        )
        if best is None or ipc_per_klut > best[2]:
            best = (label, latency, ipc_per_klut)
    label, latency, score = best
    print()
    print(f"best performance per area: {label} at memory latency {latency} "
          f"({score:.3f} IPC per kLUT)")


if __name__ == "__main__":
    main()
