"""Sampled simulation: functional fast-forward + cycle-level interval replay.

Full cycle-level (SIMX) simulation is orders of magnitude slower than the
vectorized functional engine.  :class:`SampledRun` trades cycle-accuracy
for wall-clock the classic way: the kernel *executes* entirely on the fast
functional driver, architectural checkpoints are captured at fixed retired-
instruction sample points, and each checkpoint seeds a cold cycle-level
simulation (:meth:`~repro.core.processor.TimingProcessor.adopt_architectural`)
that is replayed for a bounded interval.  The per-interval IPC samples
extrapolate to a whole-run cycle estimate.

Accuracy caveats are the standard ones for checkpoint-sampled simulation:
every interval starts with cold caches, an empty scoreboard and idle
scheduler state (cold-start bias), and the functional fast-forward
serializes warps at scheduling-round granularity rather than modeling
inter-warp timing.  What the design *does* guarantee — and what the
``sampled_sgemm`` row of ``benchmarks/smoke.py`` checks — is determinism: the
same sampled run produces bit-identical interval counters every time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.common.config import VortexConfig
from repro.runtime.device import VortexDevice
from repro.runtime.funcsim import FuncSimDriver
from repro.runtime.simx import SimxDriver

#: Default retired-warp-instruction distance between sample points.
DEFAULT_SAMPLE_PERIOD = 2_000
#: Default cycle budget replayed under the cycle-level model per sample.
DEFAULT_INTERVAL_CYCLES = 2_000


@dataclass
class SampledInterval:
    """One sample point replayed under the cycle-level model."""

    index: int
    #: Warp instructions the functional fast-forward had retired at capture.
    start_instructions: int
    #: Cycles simulated by the cycle-level replay of this interval.
    cycles: int
    #: Warp instructions retired during the replay.
    instructions: int
    #: Thread instructions retired during the replay.
    thread_instructions: int
    #: Full per-component counter payload of the replay.
    counters: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Thread-instructions per cycle within this interval."""
        return self.thread_instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        """Cycles per warp instruction within this interval."""
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclass
class SampledReport:
    """Outcome of one :class:`SampledRun`."""

    kernel: str
    intervals: list[SampledInterval]
    #: Total warp instructions of the complete functional execution.
    total_instructions: int
    #: Whether the functional run's verification passed.
    passed: bool
    wall_seconds: float

    @property
    def sampled_instructions(self) -> int:
        """Warp instructions covered by cycle-level replay."""
        return sum(interval.instructions for interval in self.intervals)

    @property
    def estimated_cycles(self) -> int:
        """Whole-run cycle estimate: total instructions times the sampled CPI.

        The CPI is aggregated over every interval that retired instructions
        (cycles-weighted, i.e. total sampled cycles over total sampled
        instructions) — the plain SMARTS-style extrapolation.
        """
        cycles = sum(i.cycles for i in self.intervals if i.instructions)
        instructions = self.sampled_instructions
        if not instructions:
            return 0
        return round(self.total_instructions * cycles / instructions)

    def to_payload(self) -> dict[str, Any]:
        """A JSON-ready payload (the ``sampled_sgemm`` row of ``benchmarks/smoke.py``)."""
        return {
            "kernel": self.kernel,
            "passed": self.passed,
            "total_instructions": self.total_instructions,
            "sampled_instructions": self.sampled_instructions,
            "estimated_cycles": self.estimated_cycles,
            "wall_seconds": self.wall_seconds,
            "intervals": [
                {
                    "index": interval.index,
                    "start_instructions": interval.start_instructions,
                    "cycles": interval.cycles,
                    "instructions": interval.instructions,
                    "thread_instructions": interval.thread_instructions,
                }
                for interval in self.intervals
            ],
        }


class SampledRun:
    """Run one kernel with functional fast-forward and sampled SIMX replay.

    ``sample_period`` is the retired-warp-instruction distance between
    architectural checkpoints (the fast-forward pauses at scheduling-round
    boundaries, so the actual capture points land on the first boundary at
    or after each multiple of the period); ``interval_cycles`` bounds each
    cycle-level replay; ``max_samples`` caps how many checkpoints are
    captured (the fast-forward then runs uninterrupted to completion).
    """

    def __init__(
        self,
        kernel: str,
        config: VortexConfig | None = None,
        size: int | None = None,
        *,
        sample_period: int = DEFAULT_SAMPLE_PERIOD,
        interval_cycles: int = DEFAULT_INTERVAL_CYCLES,
        max_samples: int = 8,
    ):
        if sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        self.kernel = kernel
        self.config = config or VortexConfig()
        self.size = size
        self.sample_period = sample_period
        self.interval_cycles = interval_cycles
        self.max_samples = max_samples

    def run(self) -> SampledReport:
        """Execute the sampled run; see the class docstring for mechanics."""
        from repro.kernels import KERNELS

        start = time.perf_counter()
        kernel = KERNELS[self.kernel]()
        size = self.size if self.size is not None else kernel.default_size()

        # Functional fast-forward, capturing architectural checkpoints.
        device = VortexDevice(self.config, driver="funcsim")
        driver = device.driver
        assert isinstance(driver, FuncSimDriver)
        program = kernel.build_program()
        device.upload_program(program)
        context = kernel.setup(device, size)
        # Reset explicitly so the entry-point checkpoint (sample 0) already
        # has warp 0 spawned; the fast-forward then always *resumes*.
        driver.processor.reset(program.entry)
        checkpoints: list[tuple[int, dict]] = [(0, driver.processor.snapshot())]
        while True:
            stop = self.sample_period if len(checkpoints) < self.max_samples else None
            report = driver.run(program.entry, stop_after_instructions=stop, resume=True)
            if driver.done:
                break
            checkpoints.append((report.instructions, driver.processor.snapshot()))
        passed = kernel.verify(device, context)

        # Cycle-level replay of each captured sample point.
        intervals: list[SampledInterval] = []
        for index, (start_instructions, snapshot) in enumerate(checkpoints):
            simx = SimxDriver(self.config)
            simx.processor.adopt_architectural(snapshot)
            simx.processor.run(None, stop_cycle=self.interval_cycles)
            intervals.append(
                SampledInterval(
                    index=index,
                    start_instructions=start_instructions,
                    cycles=simx.processor.cycle,
                    instructions=simx.processor.total_instructions,
                    thread_instructions=simx.processor.total_thread_instructions,
                    counters=simx.processor.counters(),
                )
            )

        return SampledReport(
            kernel=self.kernel,
            intervals=intervals,
            total_instructions=report.instructions,
            passed=passed,
            wall_seconds=time.perf_counter() - start,
        )
