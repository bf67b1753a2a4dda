"""The four benchmark workloads and the checks run on every one of their outputs.

* ``simx_wide_hit`` / ``simx_port_stall`` — SIMX launches, each on a freshly
  built device, run in passes (every launch once, in seeded order);
* ``baseline_sampled`` — the same on the paper-baseline config, each kernel
  also estimated once per pass through
  :class:`~repro.runtime.sampling.SampledRun`;
* ``sweep_service`` — rounds of a closed loop of two clients against a fresh
  two-shard :class:`~repro.service.server.SimulationService` per round.

Inputs come from the run seed only: kernel input data (SIMX launches), launch
order and the service job stream.  The kernels' control flow does not depend
on their data, so simulated cycles are the same for every seed.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any

import numpy as np

from perfbench import stats
from perfbench.clock import HostSpeed
from perfbench.spans import Tracer

#: Problem sizes of the service stream (the figure harness's small sizes).
SERVICE_SIZES = {
    "vecadd": 128,
    "saxpy": 128,
    "sgemm": 8 * 8,
    "sfilter": 8 * 8,
    "nearn": 128,
    "gaussian": 16,
    "bfs": 64,
}
SERVICE_SHAPES = ((4, 4), (8, 8), (4, 16))
SERVICE_PORTS_L2 = tuple((ports, l2) for ports in (1, 2, 4) for l2 in (False, True))
#: Distinct points per (kernel, warps x threads): SIMX and funcsim (60/40).
SERVICE_SIMX_POINTS = 3
SERVICE_FUNCSIM_POINTS = 2
#: Jobs per round; the ones beyond the distinct points resubmit earlier points.
SERVICE_JOBS = 220
SERVICE_CLIENTS = 2
SERVICE_SHARDS = 2

#: Kernels whose sampled estimate is scored, and the held-out one.
SAMPLED_KERNELS = ("sgemm", "sfilter", "vecadd")
HELDOUT_KERNEL = "nearn"


# -- configurations --------------------------------------------------------------------


def baseline_config(
    dcache_ports: int = 1, enable_l2: bool = False, shape: tuple[int, int] = (4, 4)
):
    """The figure harness's ``make_config`` point: 4W-4T, 16 KiB 1-port D$, 100-cycle memory."""
    from repro.common.config import CacheConfig, MemoryConfig, VortexConfig

    return VortexConfig(
        enable_l2=enable_l2,
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=dcache_ports),
        memory=MemoryConfig(latency=100, bandwidth=1),
    ).with_warps_threads(*shape)


def wide_config(num_cores: int = 1):
    """1C-4W-32T, 64 KiB 8-bank 8-port D$, 10-cycle memory (L2 on with more cores)."""
    from repro.common.config import CacheConfig, MemoryConfig, VortexConfig

    return VortexConfig(
        num_cores=num_cores,
        enable_l2=num_cores > 1,
        dcache=CacheConfig(size=64 * 1024, num_banks=8, num_ports=8),
        memory=MemoryConfig(latency=10),
    ).with_warps_threads(4, 32)


def stall_config():
    """1C-8W-32T, 16 KiB 1-port D$, 800-cycle DRAM."""
    from repro.common.config import CacheConfig, MemoryConfig, VortexConfig

    return VortexConfig(
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
        memory=MemoryConfig(latency=800),
    ).with_warps_threads(8, 32)


@dataclass(frozen=True)
class LaunchSpec:
    """One SIMX launch of a workload set."""

    label: str
    kernel: str
    size: int
    config_factory: Callable[[], Any]

    def make_kernel(self):
        from repro.kernels import KERNELS
        from repro.kernels.texture import hardware_texture_kernel

        if self.kernel == "tex":
            return hardware_texture_kernel("trilinear")
        return KERNELS[self.kernel]()


LAUNCHES: dict[str, tuple[LaunchSpec, ...]] = {
    "simx_wide_hit": (
        LaunchSpec("sgemm@1024/1C", "sgemm", 1024, wide_config),
        LaunchSpec("sfilter@2304/1C", "sfilter", 2304, wide_config),
        LaunchSpec("sgemm@1024/4C+L2", "sgemm", 1024, lambda: wide_config(4)),
        LaunchSpec("tex-trilinear@64x64/1C", "tex", 64 * 64, wide_config),
    ),
    "simx_port_stall": (
        LaunchSpec("sgemm@576", "sgemm", 576, stall_config),
        LaunchSpec("sfilter@1024", "sfilter", 1024, stall_config),
        LaunchSpec("vecadd@1024", "vecadd", 1024, stall_config),
    ),
    "baseline_sampled": (
        LaunchSpec("sgemm@1024", "sgemm", 1024, baseline_config),
        LaunchSpec("sfilter@1024", "sfilter", 1024, baseline_config),
        LaunchSpec("vecadd@4096", "vecadd", 4096, baseline_config),
        LaunchSpec("nearn@1024", HELDOUT_KERNEL, 1024, baseline_config),
    ),
}

WORKLOADS = (*LAUNCHES, "sweep_service")


# -- outcome bookkeeping -----------------------------------------------------------------


@dataclass
class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class OpResult:
    """One timed operation: a SIMX launch or a sampled estimate."""

    label: str
    kernel: str
    sampled: bool
    report: Any
    #: Host seconds inside ``VortexDevice.launch`` (the whole run when sampled).
    launch_s: float
    #: Host seconds of the operation: device build, assembly, set-up, launch, verify.
    wall_s: float
    #: Reference seconds per host second, measured just before the operation.
    factor: float


def signature(report: Any) -> tuple:
    """Everything a SIMX launch simulates: cycles, instructions and every counter."""
    return (report.cycles, report.instructions, report.thread_instructions, report.counters)


def sampled_signature(report: Any) -> tuple:
    return (
        report.estimated_cycles,
        report.total_instructions,
        tuple(
            (i.start_instructions, i.cycles, i.instructions, i.thread_instructions)
            for i in report.intervals
        ),
    )


# -- SIMX passes ------------------------------------------------------------------------------


class SimxWorkload:
    """Passes of SIMX launches (plus sampled estimates on ``baseline_sampled``)."""

    def __init__(
        self, name: str, seed: int, tracer: Tracer, outcome: Outcome, speed: HostSpeed
    ) -> None:
        self.speed = speed
        self.specs = LAUNCHES[name]
        self.sampled = name == "baseline_sampled"
        self.seed = seed
        self.tracer = tracer
        self.outcome = outcome
        self._order = random.Random(seed)
        self._reference: dict[str, tuple] = {}
        self._op = 0

    def _next_op(self) -> int:
        self._op += 1
        return self._op

    def launch(self, index: int, spec: LaunchSpec, factor: float) -> OpResult:
        from repro.runtime.device import VortexDevice

        kernel = spec.make_kernel()
        data_seed = self.seed * 1000 + index
        # Seeded inputs: the kernel draws its data from this generator.
        kernel.rng = lambda seed=None: np.random.default_rng(data_seed)
        with self.tracer.op(self._next_op(), f"launch:{spec.label}"):
            start = perf_counter()
            device = VortexDevice(spec.config_factory(), driver="simx")
            program = kernel.build_program()
            device.upload_program(program)
            context = kernel.setup(device, spec.size)
            launched = perf_counter()
            report = device.launch()
            launch_s = perf_counter() - launched
            passed = kernel.verify(device, context)
            wall_s = perf_counter() - start
        self.outcome.check(passed, f"{spec.label}: verification failed")
        reference = self._reference.setdefault(spec.label, signature(report))
        self.outcome.check(
            signature(report) == reference, f"{spec.label}: counters differ from the first launch"
        )
        return OpResult(spec.label, spec.kernel, False, report, launch_s, wall_s, factor)

    def estimate(self, index: int, spec: LaunchSpec, factor: float) -> OpResult:
        from repro.runtime.sampling import SampledRun

        label = f"sampled:{spec.label}"
        with self.tracer.op(self._next_op(), label):
            start = perf_counter()
            report = SampledRun(spec.kernel, spec.config_factory(), spec.size).run()
            wall_s = perf_counter() - start
        self.outcome.check(report.passed, f"{label}: verification failed")
        reference = self._reference.setdefault(label, sampled_signature(report))
        self.outcome.check(
            sampled_signature(report) == reference, f"{label}: estimate differs from the first run"
        )
        return OpResult(label, spec.kernel, True, report, wall_s, wall_s, factor)

    def run_pass(self, deadline: float | None = None) -> list[OpResult]:
        """Every operation once, in seeded order; stops early once ``deadline`` passes."""
        steps = [(self.launch, index, spec) for index, spec in enumerate(self.specs)]
        if self.sampled:
            steps += [(self.estimate, index, spec) for index, spec in enumerate(self.specs)]
        self._order.shuffle(steps)
        results = []
        for step, index, spec in steps:
            if deadline is not None and perf_counter() >= deadline:
                break
            results.append(step(index, spec, self.speed.factor_now()))
        return results


def simx_end_to_end(results: list[OpResult], scaled: bool = True) -> dict[str, float]:
    """Rates from each operation's median time over its repeats.

    Each operation counts once with its median time, so a run that stopped
    part-way through a pass still weighs every operation the same.  Times are
    in reference seconds unless ``scaled`` is false.
    """
    by_label: dict[str, list[OpResult]] = {}
    for result in results:
        by_label.setdefault(result.label, []).append(result)

    def median_s(runs: list[OpResult], attribute: str) -> float:
        return statistics.median(
            getattr(r, attribute) * (r.factor if scaled else 1.0) for r in runs
        )

    launches = [runs for runs in by_label.values() if not runs[0].sampled]
    launch_s = sum(median_s(runs, "launch_s") for runs in launches)
    cycles = sum(runs[0].report.cycles for runs in launches)
    return {
        "sim_cycles_per_s": cycles / launch_s,
        "warp_instr_per_s": sum(runs[0].report.instructions for runs in launches) / launch_s,
        "ipc": sum(runs[0].report.thread_instructions for runs in launches) / cycles,
        "jobs_per_s": len(by_label) / sum(median_s(runs, "wall_s") for runs in by_label.values()),
    }


def simx_counts(results: list[OpResult]) -> dict[str, float]:
    """Simulated counts of one full pass (exact: every pass simulates the same work)."""
    launches = [r for r in results if not r.sampled]
    estimates = [r for r in results if r.sampled]
    counters: dict[str, dict[str, int]] = {}
    for index, launch in enumerate(launches):
        for component, values in launch.report.counters.items():
            counters[f"{component}#{index}"] = values
    figures = {
        "dcache.accept_ratio": stats.accept_ratio(counters, "dcache"),
        "dcache.hit_rate": stats.hit_rate(counters, "dcache"),
        "dcache.bank_conflicts": stats.sum_counter(counters, "dcache", "bank_conflicts"),
        "dcache.memq_stalls": stats.sum_counter(counters, "dcache", "memq_stalls"),
        "l2.hit_rate": stats.hit_rate(counters, "l2_"),
        "dram.accept_ratio": stats.dram_accept_ratio(counters),
        "dram.avg_latency_cycles": stats.dram_avg_latency(counters),
        "core.scoreboard_stalls": stats.sum_counter(counters, "core", "scoreboard_stalls"),
        "core.idle_cycles": stats.sum_counter(counters, "core", "idle_cycles"),
    }
    if estimates:
        full = {launch.kernel: launch.report.cycles for launch in launches}
        errors = {
            est.kernel: stats.relative_error(est.report.estimated_cycles, full[est.kernel])
            for est in estimates
        }
        figures["sampling.cycle_error"] = sum(errors[k] for k in SAMPLED_KERNELS) / len(SAMPLED_KERNELS)
        figures["sampling.heldout_error"] = errors[HELDOUT_KERNEL]
        figures["sampling.intervals"] = sum(len(est.report.intervals) for est in estimates)
        figures["sampling.replayed_cycle_share"] = stats.ratio(
            sum(i.cycles for est in estimates for i in est.report.intervals),
            sum(est.report.estimated_cycles for est in estimates),
        )
    return figures


# -- service rounds ----------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamEntry:
    job: Any
    key: str


def service_points() -> list[Any]:
    """The distinct jobs of the service stream, the same for every seed.

    Each (kernel, warps x threads) pair gets ``SERVICE_SIMX_POINTS`` SIMX and
    ``SERVICE_FUNCSIM_POINTS`` funcsim points; the (ports, L2) choices rotate
    over the pairs so every choice appears equally often.  Keeping the set
    fixed keeps the executed work and its split over the shards the same for
    every seed.
    """
    from repro.engine.session import KernelJob

    combos = SERVICE_PORTS_L2
    points = []
    for kernel_index, (kernel, size) in enumerate(SERVICE_SIZES.items()):
        for shape_index, shape in enumerate(SERVICE_SHAPES):
            rotation = kernel_index * len(SERVICE_SHAPES) + shape_index
            chosen = (
                ("simx", [combos[(rotation + i) % len(combos)] for i in range(SERVICE_SIMX_POINTS)]),
                (
                    "funcsim",
                    [combos[(rotation + 3 + i) % len(combos)] for i in range(SERVICE_FUNCSIM_POINTS)],
                ),
            )
            for driver, picks in chosen:
                for ports, l2 in picks:
                    config = baseline_config(dcache_ports=ports, enable_l2=l2, shape=shape)
                    points.append(KernelJob(kernel=kernel, config=config, driver=driver, size=size))
    return points


def service_stream(seed: int) -> list[StreamEntry]:
    """The seeded closed-loop job stream of one round.

    The seed orders the distinct points and places the resubmissions: the
    jobs beyond the distinct points repeat a point already submitted.
    """
    rng = random.Random(seed)
    distinct = service_points()
    rng.shuffle(distinct)
    kinds = [True] * len(distinct) + [False] * (SERVICE_JOBS - len(distinct))
    rng.shuffle(kinds)
    kinds.insert(0, kinds.pop(kinds.index(True)))  # the first job cannot be a resubmission
    fresh = iter(distinct)
    seen: list[StreamEntry] = []
    stream = []
    for is_new in kinds:
        if is_new:
            job = next(fresh)
            seen.append(StreamEntry(job, job.cache_key()))
            stream.append(seen[-1])
        else:
            stream.append(rng.choice(seen))
    return stream


@dataclass
class JobRecord:
    index: int
    key: str
    result: Any
    submit_wall: float
    latency_s: float


@dataclass
class Round:
    wall_s: float
    records: list[JobRecord]
    stats: dict[str, Any]
    #: label -> (dispatch, return) wall-clock times, when traced.
    dispatch: dict[str, tuple[float, float]] = field(default_factory=dict)


class DispatchRecorder:
    """Records when each job is handed to a worker and when its answer returns.

    Wraps ``ProcessWorker.request``, which the service calls from executor
    threads in this process (the worker processes never call it).
    """

    def __init__(self) -> None:
        self.times: dict[str, tuple[float, float]] = {}
        self._original: Any = None

    def install(self) -> None:
        from repro.service.worker import ProcessWorker

        original = self._original = ProcessWorker.__dict__["request"]
        times = self.times

        def request(worker: Any, job: Any, timeout: float | None) -> Any:
            dispatched = time.time()
            try:
                return original(worker, job, timeout)
            finally:
                times[job.label] = (dispatched, time.time())

        ProcessWorker.request = request  # type: ignore[method-assign]

    def uninstall(self) -> None:
        from repro.service.worker import ProcessWorker

        if self._original is not None:
            ProcessWorker.request = self._original  # type: ignore[method-assign]
            self._original = None


class ServiceWorkload:
    """Closed-loop rounds of the seeded job stream against a fresh service."""

    def __init__(self, seed: int, outcome: Outcome) -> None:
        self.stream = service_stream(seed)
        self.outcome = outcome
        self.rounds = 0
        #: key -> (payload without host time) of the first execution in this run.
        self._reference: dict[str, dict] = {}

    def run_round(self, recorder: DispatchRecorder | None = None) -> Round:
        self.rounds += 1
        if recorder is not None:
            recorder.times.clear()
            recorder.install()
        try:
            result = asyncio.run(self._round(f"r{self.rounds}"))
        finally:
            if recorder is not None:
                recorder.uninstall()
        if recorder is not None:
            result.dispatch = dict(recorder.times)
        self._check(result)
        return result

    async def _round(self, tag: str) -> Round:
        from repro.service.server import ServiceConfig, SimulationService

        service = SimulationService(
            ServiceConfig(num_shards=SERVICE_SHARDS, worker_mode="process")
        )
        await service.start()
        records: list[JobRecord] = []
        try:
            positions = iter(range(len(self.stream)))

            async def client() -> None:
                for index in positions:
                    entry = self.stream[index]
                    job = replace(entry.job, label=f"{tag}j{index}")
                    submit_wall = time.time()
                    submitted = perf_counter()
                    result = await service.submit(job)
                    records.append(
                        JobRecord(index, entry.key, result, submit_wall, perf_counter() - submitted)
                    )

            start = perf_counter()
            await asyncio.gather(*(client() for _ in range(SERVICE_CLIENTS)))
            wall_s = perf_counter() - start
            payload = service.stats_payload()
        finally:
            await service.close()
        return Round(wall_s, records, payload)

    def _check(self, round_: Round) -> None:
        """Every job verified, and every report equal to its key's first execution."""
        first_in_round: dict[str, float] = {}
        for record in sorted(round_.records, key=lambda r: r.index):
            result = record.result
            ok = result.ok
            if result.report is not None:
                payload = result.report.to_payload()
                host_s = payload.pop("wall_seconds")
                ok = ok and payload == self._reference.setdefault(record.key, payload)
                if result.cached:
                    # A hit replays the round's first execution, host time included.
                    ok = ok and first_in_round.get(record.key) == host_s
                else:
                    first_in_round.setdefault(record.key, host_s)
            self.outcome.check(
                ok, f"job {record.index} ({result.job.describe()}): {result.error or 'wrong result'}"
            )
        self.outcome.check(len(round_.records) == len(self.stream), "round lost jobs")


def service_end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Rates over all rounds, in host seconds.

    Each round's worker load depends on which client's job lands on which
    shard when, so rounds vary; rates over the run's summed seconds average
    that out.
    """
    executed = [r.result for round_ in rounds for r in round_.records if not r.result.cached]
    simx = [result for result in executed if result.report.cycles]
    cycles = sum(result.report.cycles for result in simx)
    return {
        "sim_cycles_per_s": cycles / sum(result.report.wall_seconds for result in simx),
        "warp_instr_per_s": sum(result.report.instructions for result in executed)
        / sum(result.report.wall_seconds for result in executed),
        "ipc": sum(result.report.thread_instructions for result in simx) / cycles,
        "jobs_per_s": sum(len(round_.records) for round_ in rounds)
        / sum(round_.wall_s for round_ in rounds),
    }
