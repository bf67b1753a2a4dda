"""Smoke runner: reference-vs-candidate scenarios, one row schema, one gate.

Every scenario runs one workload on a reference leg and on a candidate
leg and checks that the candidate reproduces the reference bit for bit.
A scenario with a committed speedup runs both legs ``REPS`` times,
interleaved so machine noise hits both sides, and reports ``speedup`` =
best reference seconds / best candidate seconds.  The groups:

* ``engine`` — ``funcsim:engine=scalar`` vs ``funcsim``: registers, memory.
* ``graphics`` — scalar vs vector raster pipeline: framebuffers.
* ``timing`` — ``simx:engine=scalar`` vs ``simx``: cycles and every counter.
* ``fastforward`` — ``simx:fastforward=off,requests=perlane`` (the ticked
  per-lane path) vs ``simx`` (batched requests + cycle fast-forward).
* ``trace`` — ``simx:trace=mem`` vs ``simx``: tracing must not perturb the
  run, its stream must reconcile with the counters, and the speedup is
  the off-path gap (an unguarded emission site shrinks it); the CSV and
  VCD sinks must round-trip the in-memory stream.
* ``checkpoint`` — straight vs ``restart_midpoint`` (checkpoint, pickle,
  restore into a fresh device, finish); a sampled run twice.
* ``differential`` — ``Session.run_differential`` with restore legs.
* ``service`` — a cold vs a cached batch (payloads, >= 5x), and a batch
  whose workers are all SIGKILLed mid-flight vs an undisturbed one.

The gate then compares the run with the committed ``BENCH_smoke.json``.
It fails when a row is not identical or errored, when a committed row of
a group that ran is missing, or when a speedup falls below
``FLOORS[group]`` times the committed one (a fraction, because CI
runners are noisier than the machine that measured the baseline).

Run with::

    PYTHONPATH=src python benchmarks/smoke.py [--group NAME]... [--out PATH]

Nothing is written unless ``--out`` is given.  Exit status 0 means green.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import sys
import tempfile
import threading
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.engine.session import (
    JobResult,
    KernelJob,
    Session,
    diff_execution_reports,
    execute_job,
)
from repro.graphics.fragment import BlendMode
from repro.graphics.geometry import Matrix4, Vertex
from repro.graphics.pipeline import GraphicsContext
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice
from repro.runtime.sampling import SampledRun
from repro.service import ServiceClient, ServiceConfig
from repro.texture.formats import TexFilter, TexWrap
from repro.trace.attribution import reconcile
from repro.trace.sinks import parse_csv, parse_vcd, vcd_changes

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_smoke.json"

#: Interleaved repetitions of a timed scenario (best-of).
REPS = 3

#: Lowest accepted fraction of the committed speedup, per group; groups
#: without an entry gate identity only.  The cached service replay takes
#: about a millisecond, so its ratio is mostly timer noise.
FLOORS = {
    "engine": 0.6,
    "graphics": 0.6,
    "timing": 0.6,
    "fastforward": 0.6,
    "trace": 0.6,
    "service": 0.05,
}

#: The cached service replay must beat the cold batch by at least this.
MIN_CACHED_REPLAY_SPEEDUP = 5.0

#: Seconds into the crash batch at which every service worker is killed.
KILL_AFTER_SECONDS = 0.3


@dataclass(frozen=True)
class Leg:
    """One leg: the wall seconds of its timed span and what the check reads."""

    seconds: float
    #: The device, render context, job result(s) or sampled report.
    value: Any
    #: The leg's ``ExecutionReport``; for a service leg, the fleet's stats.
    report: Any = None


Check = Callable[[Leg, Leg], tuple[list[str], dict[str, Any]]]


@dataclass(frozen=True)
class Scenario:
    """One registry entry: a workload on two legs and the check between them."""

    group: str
    name: str
    reference: str
    candidate: str
    #: Runs the reference leg, then the candidate leg.
    pair: Callable[[], tuple[Leg, Leg]]
    #: ``(mismatches, detail)`` of the two legs; no mismatches = identical.
    check: Check
    #: Best-of-``REPS`` with a ``speedup``; otherwise one run.
    timed: bool = False


def _both(reference: Callable[[], Leg], candidate: Callable[[], Leg]) -> tuple[Leg, Leg]:
    return reference(), candidate()


# -- legs -------------------------------------------------------------------------------


def _run_kernel(spec: str, kernel: str, size: int, config: VortexConfig) -> Leg:
    """Upload, launch and verify ``kernel`` on a fresh device (the timed span)."""
    device = VortexDevice(config, driver=spec)
    start = time.perf_counter()
    run = KERNELS[kernel]().run(device, size=size)
    seconds = time.perf_counter() - start
    if not run.passed:
        raise AssertionError(f"{kernel} failed verification on {spec}")
    return Leg(seconds, device, run.report)


def _run_job(job: KernelJob) -> Leg:
    result = execute_job(job)
    if not result.ok:
        raise AssertionError(result.error or f"{job.describe()} failed verification")
    return Leg(result.wall_seconds, result, result.report)


#: Render-target size, texture size and triangle count of the graphics scenes.
GRAPHICS_SIZE, GRAPHICS_TEXTURE, GRAPHICS_TRIANGLES = 160, 64, 24


def _render(engine: str, filter_mode: TexFilter, mipmaps: bool) -> Leg:
    """Draw the seeded textured-triangle scene; only ``draw`` is timed."""
    rng = np.random.default_rng(41)
    texture = rng.integers(0, 256, size=(GRAPHICS_TEXTURE, GRAPHICS_TEXTURE, 4), dtype=np.uint8)
    texture[..., 3] = 255
    vertices = []
    for index in range(GRAPHICS_TRIANGLES):
        z = (index / (GRAPHICS_TRIANGLES - 1)) - 0.5
        for _ in range(3):
            x, y = rng.uniform(-1.1, 1.1, size=2)
            color = (*rng.uniform(0.2, 1.0, size=3), 0.8)
            uv = tuple(rng.uniform(-0.5, 1.5, size=2))
            vertices.append(Vertex(position=(x, y, z, 1.0), color=color, uv=uv))
    ctx = GraphicsContext(GRAPHICS_SIZE, GRAPHICS_SIZE, tile_size=16, engine=engine)
    ctx.set_mvp(Matrix4.orthographic(-1, 1, -1, 1))
    ctx.clear(color=(10, 10, 30, 255))
    ctx.fragment_ops.blend = BlendMode.ALPHA
    ctx.bind_texture(texture, filter_mode=filter_mode, wrap=TexWrap.REPEAT, mipmaps=mipmaps)
    start = time.perf_counter()
    ctx.draw(vertices)
    return Leg(time.perf_counter() - start, ctx)


def _sink_pair(fmt: str, kernel: str, size: int, config: VortexConfig) -> tuple[Leg, Leg]:
    """The in-memory stream, and the text the ``fmt`` file sink wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"trace.{fmt}"
        reference = _run_kernel("simx:trace=mem", kernel, size, config)
        written = _run_kernel(f"simx:trace={fmt},trace_file={path}", kernel, size, config)
        return reference, Leg(written.seconds, path.read_text(), written.report)


def _sampled(kernel: str, size: int, config: VortexConfig) -> Leg:
    report = SampledRun(kernel, config, size, sample_period=400, interval_cycles=800).run()
    if not report.passed:
        raise AssertionError(f"sampled {kernel} failed verification")
    return Leg(report.wall_seconds, report)


def _differential_pair(job: KernelJob) -> tuple[Leg, Leg]:
    """Scalar vs vector engine, plus the vector run's restore leg, as a Session sweep."""
    with Session() as session:
        result = session.run_differential([job], checkpoint_legs=True).results[0]
    if not result.ok:
        legs = (result.scalar, result.vector, result.restored)
        raise AssertionError("; ".join(leg.error for leg in legs if leg and leg.error))
    return (
        Leg(result.scalar.wall_seconds, result, result.scalar.report),
        Leg(result.vector.wall_seconds, result, result.vector.report),
    )


def _served(client: ServiceClient, jobs: list[KernelJob]) -> Leg:
    start = time.perf_counter()
    results = client.run_jobs(jobs)
    return Leg(time.perf_counter() - start, results)


def _cold_cached_pair(jobs: list[KernelJob]) -> tuple[Leg, Leg]:
    """The same batch twice on one fresh fleet: executed, then from the cache."""
    with ServiceClient(ServiceConfig(num_shards=4)) as client:
        return _served(client, jobs), _served(client, jobs)


def _kill(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _crash_leg(jobs: list[KernelJob], kill: bool) -> Leg:
    """Serve ``jobs`` on a fresh 2-worker fleet, SIGKILLing every worker if ``kill``."""
    with ServiceClient(ServiceConfig(num_shards=2, retry_backoff=0.05)) as client:
        pids = [pid for pid in client.worker_pids() if pid is not None] if kill else []
        timer = threading.Timer(KILL_AFTER_SECONDS, _kill, [pids])
        if pids:
            timer.start()
        try:
            leg = _served(client, jobs)
        finally:
            timer.cancel()
        return Leg(leg.seconds, leg.value, {"workers_killed": len(pids), **client.stats()})


# -- checks -----------------------------------------------------------------------------


def _counters(ref: Leg, cand: Leg) -> tuple[list[str], dict[str, Any]]:
    """Cycles, instruction counts and every perf counter, key sets included."""
    mismatches = diff_execution_reports(ref.report, cand.report)
    if not mismatches and ref.report.counters != cand.report.counters:
        mismatches.append("counters: a zero counter exists in only one report")
    report = cand.report
    detail = {"cycles": report.cycles, "instructions": report.instructions}
    return mismatches, {**detail, "ipc": round(report.ipc, 4)}


def _architectural_state(ref: Leg, cand: Leg) -> tuple[list[str], dict[str, Any]]:
    """Every warp's integer and FP registers and retired count, and all memory."""
    mismatches = []
    if ref.value.memory.page_snapshot() != cand.value.memory.page_snapshot():
        mismatches.append("memory: page snapshots differ")
    warps = [
        [warp for core in leg.value.driver.processor.cores for warp in core.warps]
        for leg in (ref, cand)
    ]
    for index, (a, b) in enumerate(zip(*warps)):
        if not (
            np.array_equal(a.regs._int_regs, b.regs._int_regs)
            and np.array_equal(a.regs._fp_regs, b.regs._fp_regs)
            and a.instructions == b.instructions
        ):
            mismatches.append(f"warp {index}: registers or retired count differ")
    return mismatches, {"instructions": cand.report.instructions}


def _framebuffers(ref: Leg, cand: Leg) -> tuple[list[str], dict[str, Any]]:
    a, b = ref.value, cand.value
    mismatches = []
    if not np.array_equal(a.framebuffer.color, b.framebuffer.color):
        mismatches.append("framebuffer color differs")
    # Depth compares as bit patterns, so NaN and -0.0 must match too.
    if not np.array_equal(*(ctx.framebuffer.depth.view(np.uint32) for ctx in (a, b))):
        mismatches.append("framebuffer depth differs")
    written = a.fragment_ops.fragments_written
    if written != b.fragment_ops.fragments_written:
        mismatches.append(f"fragments written: {written} != {b.fragment_ops.fragments_written}")
    fragments = a.fragment_ops.fragments_in
    detail = {
        "fragments": fragments,
        "fragments_written": written,
        "reference_fragments_per_second": round(fragments / ref.seconds, 1),
        "candidate_fragments_per_second": round(fragments / cand.seconds, 1),
    }
    return mismatches, detail


def _traced(ref: Leg, cand: Leg) -> tuple[list[str], dict[str, Any]]:
    """The traced run matches the untraced one, and its stream reconciles."""
    mismatches, detail = _counters(ref, cand)
    driver = ref.value.driver
    events = list(driver.trace_sink.events)
    return mismatches + reconcile(events, driver.processor), {**detail, "events": len(events)}


def _round_trip(fmt: str, ref: Leg, cand: Leg) -> tuple[list[str], dict[str, Any]]:
    events = list(ref.value.driver.trace_sink.events)
    if fmt == "csv":
        identical = parse_csv(cand.value) == events
    else:
        identical = parse_vcd(cand.value) == vcd_changes(events)
    mismatches = [] if identical else [f"the {fmt} sink does not round-trip the stream"]
    return mismatches, {"events": len(events)}


def _same_intervals(ref: Leg, cand: Leg) -> tuple[list[str], dict[str, Any]]:
    """Two sampled runs replay identical intervals (index, start and counters)."""
    identical = ref.value.intervals == cand.value.intervals
    mismatches = [] if identical else ["sampled interval counters differ between runs"]
    return mismatches, ref.value.to_payload()


def _differential(ref: Leg, cand: Leg) -> tuple[list[str], dict[str, Any]]:
    detail = {"cycles": cand.report.cycles, "instructions": cand.report.instructions}
    return list(cand.value.mismatches), detail


def _batch_mismatches(
    reference: list[JobResult], candidate: list[JobResult], diff: Callable[..., list[str]]
) -> list[str]:
    mismatches = []
    for a, b in zip(reference, candidate):
        if a.ok and b.ok:
            mismatches += [f"{a.job.label}: {m}" for m in diff(a.report, b.report)]
        else:
            mismatches.append(f"{a.job.label}: {a.error or b.error or 'failed verification'}")
    return mismatches


def _payload_diff(a: Any, b: Any) -> list[str]:
    """The whole report payload, host wall time included: a cached replay is a copy."""
    return [] if a.to_payload() == b.to_payload() else ["report payloads differ"]


def _cached_replay(ref: Leg, cand: Leg) -> tuple[list[str], dict[str, Any]]:
    mismatches = _batch_mismatches(ref.value, cand.value, _payload_diff)
    uncached = [result.job.label for result in cand.value if not result.cached]
    mismatches += [f"{label}: not served from the cache" for label in uncached]
    speedup = ref.seconds / cand.seconds
    if speedup < MIN_CACHED_REPLAY_SPEEDUP:
        mismatches.append(
            f"cached replay is {speedup:.1f}x faster, below {MIN_CACHED_REPLAY_SPEEDUP:.0f}x"
        )
    jobs = len(ref.value)
    detail = {
        "jobs": jobs,
        "cold_jobs_per_second": round(jobs / ref.seconds, 1),
        "cached_jobs_per_second": round(jobs / cand.seconds, 1),
    }
    return mismatches, detail


def _crash_recovery(ref: Leg, cand: Leg) -> tuple[list[str], dict[str, Any]]:
    stats = cand.report
    detail = {
        "jobs": len(cand.value),
        "workers_killed": stats["workers_killed"],
        "worker_crashes": stats["worker_crashes"],
        "respawns": stats["respawns"],
        "retries": stats["retries"],
        "max_attempts_observed": max(r.attempts for r in cand.value),
    }
    if not stats["workers_killed"]:
        return [], {**detail, "skipped": "no process workers on this platform"}
    mismatches = _batch_mismatches(ref.value, cand.value, diff_execution_reports)
    if stats["worker_crashes"] < 1:
        mismatches.append("no worker crash observed (the kill landed too late)")
    return mismatches, detail


# -- the registry -----------------------------------------------------------------------


def _config(
    warps: int = 4,
    threads: int = 4,
    *,
    kib: int = 16,
    banks: int = 4,
    ports: int = 1,
    latency: int = 100,
    bandwidth: int = 1,
    **extra: Any,
) -> VortexConfig:
    """Defaults: the stall-heavy 16 KiB, 4-bank, 1-port D$ before 100-cycle DRAM."""
    return VortexConfig(
        dcache=CacheConfig(size=kib * 1024, num_banks=banks, num_ports=ports),
        memory=MemoryConfig(latency=latency, bandwidth=bandwidth),
        **extra,
    ).with_warps_threads(warps, threads)


def _kernel(
    group: str,
    legs: tuple[str, str],
    check: Check,
    name: str,
    kernel: str,
    size: int,
    config: VortexConfig,
    timed: bool = False,
) -> Scenario:
    """A kernel run on the reference driver spec and on the candidate one."""
    reference, candidate = legs
    pair = partial(
        _both,
        partial(_run_kernel, reference, kernel, size, config),
        partial(_run_kernel, candidate, kernel, size, config),
    )
    return Scenario(group, name, reference, candidate, pair, check, timed)


#: The pre-optimization request path: per-lane sends, every cycle ticked.
PERLANE = "simx:fastforward=off,requests=perlane"


def _scenarios() -> list[Scenario]:
    engine = partial(
        _kernel, "engine", ("funcsim:engine=scalar", "funcsim"), _architectural_state
    )
    timing = partial(_kernel, "timing", ("simx:engine=scalar", "simx"), _counters)
    fastforward = partial(_kernel, "fastforward", (PERLANE, "simx"), _counters)
    traced = partial(_kernel, "trace", ("simx:trace=mem", "simx"), _traced)
    # Wide porting keeps the retry traffic both engines pay from drowning
    # the execute stage: the emulation-bound regime the vector engine targets.
    hit_friendly = _config(4, 32, kib=64, banks=8, ports=8, latency=10, bandwidth=8)
    wide_ported = _config(4, 32, kib=64, banks=8, ports=8, latency=10)
    four_cores = replace(wide_ported, num_cores=4, enable_l2=True)
    retry_wall = _config(8, 32, latency=800, bandwidth=4)
    port_limited = _config(8, 32, latency=400, bandwidth=4)
    port_limited_l2l3 = _config(4, 32, latency=400, bandwidth=4, enable_l2=True, enable_l3=True)
    base = _config()
    gto = base.with_scheduler_policy("greedy-then-oldest")
    l2 = base.with_cache_hierarchy(enable_l2=True)
    l2l3 = base.with_cache_hierarchy(enable_l2=True, enable_l3=True)

    scenarios = [
        engine(
            f"{kernel}@{size}:{warps}W-{threads}T",
            kernel,
            size,
            VortexConfig().with_warps_threads(warps, threads),
            timed=True,
        )
        for kernel, size in (("vecadd", 8192), ("sgemm", 24 * 24))
        for warps, threads in ((4, 4), (4, 8), (8, 8))
    ]
    legs = ("scalar", "vector")
    for name, filter_mode, mipmaps in (
        ("textured_triangles_alpha_blend_bilinear", TexFilter.BILINEAR, False),
        ("textured_triangles_trilinear_mipmapped", TexFilter.TRILINEAR, True),
    ):
        scalar = partial(_render, "scalar", filter_mode, mipmaps)
        vector = partial(_render, "vector", filter_mode, mipmaps)
        pair = partial(_both, scalar, vector)
        scenarios.append(Scenario("graphics", name, *legs, pair, _framebuffers, timed=True))
    scenarios += [
        timing("simx_sfilter_4w32t", "sfilter", 24 * 24, hit_friendly, timed=True),
        timing("simx_sgemm_4w32t", "sgemm", 20 * 20, hit_friendly, timed=True),
        # One port against 32-thread warps is the retry wall the batched
        # requests and the fast-forward attack; the first two rows are timed.
        fastforward("simx_sgemm_1p32t", "sgemm", 16 * 16, retry_wall, timed=True),
        fastforward("simx_sfilter_1p32t", "sfilter", 16 * 16, retry_wall, timed=True),
        fastforward("sgemm_1p32t", "sgemm", 12 * 12, port_limited),
        fastforward("sfilter_1p32t", "sfilter", 12 * 12, port_limited),
        fastforward("sgemm_1p32t_l2l3", "sgemm", 8 * 8, port_limited_l2l3),
        # Stores back up behind the full DRAM queue: whole tails are refused.
        fastforward("vecadd_1p32t_dram800", "vecadd", 256, _config(8, 32, latency=800)),
        fastforward("sgemm_8p32t_64k", "sgemm", 16 * 16, wide_ported),
        # The cores share an L2 whose full DRAM queue refuses store batches.
        fastforward("sgemm_4c_l2_8p32t", "sgemm", 16 * 16, four_cores),
        traced("trace_sfilter_4w32t", "sfilter", 24 * 24, hit_friendly, timed=True),
        traced("trace_sgemm_4w32t", "sgemm", 20 * 20, hit_friendly, timed=True),
        traced("trace_sgemm_8w4t", "sgemm", 24 * 24, _config(8, 4), timed=True),
    ]
    for fmt in ("csv", "vcd"):
        pair = partial(_sink_pair, fmt, "sgemm", 24 * 24, _config(8, 4))
        legs = ("simx:trace=mem", f"simx:trace={fmt}")
        check = partial(_round_trip, fmt)
        scenarios.append(Scenario("trace", f"trace_{fmt}_sgemm_8w4t", *legs, pair, check))
    for kernel, size in (("vecadd", 256), ("sgemm", 8 * 8), ("sfilter", 8 * 8)):
        for driver in ("simx", "funcsim"):
            job = KernelJob(kernel=kernel, config=base, driver=driver, size=size)
            restarted = replace(job, restart_midpoint=True)
            pair = partial(_both, partial(_run_job, job), partial(_run_job, restarted))
            legs = (driver, f"{driver} restart_midpoint")
            name = f"restore_replay_{kernel}_{driver}"
            scenarios.append(Scenario("checkpoint", name, *legs, pair, _counters))
    sampled = partial(_sampled, "sgemm", 8 * 8, base)
    pair = partial(_both, sampled, sampled)
    legs = ("sampled", "sampled rerun")
    scenarios.append(Scenario("checkpoint", "sampled_sgemm", *legs, pair, _same_intervals))
    legs = ("simx:engine=scalar", "simx:engine=vector + restart_midpoint")
    for label, kernel, size, config in (
        ("sgemm_baseline", "sgemm", 8 * 8, base),
        ("sfilter_2port", "sfilter", 8 * 8, base.with_dcache_ports(2)),
        ("vecadd_gto_policy", "vecadd", 128, gto),
        ("sgemm_l2", "sgemm", 8 * 8, l2),
        ("sfilter_l2l3", "sfilter", 8 * 8, l2l3),
    ):
        job = KernelJob(kernel=kernel, config=config, size=size, label=label)
        pair = partial(_differential_pair, job)
        scenarios.append(Scenario("differential", label, *legs, pair, _differential))
    batch = [
        KernelJob(kernel="vecadd", config=base, size=128, label="vecadd_base"),
        KernelJob(kernel="saxpy", config=base, size=128, label="saxpy_base"),
        KernelJob(kernel="sgemm", config=base, size=8 * 8, label="sgemm_base"),
        KernelJob(kernel="sfilter", config=base, size=8 * 8, label="sfilter_base"),
        KernelJob(kernel="vecadd", config=gto, size=128, label="vecadd_gto"),
        KernelJob(kernel="sgemm", config=l2, size=8 * 8, label="sgemm_l2"),
    ]
    pair = partial(_cold_cached_pair, batch)
    legs = ("cold", "cached")
    name = "service_cold_vs_cached"
    scenarios.append(Scenario("service", name, *legs, pair, _cached_replay, timed=True))
    # Long enough (seconds) that the kill lands on pending work.
    crash = [KernelJob(kernel="sgemm", size=n, label=f"sgemm_{n}") for n in range(64, 104, 4)]
    pair = partial(_both, partial(_crash_leg, crash, False), partial(_crash_leg, crash, True))
    legs = ("undisturbed", "workers SIGKILLed")
    name = "service_crash_recovery"
    scenarios.append(Scenario("service", name, *legs, pair, _crash_recovery))
    return scenarios


SCENARIOS = _scenarios()
GROUPS = tuple(dict.fromkeys(scenario.group for scenario in SCENARIOS))


# -- runner -----------------------------------------------------------------------------


def run_scenario(scenario: Scenario) -> dict[str, Any]:
    """Run both legs (best-of-``REPS`` when timed), check them, emit one row."""
    row: dict[str, Any] = {
        "group": scenario.group,
        "scenario": scenario.name,
        "reference": scenario.reference,
        "candidate": scenario.candidate,
        "reference_seconds": None,
        "candidate_seconds": None,
        "speedup": None,
        "identical": False,
        "mismatches": [],
        "errors": [],
        "detail": {},
    }
    best = [math.inf, math.inf]
    try:
        for _ in range(REPS if scenario.timed else 1):
            ref, cand = scenario.pair()
            best = [min(best[0], ref.seconds), min(best[1], cand.seconds)]
        ref, cand = replace(ref, seconds=best[0]), replace(cand, seconds=best[1])
        mismatches, detail = scenario.check(ref, cand)
    except Exception as exc:  # one broken scenario must not hide the others
        traceback.print_exc()
        row["errors"] = [f"{type(exc).__name__}: {exc}"]
        return row
    row.update(
        reference_seconds=round(ref.seconds, 4),
        candidate_seconds=round(cand.seconds, 4),
        identical=not mismatches,
        mismatches=mismatches,
        detail=detail,
    )
    if scenario.timed:
        row["speedup"] = round(ref.seconds / cand.seconds, 2)
    return row


# -- gate -------------------------------------------------------------------------------


def _load(path: Path) -> dict[str, Any]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path.name}: not a readable JSON payload ({exc})") from exc
    rows = payload.get("results") if isinstance(payload, dict) else None
    if not isinstance(rows, list) or not all(
        isinstance(row, dict) and "group" in row and "scenario" in row for row in rows
    ):
        raise ValueError(f"{path.name}: needs a results list of rows with group and scenario")
    return payload


def _gate(current: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    rows = {f"{row['group']}/{row['scenario']}": row for row in current["results"]}
    failures = [] if rows else ["the run has no result rows to check"]
    for key, row in rows.items():
        if not isinstance(row.get("identical"), bool):
            failures.append(f"{key}: carries no identity flag")
        elif not row["identical"]:
            failures.append(f"{key}: candidate diverged from the reference")
            failures += [f"{key}:   {mismatch}" for mismatch in row.get("mismatches", [])]
        failures += [f"{key}: errored: {error}" for error in row.get("errors", [])]
    ran = {row["group"] for row in current["results"]}
    for base in baseline["results"]:
        key = f"{base['group']}/{base['scenario']}"
        if base["group"] not in ran:
            continue
        row = rows.get(key)
        if row is None:
            failures.append(f"{key}: missing from the run")
            continue
        floor, committed = FLOORS.get(base["group"]), base.get("speedup")
        if floor is None or committed is None:
            continue
        speedup, required = row.get("speedup"), floor * committed
        ok = isinstance(speedup, int | float) and speedup >= required
        print(
            f"  {key:52s} committed={committed:7.2f}x current={speedup}x "
            f"floor={required:.2f}x {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"{key}: speedup {speedup}x is below the floor {required:.2f}x "
                f"({floor:.0%} of the committed {committed:.2f}x)"
            )
    return failures


def check_regression(current: Path, baseline: Path | None = None) -> int:
    """Gate the payload at ``current`` (against ``baseline``); 0 means green."""
    try:
        committed = _load(baseline) if baseline else {"results": []}
        failures = _gate(_load(current), committed)
    except ValueError as exc:
        failures = [str(exc)]
    if failures:
        print(f"smoke gate FAILED ({len(failures)} problem(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("smoke gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--group",
        action="append",
        choices=GROUPS,
        help="run only this group (repeatable; default: all)",
    )
    parser.add_argument("--out", type=Path, help="write the run's payload here")
    args = parser.parse_args(argv)
    groups = args.group or GROUPS

    rows = []
    for scenario in SCENARIOS:
        if scenario.group in groups:
            row = run_scenario(scenario)
            rows.append(row)
            speedup = f"{row['speedup']:.2f}x" if row["speedup"] is not None else "-"
            status = "identical" if row["identical"] else "FAILED"
            print(f"{row['group']:12s} {row['scenario']:40s} {speedup:>9s} {status}")
    payload = {
        "benchmark": "smoke: reference vs candidate legs",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": rows,
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp) / "smoke.json"
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return check_regression(out, BASELINE)


if __name__ == "__main__":
    sys.exit(main())
