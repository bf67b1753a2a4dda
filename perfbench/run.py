"""Benchmark entry point: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload simx_wide_hit --seed 1 --seconds 28 --trace 0

Run from the repository root.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
from passes run alternately with the layer wrappers off and on.  The full
result, the raw (unscaled) figures, the host record and, traced, the spans go
to ``perfbench/out/``.  See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Seed used when none is given, and for the figures in ``perfbench/METRICS.md``.
DEFAULT_SEED = 1
#: Units of host time (multiplied by the reference factor) and of rates over it (divided).
TIME_UNITS = ("s", "ms")
RATE_UNITS = ("cycles/s", "instr/s", "1/s")


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources at {src}/repro; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]


def host_record(speed: Any) -> dict[str, Any]:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "calibration_s": speed.median_s,
        "calibration_passes": len(speed.samples),
        "reference_factor": speed.factor,
    }


def to_reference(metrics: dict[str, float], units: dict[str, str], factor: float) -> dict[str, float]:
    """Host times and rates over host time in reference units; other figures unchanged."""
    scaled = {}
    for name, value in metrics.items():
        if units[name] in TIME_UNITS:
            value *= factor
        elif units[name] in RATE_UNITS:
            value /= factor
        scaled[name] = value
    return scaled


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident memory of this process, or of its largest reaped child process."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- set-up time -----------------------------------------------------------------------------------


def probe(workload: str) -> None:
    """Child side of a set-up probe: import, first device, assembly (and fleet start)."""
    _use_checkout_sources()
    from perfbench import workloads
    from repro.runtime.device import VortexDevice

    if workload == "sweep_service":
        import asyncio

        from repro.service.server import ServiceConfig, SimulationService

        VortexDevice(workloads.baseline_config(), driver="simx")
        workloads.service_stream(DEFAULT_SEED)  # keying every job assembles every program

        async def fleet() -> None:
            service = SimulationService(
                ServiceConfig(num_shards=workloads.SERVICE_SHARDS, worker_mode="process")
            )
            await service.start()
            await service.close()

        asyncio.run(fleet())
    else:
        specs = workloads.LAUNCHES[workload]
        VortexDevice(specs[0].config_factory(), driver="simx")
        for spec in specs:
            spec.make_kernel().build_program()
    print("ready", flush=True)


def setup_seconds(workload: str, speed: Any) -> tuple[float, float]:
    """Median (reference, raw) seconds from spawning a fresh interpreter to a set-up probe."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        factor = speed.factor_now()
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe", workload],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = child.stdout.readline() if child.stdout is not None else ""
        elapsed = perf_counter() - start
        child.communicate(timeout=60)
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed (exit {child.returncode})")
        scaled.append(elapsed * factor)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


# -- end-to-end runs -------------------------------------------------------------------------------


def simx_end_to_end(
    name: str, seed: int, seconds: float, outcome: Any, speed: Any
) -> tuple[dict[str, float], dict[str, float]]:
    """(reference, raw) end-to-end metrics: passes until ``seconds`` run out."""
    from perfbench import workloads
    from perfbench.spans import Tracer

    workload = workloads.SimxWorkload(name, seed, Tracer(), outcome, speed)
    deadline = perf_counter() + seconds
    results = workload.run_pass()  # the first pass always completes
    while perf_counter() < deadline:
        results += workload.run_pass(deadline)
    memory = {"peak_rss_mb": peak_rss_mb()}
    return (
        {**workloads.simx_end_to_end(results), **memory},
        {**workloads.simx_end_to_end(results, scaled=False), **memory},
    )


def service_end_to_end(seed: int, seconds: float, outcome: Any) -> dict[str, float]:
    """End-to-end metrics over rounds run until ``seconds`` run out, in host seconds.

    Not scaled to reference seconds: the two workers keep both CPUs busy, and
    the single-threaded calibration pass did not track their speed (10-run
    spread of ``jobs_per_s``: 9% raw, 13% scaled).
    """
    from perfbench import workloads

    workload = workloads.ServiceWorkload(seed, outcome)
    start = perf_counter()
    rounds = [workload.run_round()]
    # Start another round only if it is expected to end within the run's seconds.
    while perf_counter() - start + rounds[0].wall_s <= seconds:
        rounds.append(workload.run_round())
    # This process plus its largest worker (the workers are reaped at each round's end).
    memory = peak_rss_mb() + peak_rss_mb(resource.RUSAGE_CHILDREN)
    return {**workloads.service_end_to_end(rounds), "peak_rss_mb": memory}


# -- traced runs -----------------------------------------------------------------------------------


def _alternate(seconds: float, run_one: Any) -> tuple[list, list]:
    """Whole passes with the wrappers off and on in turn, at least one of each."""
    untraced: list = []
    traced: list = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        use_trace = len(traced) < len(untraced)
        (traced if use_trace else untraced).append(run_one(use_trace))
    return untraced, traced


def simx_layers(name: str, seed: int, seconds: float, outcome: Any, speed: Any) -> dict[str, float]:
    """Per-layer metrics (host seconds, not yet scaled) of one SIMX workload."""
    from perfbench import layers, stats, workloads
    from perfbench.spans import Tracer

    tracer = Tracer()
    workload = workloads.SimxWorkload(name, seed, tracer, outcome, speed)
    targets = layers.targets()

    def run_one(traced: bool) -> tuple[float, list]:
        """One pass: the operations' own seconds (calibration passes excluded) and results."""
        if traced:
            tracer.install(targets)
            tracer.enabled = True
        try:
            results = workload.run_pass()
        finally:
            tracer.enabled = False
            tracer.uninstall()
        return sum(r.wall_s for r in results), results

    untraced, traced = _alternate(seconds, run_one)
    count = len(traced)
    layer = workloads.simx_counts(traced[0][1])
    self_s = tracer.self_seconds()
    for layer_name in layers.LAYERS:
        metric = {"isa": "isa.assemble_s", "kernels": "kernels.host_s"}.get(
            layer_name, f"{layer_name}.self_s"
        )
        layer[metric] = self_s.get(layer_name, 0.0) / count
    launch_cycles = sum(r.report.cycles for _, results in traced for r in results if not r.sampled)
    layer["core.ticked_cycle_ratio"] = stats.ratio(
        tracer.calls("TimingProcessor.tick", "launch:"), launch_cycles
    )
    layer["cache.send_batch_calls"] = tracer.calls("NonBlockingCache.send_batch") / count
    engine_s = tracer.inclusive("VectorWarpEmulator.step_timing") + tracer.inclusive("FuncSimDriver.run")
    funcsim_instr = sum(r.report.total_instructions for _, results in traced for r in results if r.sampled)
    layer["engine.warp_instr_per_s"] = stats.ratio(
        tracer.calls("VectorWarpEmulator.step_timing") + funcsim_instr, engine_s
    )
    if workload.sampled:
        sampled_s = tracer.inclusive("SampledRun.run")
        replay_s = tracer.inclusive_under(
            "SampledRun.run",
            {"SimxDriver.__init__", "TimingProcessor.adopt_architectural", "TimingProcessor.run"},
        )
        layer["sampling.sampled_s"] = sampled_s / count
        layer["sampling.replay_s"] = replay_s / count
        layer["sampling.fastforward_s"] = (sampled_s - replay_s) / count
    layer["trace.overhead_ratio"] = statistics.median(w for w, _ in traced) / statistics.median(
        w for w, _ in untraced
    )
    layer["trace.attributed_share"] = stats.ratio(
        sum(self_s.get(name, 0.0) for name in layers.LAYERS), sum(wall for wall, _ in traced)
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"{name}-seed{seed}.spans.jsonl"))
    return layer


def service_layers(seed: int, seconds: float, outcome: Any) -> dict[str, float]:
    """Per-layer metrics of ``sweep_service``, in host seconds (see ``service_end_to_end``)."""
    from perfbench import stats, workloads

    workload = workloads.ServiceWorkload(seed, outcome)
    recorder = workloads.DispatchRecorder()
    untraced, traced = _alternate(seconds, lambda use: workload.run_round(recorder if use else None))
    executed = [r for round_ in traced for r in round_.records if not r.result.cached]
    hits = [r for round_ in traced for r in round_.records if r.result.cached]
    dispatch = {label: times for round_ in traced for label, times in round_.dispatch.items()}
    queue_ms, transport_ms = [], []
    for record in executed:
        dispatched, returned = dispatch[record.result.job.label]
        queue_ms.append((dispatched - record.submit_wall) * 1e3)
        transport_ms.append((returned - dispatched - record.result.wall_seconds) * 1e3)
    latency_ms = [r.latency_s * 1e3 for r in executed]
    busy_s = [
        stats.covered_seconds([(r.submit_wall, r.submit_wall + r.latency_s) for r in round_.records])
        for round_ in traced
    ]
    rounds = len(traced)
    layer = {
        "service.self_s": statistics.mean(busy_s),
        "service.queue_wait_ms_p50": stats.percentile(queue_ms, 50),
        "service.transport_ms_p50": stats.percentile(transport_ms, 50),
        "service.execute_ms_p50": stats.percentile([r.result.wall_seconds * 1e3 for r in executed], 50),
        "service.hit_latency_ms_p50": stats.percentile([r.latency_s * 1e3 for r in hits], 50),
        "service.job_latency_p50_ms": stats.percentile(latency_ms, 50),
        "service.job_latency_p90_ms": stats.percentile(latency_ms, 90),
        "service.cache_hit_rate": stats.ratio(
            sum(r.stats["cache"]["hits"] for r in traced), sum(r.stats["submitted"] for r in traced)
        ),
        "service.retries": sum(r.stats["retries"] for r in traced) / rounds,
        "service.inflight_dedup": sum(r.stats["cache"]["inflight_dedup"] for r in traced) / rounds,
        "trace.overhead_ratio": statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced),
        "trace.attributed_share": sum(busy_s) / sum(r.wall_s for r in traced),
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"sweep_service-seed{seed}.spans.jsonl", "w", encoding="utf-8") as handle:
        for round_ in traced:
            for record in round_.records:
                result = record.result
                span = {
                    "kind": "job",
                    "op": result.job.label,
                    "key": record.key,
                    "submit": record.submit_wall,
                    "done": record.submit_wall + record.latency_s,
                    "cached": result.cached,
                    "started": result.started_at,
                    "finished": result.finished_at,
                    "execute_s": result.wall_seconds,
                }
                if result.job.label in dispatch:
                    span["dispatch"], span["return"] = dispatch[result.job.label]
                handle.write(json.dumps(span) + "\n")
    return layer


# -- entry point -----------------------------------------------------------------------------------


def load_metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """``name -> unit`` of the end-to-end and of the per-layer metrics in ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    _use_checkout_sources()
    from perfbench import workloads
    from perfbench.clock import HostSpeed

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    end_units, layer_units = load_metric_units()
    service = args.workload == "sweep_service"
    speed = HostSpeed()
    speed.sample(3)  # for the host record, whatever the workload
    outcome = workloads.Outcome()

    if args.trace:
        if service:
            measured = service_layers(args.seed, args.seconds, outcome)
        else:
            measured = simx_layers(args.workload, args.seed, args.seconds, outcome, speed)
        # A layer the workload does not exercise reads 0.
        raw = {name: measured.get(name, 0.0) for name in layer_units}
        factor = 1.0 if service else speed.factor
        metrics, units = to_reference(raw, layer_units, factor), layer_units
    else:
        setup_s, setup_raw = setup_seconds(args.workload, speed)
        if service:
            metrics = service_end_to_end(args.seed, args.seconds, outcome)
            raw = dict(metrics)
        else:
            metrics, raw = simx_end_to_end(args.workload, args.seed, args.seconds, outcome, speed)
        metrics["setup_s"], raw["setup_s"] = setup_s, setup_raw
        units = end_units
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")

    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    host = host_record(speed)
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "failures": outcome.failures[:50],
        "raw_metrics": {name: raw[name] for name in units},
        "result": result,
    }
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for failure in outcome.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
