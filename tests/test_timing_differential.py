"""Differential tests: the vectorized SIMX timing engine vs the scalar reference.

``TimingCore(engine="vector")`` executes issued warps through the vectorized
emulator's compiled whole-warp lane plans; ``engine="scalar"`` steps the
per-thread reference emulator.  The timing model (scheduler, scoreboard,
latencies, caches, MSHRs) is shared, so the two engines must report
**bit-identical** cycles, instruction counts and every performance counter
on every configuration the paper's figures sweep.

The Figure 14 (core design points), Figure 19 (virtual multi-port caches)
and multicore/divergence scenarios run through the first-class sweep API —
``Session.run_differential`` — which is exactly the "run on both engines and
diff every counter" check these tests used to hand-roll per scenario.  The
texture scenarios build ad-hoc kernels, so they diff reports directly.
"""

from __future__ import annotations

import pytest

from repro.common.config import CORE_DESIGN_POINTS, CacheConfig, MemoryConfig, VortexConfig
from repro.engine.session import KernelJob, Session, diff_execution_reports
from repro.kernels.texture import hardware_texture_kernel, software_texture_kernel
from repro.runtime.device import VortexDevice


def _fig_config(
    num_cores: int = 1,
    num_warps: int = 4,
    num_threads: int = 4,
    dcache_ports: int = 1,
) -> VortexConfig:
    """The benchmark harness's configuration shape (see benchmarks/harness.py)."""
    return VortexConfig(
        num_cores=num_cores,
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=dcache_ports),
        memory=MemoryConfig(latency=100, bandwidth=1),
    ).with_warps_threads(num_warps, num_threads)


def _differential(kernel: str, size: int, config: VortexConfig):
    """One job through the sweep API; returns the per-job differential result."""
    report = Session(executor="serial").run_differential(
        [KernelJob(kernel=kernel, size=size, config=config)]
    )
    (result,) = report.results
    assert result.ok, (result.scalar.error, result.vector.error)
    assert result.identical_counters, result.mismatches
    assert report.identical_counters
    return result


# -- Figure 14: core design-space points ------------------------------------------------


@pytest.mark.parametrize("label", list(CORE_DESIGN_POINTS))
def test_fig14_design_points_bit_identical(label):
    warps, threads = CORE_DESIGN_POINTS[label]
    config = _fig_config(num_warps=warps, num_threads=threads)
    result = _differential("sgemm", 8 * 8, config)
    assert result.scalar.report.engine == "timing-scalar"
    assert result.vector.report.engine == "timing-vector"


@pytest.mark.parametrize("kernel,size", [("vecadd", 128), ("saxpy", 128), ("nearn", 128)])
def test_fig14_kernels_bit_identical(kernel, size):
    _differential(kernel, size, _fig_config())


# -- Figure 19: virtual multi-port caches ------------------------------------------------


@pytest.mark.parametrize("ports", [1, 2, 4])
def test_fig19_port_counts_bit_identical(ports):
    config = _fig_config(dcache_ports=ports)
    result = _differential("sfilter", 8 * 8, config)
    # The Figure 19 metric itself (bank utilization inputs) must agree.
    scalar, vector = result.scalar.report, result.vector.report
    assert scalar.counters["dcache0"].get("bank_conflicts", 0) == vector.counters[
        "dcache0"
    ].get("bank_conflicts", 0)


# -- Figure 20: texture acceleration ------------------------------------------------------


@pytest.mark.parametrize("mode", ["point", "bilinear", "trilinear"])
@pytest.mark.parametrize("use_hw", [True, False])
def test_fig20_texture_modes_bit_identical(mode, use_hw):
    config = _fig_config()

    def run(driver):
        kernel = hardware_texture_kernel(mode) if use_hw else software_texture_kernel(mode)
        device = VortexDevice(config, driver=driver)
        run = kernel.run(device, size=16 * 16)
        assert run.passed
        return run.report

    scalar = run("simx:engine=scalar")
    vector = run("simx")
    assert diff_execution_reports(scalar, vector) == []


# -- multicore + barriers -----------------------------------------------------------------


def test_multicore_global_barriers_bit_identical():
    _differential("sgemm", 8 * 8, _fig_config(num_cores=2))


def test_divergent_kernel_bit_identical():
    """bfs diverges (split/join) and communicates through memory flags."""
    _differential("bfs", 64, _fig_config())


# -- scheduler policies: identical across engines on every policy -------------------------


@pytest.mark.parametrize(
    "policy", ["greedy-then-oldest", "loose-round-robin", "cache-locality"]
)
def test_scheduler_policies_bit_identical_across_engines(policy):
    """The policy axis changes the schedule, not the engines' agreement."""
    config = _fig_config().with_scheduler_policy(policy)
    _differential("sgemm", 8 * 8, config)


# -- retry wall: port-limited configs through the batched + fast-forward path -------------


@pytest.mark.parametrize("kernel", ["sgemm", "sfilter"])
def test_port_limited_retry_wall_bit_identical(kernel):
    """1 port x 32 threads — the retry-storm regime the batched request path
    and the cycle fast-forward target — must stay bit-identical."""
    config = _fig_config(num_warps=4, num_threads=32, dcache_ports=1)
    _differential(kernel, 8 * 8, config)


# -- L2/L3 hierarchy: multi-level fills under the differential microscope -----------------


@pytest.mark.parametrize(
    "enable_l2,enable_l3", [(True, False), (True, True)], ids=["l2", "l2l3"]
)
def test_cache_hierarchy_bit_identical(enable_l2, enable_l3):
    config = _fig_config().with_cache_hierarchy(enable_l2=enable_l2, enable_l3=enable_l3)
    result = _differential("sgemm", 8 * 8, config)
    counters = result.vector.report.counters
    assert "l2_0" in counters and counters["l2_0"].get("attempts", 0) > 0
    assert ("l3" in counters) == enable_l3


# -- fast-forward / batched-request knobs: every combination agrees ------------------------


@pytest.mark.parametrize(
    "driver",
    [
        "simx:fastforward=off",
        "simx:requests=perlane",
        "simx:fastforward=off,requests=perlane",
    ],
)
@pytest.mark.parametrize("hierarchy", [False, True], ids=["l1", "l2l3"])
def test_fastforward_and_request_knobs_bit_identical(driver, hierarchy):
    """Toggling the batched path or the fast-forward must never change a
    single cycle or counter — they are pure host-speed optimizations."""
    from repro.kernels import KERNELS

    config = _fig_config(num_warps=4, num_threads=32, dcache_ports=1)
    if hierarchy:
        config = config.with_cache_hierarchy(enable_l2=True, enable_l3=True)

    def run(spec):
        device = VortexDevice(config, driver=spec)
        run = KERNELS["sgemm"]().run(device, size=8 * 8)
        assert run.passed
        return run.report

    assert diff_execution_reports(run(driver), run("simx")) == []


def test_fastforward_and_request_knob_validation():
    from repro.runtime.simx import SimxDriver

    config = _fig_config()
    driver = SimxDriver(config, fastforward="off", requests="perlane")
    assert driver.processor.fast_forward is False
    assert driver.processor.cores[0].batch_requests is False
    assert SimxDriver(config).processor.fast_forward is True
    assert SimxDriver(config).processor.cores[0].batch_requests is True
    with pytest.raises(ValueError):
        SimxDriver(config, fastforward="sometimes")
    with pytest.raises(ValueError):
        SimxDriver(config, requests="vectorized")
    # The knobs are reachable through a driver spec string as well.
    device = VortexDevice(config, driver="simx:fastforward=off,requests=perlane")
    assert device.driver.processor.fast_forward is False
    assert device.driver.processor.cores[0].batch_requests is False


def test_timing_engine_knob_and_report_tagging():
    """The driver knob is reachable via the spec string and via kwargs."""
    from repro.kernels import KERNELS
    from repro.runtime.simx import SimxDriver

    config = _fig_config()

    def run(driver):
        device = VortexDevice(config, driver=driver)
        run = KERNELS["vecadd"]().run(device, size=64)
        assert run.passed
        return run.report

    assert run("simx:engine=scalar").engine == "timing-scalar"
    assert run("simx").engine == "timing-vector"
    driver = SimxDriver(config, engine="scalar")
    assert driver.processor.cores[0].engine == "scalar"
    with pytest.raises(ValueError):
        SimxDriver(config, engine="warp")


# -- port-stall regime: sticky refusal storms through the run-granular cache path ---------


def _port_stall_config() -> VortexConfig:
    """The benchmark's stall point: 1-port 16 KiB D$, 800-cycle DRAM, 32 threads."""
    return VortexConfig(
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
        memory=MemoryConfig(latency=800),
    ).with_warps_threads(4, 32)


@pytest.mark.parametrize("kernel,size", [("vecadd", 64), ("sgemm", 8 * 8)])
def test_port_stall_regime_bit_identical(kernel, size):
    """Whole-run refusals (bank conflicts, sticky DRAM-queue refusals of
    reads and of the store tail) must leave reports and the per-attempt
    dcache/dram event streams exactly as the per-lane, fully ticked run
    produces them."""
    from repro.kernels import KERNELS
    from repro.trace.events import expand_skips

    def run(spec):
        device = VortexDevice(_port_stall_config(), driver=spec)
        run = KERNELS[kernel]().run(device, size=size)
        assert run.passed
        return run.report, expand_skips(device.driver.trace_sink.events)

    traced = "trace=mem,trace_channels=dcache+dram"
    report, events = run(f"simx:{traced}")
    assert events
    for knob in ("requests=perlane", "fastforward=off"):
        other_report, other_events = run(f"simx:{knob},{traced}")
        assert diff_execution_reports(other_report, report) == [], knob
        assert other_events == events, knob


# -- multi-core L2 store storm: blocked write-throughs refused in bulk ---------------------


@pytest.mark.parametrize("num_cores", [2, 4])
def test_multicore_l2_store_storm_bit_identical(num_cores):
    """Cores sharing an L2 over a full DRAM queue: every L1 store batch is
    refused by the L2 in one step (untraced) or per lane through the whole
    L1 -> L2 -> DRAM chain (traced, per-lane or fully ticked).  Reports and
    the per-attempt dcache/l2/dram event streams must not tell them apart."""
    from repro.kernels import KERNELS
    from repro.trace.events import expand_skips

    config = VortexConfig(
        num_cores=num_cores,
        enable_l2=True,
        dcache=CacheConfig(size=64 * 1024, num_banks=8, num_ports=8),
        memory=MemoryConfig(latency=10),
    ).with_warps_threads(4, 32)

    def run(spec):
        device = VortexDevice(config, driver=spec)
        run = KERNELS["sgemm"]().run(device, size=8 * 8)
        assert run.passed
        sink = device.driver.trace_sink
        return run.report, expand_skips(sink.events) if sink is not None else None

    report, _ = run("simx")
    assert report.counters["l2_0"].get("memq_stalls", 0) > 0
    traced = "trace=mem,trace_channels=dcache+l2+dram"
    _, events = run(f"simx:{traced}")
    assert events
    for knob in ("requests=perlane", "fastforward=off"):
        other_report, _ = run(f"simx:{knob}")
        assert diff_execution_reports(other_report, report) == [], knob
        traced_report, other_events = run(f"simx:{knob},{traced}")
        assert diff_execution_reports(traced_report, report) == [], knob
        assert other_events == events, knob
