"""Checkpoint/restore across the simulator layer stack.

The acceptance property for the whole subsystem: a run that pauses,
checkpoints, restores (into the same or a *fresh* device, optionally
through a pickle round-trip) and continues is **bit-identical** — same
cycles, same instruction counts, same value in every performance counter —
to a run that never paused.  These tests drive that property through the
envelope layer, both drivers, the device facade, the session restart path
and the sampled-simulation API, plus the typed error paths for
format/kind/config mismatches.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig, CoreConfig, MemoryConfig, VortexConfig
from repro.engine.session import KernelJob, Session, execute_job
from repro.runtime.checkpoint import (
    SNAPSHOT_FORMAT,
    SnapshotConfigMismatch,
    SnapshotKindError,
    SnapshotVersionError,
    Snapshotable,
    make_envelope,
    open_envelope,
)
from repro.runtime.device import VortexDevice
from repro.runtime.sampling import SampledRun

CFG = VortexConfig(num_cores=1, core=CoreConfig(num_warps=2, num_threads=4))


def reports_identical(a, b) -> bool:
    return (
        a.cycles == b.cycles
        and a.instructions == b.instructions
        and a.thread_instructions == b.thread_instructions
        and a.counters == b.counters
    )


# ---------------------------------------------------------------------------
# Envelope layer


class TestEnvelope:
    def test_roundtrip(self):
        envelope = make_envelope(kind="simx", config=CFG, state={"x": 1})
        assert envelope["format"] == SNAPSHOT_FORMAT
        assert open_envelope(envelope, kind="simx", config=CFG) == {"x": 1}

    def test_version_mismatch_raises(self):
        envelope = make_envelope(kind="simx", config=CFG, state={})
        envelope["format"] = SNAPSHOT_FORMAT + 1
        with pytest.raises(SnapshotVersionError):
            open_envelope(envelope, kind="simx", config=CFG)

    def test_kind_mismatch_raises(self):
        envelope = make_envelope(kind="funcsim", config=CFG, state={})
        with pytest.raises(SnapshotKindError):
            open_envelope(envelope, kind="simx", config=CFG)

    def test_config_fingerprint_mismatch_raises(self):
        envelope = make_envelope(kind="simx", config=CFG, state={})
        other = VortexConfig(num_cores=2)
        with pytest.raises(SnapshotConfigMismatch):
            open_envelope(envelope, kind="simx", config=other)

    def test_envelope_is_picklable(self):
        envelope = make_envelope(kind="device", config=CFG, state={"n": [1, 2]})
        assert pickle.loads(pickle.dumps(envelope)) == envelope

    def test_drivers_implement_snapshotable(self):
        device = VortexDevice(CFG, driver="simx")
        assert isinstance(device.driver.processor, Snapshotable)


# ---------------------------------------------------------------------------
# Driver-level pause/restore identity


def _staged_device(driver: str, kernel: str = "vecadd", size: int = 64):
    from repro.kernels import KERNELS

    kernel_obj = KERNELS[kernel]()
    device = VortexDevice(CFG, driver=driver)
    program = kernel_obj.build_program()
    device.upload_program(program)
    context = kernel_obj.setup(device, size)
    return device, kernel_obj, program, context


class TestDriverCheckpoint:
    @pytest.mark.parametrize("driver", ["simx", "funcsim"])
    def test_restore_then_run_counter_identical(self, driver):
        straight, _, program, _ = _staged_device(driver)
        reference = straight.driver.run(program.entry)

        paused, kernel_obj, program, _ = _staged_device(driver)
        if driver == "simx":
            paused.driver.run(program.entry, stop_cycle=300)
        else:
            paused.driver.run(program.entry, stop_after_instructions=150)
        assert not paused.driver.done
        envelope = pickle.loads(pickle.dumps(paused.checkpoint()))

        fresh = VortexDevice(CFG, driver=driver)
        fresh.restore(envelope)
        report = fresh.driver.run(None, resume=True)
        assert fresh.driver.done
        assert reports_identical(reference, report)

    @pytest.mark.parametrize("driver", ["simx", "funcsim"])
    def test_snapshot_mutate_restore_rewinds(self, driver):
        device, _, program, _ = _staged_device(driver)
        envelope = device.checkpoint()
        # Mutate: run the kernel to completion, dirtying every layer.
        device.driver.run(program.entry)
        device.restore(envelope)
        assert device.checkpoint() == envelope

    def test_checkpoint_chunking_is_invisible(self):
        straight, _, program, _ = _staged_device("simx", kernel="sgemm", size=8)
        reference = straight.driver.run(program.entry)

        chunked, _, program, _ = _staged_device("simx", kernel="sgemm", size=8)
        envelopes: list[dict] = []
        report = chunked.launch_resumable(
            program.entry, checkpoint_every=250, checkpoint_sink=envelopes.append
        )
        assert envelopes, "run finished before the first checkpoint"
        assert reports_identical(reference, report)

    def test_funcsim_chunked_instruction_totals_match(self):
        straight, _, program, _ = _staged_device("funcsim")
        reference = straight.driver.run(program.entry)

        chunked, _, program, _ = _staged_device("funcsim")
        report = chunked.launch_resumable(program.entry, checkpoint_every=100)
        assert report.instructions == reference.instructions


# ---------------------------------------------------------------------------
# Hypothesis: the pause point never matters


class TestPausePointProperty:
    @given(stop=st.integers(min_value=1, max_value=1600))
    @settings(max_examples=10, deadline=None)
    def test_simx_any_pause_cycle_is_invisible(self, stop):
        straight, _, program, _ = _staged_device("simx")
        reference = straight.driver.run(program.entry)

        paused, _, program, _ = _staged_device("simx")
        paused.driver.run(program.entry, stop_cycle=stop)
        envelope = pickle.loads(pickle.dumps(paused.checkpoint()))
        fresh = VortexDevice(CFG, driver="simx")
        fresh.restore(envelope)
        report = fresh.driver.run(None, resume=True)
        assert reports_identical(reference, report)

    @given(stop=st.integers(min_value=1, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_funcsim_any_pause_round_is_invisible(self, stop):
        straight, _, program, _ = _staged_device("funcsim")
        reference = straight.driver.run(program.entry)

        paused, _, program, _ = _staged_device("funcsim")
        paused.driver.run(program.entry, stop_after_instructions=stop)
        envelope = pickle.loads(pickle.dumps(paused.checkpoint()))
        fresh = VortexDevice(CFG, driver="funcsim")
        fresh.restore(envelope)
        report = fresh.driver.run(None, resume=True)
        assert reports_identical(reference, report)


# ---------------------------------------------------------------------------
# Session integration


class TestSessionCheckpoint:
    def test_restart_midpoint_job_matches_straight_run(self):
        job = KernelJob(kernel="sgemm", config=CFG, driver="simx", size=8)
        straight = execute_job(job)
        restarted = execute_job(replace(job, restart_midpoint=True))
        assert straight.ok and restarted.ok
        assert reports_identical(straight.report, restarted.report)

    def test_session_run_resume_from_checkpoint(self):
        job = KernelJob(kernel="sgemm", config=CFG, driver="simx", size=8)
        envelopes: list[dict] = []
        chunked = execute_job(job, checkpoint_every=300, checkpoint_sink=envelopes.append)
        straight = execute_job(job)
        assert chunked.ok and straight.ok
        assert reports_identical(chunked.report, straight.report)
        resumed = execute_job(
            job,
            checkpoint_every=300,
            resume_from=pickle.loads(pickle.dumps(envelopes[0])),
        )
        assert resumed.ok
        assert reports_identical(resumed.report, straight.report)

    def test_execute_job_rejects_contradictory_checkpoint_arguments(self):
        job = KernelJob(kernel="vecadd", config=CFG, driver="simx", size=64)
        with pytest.raises(ValueError, match="requires checkpoint_every"):
            execute_job(job, resume_from=VortexDevice(CFG, driver="simx").checkpoint())
        with pytest.raises(ValueError, match="restart_midpoint"):
            execute_job(replace(job, restart_midpoint=True), checkpoint_every=100)

    def test_differential_checkpoint_legs_identical(self):
        session = Session(executor="serial")
        jobs = [KernelJob(kernel="vecadd", config=CFG, driver="simx", size=64)]
        report = session.run_differential(jobs, checkpoint_legs=True)
        assert report.identical_counters, report.results[0].mismatches
        assert report.results[0].restored is not None
        assert report.results[0].restored.ok

    def test_restart_midpoint_changes_cache_key(self):
        job = KernelJob(kernel="vecadd", config=CFG, driver="simx", size=64)
        restart = KernelJob(
            kernel="vecadd", config=CFG, driver="simx", size=64, restart_midpoint=True
        )
        assert job.cache_key() != restart.cache_key()


# ---------------------------------------------------------------------------
# Sampled simulation


class TestSampledRun:
    def test_sampled_run_is_deterministic(self):
        kwargs = dict(sample_period=200, interval_cycles=500)
        first = SampledRun("sgemm", CFG, 8, **kwargs).run()
        second = SampledRun("sgemm", CFG, 8, **kwargs).run()
        assert first.passed and second.passed
        assert len(first.intervals) == len(second.intervals) >= 2
        for a, b in zip(first.intervals, second.intervals):
            assert (a.cycles, a.instructions, a.thread_instructions) == (
                b.cycles,
                b.instructions,
                b.thread_instructions,
            )
            assert a.counters == b.counters

    def test_estimated_cycles_positive_and_payload_shape(self):
        report = SampledRun("vecadd", CFG, 64, sample_period=150, interval_cycles=400).run()
        assert report.passed
        assert report.total_instructions > 0
        assert report.estimated_cycles > 0
        payload = report.to_payload()
        assert payload["kernel"] == "vecadd"
        assert len(payload["intervals"]) == len(report.intervals)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            SampledRun("vecadd", CFG, sample_period=0)
        with pytest.raises(ValueError):
            SampledRun("vecadd", CFG, interval_cycles=-1)
