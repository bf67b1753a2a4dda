"""Self-tests of the benchmark's figure definitions: percentiles, spans and ratios."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import spans, stats  # noqa: E402


# -- percentile rule ---------------------------------------------------------------------------


def test_supported_percentile_keeps_ten_samples_beyond() -> None:
    assert stats.highest_supported_percentile(19) is None
    assert stats.highest_supported_percentile(20) == 50.0
    assert stats.highest_supported_percentile(99) == 89.0
    assert stats.highest_supported_percentile(100) == 90.0
    assert stats.highest_supported_percentile(1000) == 99.0
    for count in range(20, 500):
        percent = stats.highest_supported_percentile(count)
        assert count * (100 - percent) >= 100 * stats.MIN_TAIL_SAMPLES


def test_percentile_refuses_thin_tails() -> None:
    values = [float(v) for v in range(99)]
    with pytest.raises(ValueError):
        stats.percentile(values, 90)
    with pytest.raises(ValueError):
        stats.percentile(values[:19], 50)
    assert stats.percentile(values + [99.0], 90) == pytest.approx(89.1)
    assert stats.percentile([float(v) for v in range(21)], 50) == 10.0


def test_covered_seconds_counts_overlap_once() -> None:
    assert stats.covered_seconds([]) == 0.0
    assert stats.covered_seconds([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert stats.covered_seconds([(0.0, 10.0), (2.0, 3.0)]) == 10.0


# -- span self time ----------------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_spans(monkeypatch: pytest.MonkeyPatch) -> None:
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)

    class Outer:
        def run(self, inner: Inner) -> None:
            clock.now += 1.0
            inner.work()
            inner.work()
            clock.now += 0.5

    class Inner:
        def work(self) -> None:
            clock.now += 2.0

    tracer = spans.Tracer()
    tracer.install([(Outer, "run", "core"), (Inner, "work", "cache")])
    # Prebound before tracing starts, as simulator constructors do.
    work = Inner().work
    tracer.enabled = True
    with tracer.op(1, "launch:x"):
        Outer().run(Inner())
        work()
        clock.now += 0.25
    tracer.uninstall()

    assert Outer.run.__qualname__.endswith("Outer.run")
    assert "traced" not in repr(Inner.__dict__["work"])
    assert tracer.self_seconds() == {"bench": 0.25, "core": 1.5, "cache": 6.0}
    assert tracer.calls("Inner.work") == 3
    assert tracer.calls("Inner.work", "sampled:") == 0
    assert tracer.inclusive("Outer.run") == 5.5
    assert tracer.inclusive_under("Outer.run", {"Inner.work"}) == 4.0
    (_, name, start, end, root) = tracer.ops[0]
    assert (name, end - start, root.total_s) == ("launch:x", 7.75, 7.75)


def test_disabled_tracer_records_nothing() -> None:
    class Thing:
        def step(self) -> int:
            return 3

    tracer = spans.Tracer()
    tracer.install([(Thing, "step", "core")])
    with tracer.op(1, "launch:x"):
        assert Thing().step() == 3
    tracer.uninstall()
    assert tracer.ops == []


# -- ratio definitions ---------------------------------------------------------------------------


COUNTERS = {
    "dcache0": {"attempts": 10, "accepted": 4, "read_hits": 3, "read_misses": 1, "write_misses": 1},
    "dcache1": {"attempts": 30, "accepted": 6, "read_hits": 5, "write_hits": 1, "read_misses": 1},
    "l2_0": {"attempts": 5, "accepted": 5, "read_hits": 0, "read_misses": 2},
    "dram": {"reads": 3, "writes": 1, "rejected": 12, "total_latency": 400, "responses": 4},
}


def test_cache_ratios_sum_over_instances() -> None:
    assert stats.accept_ratio(COUNTERS, "dcache") == 10 / 40
    assert stats.hit_rate(COUNTERS, "dcache") == 9 / 12
    assert stats.hit_rate(COUNTERS, "l2_") == 0.0
    assert stats.hit_rate(COUNTERS, "l3_") == 0.0


def test_dram_ratios() -> None:
    assert stats.dram_accept_ratio(COUNTERS) == 4 / 16
    assert stats.dram_avg_latency(COUNTERS) == 100.0


def test_relative_error_and_empty_ratio() -> None:
    assert stats.relative_error(130.0, 100.0) == pytest.approx(0.3)
    assert stats.relative_error(70.0, 100.0) == pytest.approx(0.3)
    assert stats.ratio(3, 0) == 0.0
