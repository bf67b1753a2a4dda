"""Pure helpers behind the reported figures: percentiles, interval unions and ratios.

Every ratio the benchmark reports is defined here once, so the definitions are
tested in one place (``perfbench/tests/test_perfbench_stats.py``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

#: A percentile is only reported when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def highest_supported_percentile(count: int) -> float | None:
    """The highest percentile of ``count`` samples with ``MIN_TAIL_SAMPLES`` beyond it.

    ``None`` when even the median is unsupported.  Rounded down to a whole
    percent so the figure does not creep with each extra sample.
    """
    if count <= 0:
        return None
    percent = math.floor(100.0 * (count - MIN_TAIL_SAMPLES) / count)
    return float(percent) if percent >= 50 else None


def percentile(values: Sequence[float], percent: float) -> float:
    """The ``percent``-th percentile of ``values`` (linear interpolation).

    Raises ``ValueError`` when fewer than ``MIN_TAIL_SAMPLES`` samples lie
    beyond it: such a tail is set by a handful of samples and is not reported.
    """
    supported = highest_supported_percentile(len(values))
    if supported is None or percent > supported:
        raise ValueError(
            f"p{percent:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{len(values)} samples support at most p{supported}"
        )
    ordered = sorted(values)
    position = (len(ordered) - 1) * percent / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def covered_seconds(intervals: Sequence[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals (overlaps counted once)."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the denominator is 0 (nothing attempted)."""
    return numerator / denominator if denominator else 0.0


def sum_counter(counters: Mapping[str, Mapping[str, int]], prefix: str, name: str) -> int:
    """Sum one counter over every component whose name starts with ``prefix``.

    ``dcache`` matches ``dcache0``, ``dcache1``...; ``l2_`` matches ``l2_0``...
    """
    return sum(
        values.get(name, 0) for component, values in counters.items() if component.startswith(prefix)
    )


def accept_ratio(counters: Mapping[str, Mapping[str, int]], prefix: str) -> float:
    """Accepted requests over attempts (a refused attempt is retried next cycle)."""
    return ratio(sum_counter(counters, prefix, "accepted"), sum_counter(counters, prefix, "attempts"))


def hit_rate(counters: Mapping[str, Mapping[str, int]], prefix: str) -> float:
    """Read and write hits over all accepted lookups of the caches named ``prefix*``."""
    hits = sum_counter(counters, prefix, "read_hits") + sum_counter(counters, prefix, "write_hits")
    misses = sum_counter(counters, prefix, "read_misses") + sum_counter(
        counters, prefix, "write_misses"
    )
    return ratio(hits, hits + misses)


def dram_accept_ratio(counters: Mapping[str, Mapping[str, int]]) -> float:
    """(reads + writes) / (reads + writes + rejected) at the DRAM queue."""
    served = sum_counter(counters, "dram", "reads") + sum_counter(counters, "dram", "writes")
    return ratio(served, served + sum_counter(counters, "dram", "rejected"))


def dram_avg_latency(counters: Mapping[str, Mapping[str, int]]) -> float:
    """Mean DRAM request latency in simulated cycles."""
    return ratio(
        sum_counter(counters, "dram", "total_latency"), sum_counter(counters, "dram", "responses")
    )


def relative_error(estimate: float, reference: float) -> float:
    """``|estimate - reference| / reference``."""
    return abs(estimate - reference) / reference
