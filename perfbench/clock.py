"""Host-speed calibration: report host times in seconds of a reference host.

The host's speed drifts by 10-20% from minute to minute on a shared virtual
machine.  Measured on a 2-vCPU VM: the median SIMX rate of 20-second windows
of one long run spread 18% between quartiles, while the same windows scaled
by a calibration pass timed just before each operation spread 6%.  So a fixed
pure-Python plus numpy pass runs before each operation, and the operation's
host times are multiplied by ``REFERENCE_CALIBRATION_S / pass time``: seconds
on a host where the pass takes ``REFERENCE_CALIBRATION_S``.  The pass never
runs simulator code, so a simulator change moves scaled and raw figures
alike, while host drift largely cancels.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

#: Calibration-pass time of the reference host.
REFERENCE_CALIBRATION_S = 0.05


def calibration_pass() -> float:
    """Seconds of one fixed pure-Python plus numpy pass.

    Like the simulator, it builds and walks a table of small Python objects
    and gathers from an array larger than the CPU's private caches, so it
    slows down with the same host contention the simulator does.  Garbage is
    collected first (untimed), so every pass starts from the same heap and
    adds little to the process's peak memory.
    """
    gc.collect()
    start = perf_counter()
    entries = 60_000
    table = {key: (key, key * 7) for key in range(entries)}
    acc = 0
    for step in range(entries):
        acc += table[step * 7919 % entries][1]
    array = np.arange(1 << 20, dtype=np.float64)
    index = np.arange(1 << 18, dtype=np.int64) * 7919 % (1 << 20)
    for _ in range(4):
        acc += int(array[index].sum())
    return perf_counter() - start


class HostSpeed:
    """Calibration passes taken during one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, passes: int = 1) -> float:
        """Time ``passes`` calibration passes now; returns their median."""
        times = [calibration_pass() for _ in range(passes)]
        self.samples.extend(times)
        return statistics.median(times)

    def factor_now(self) -> float:
        """Multiplier turning host seconds into reference seconds, measured now."""
        return REFERENCE_CALIBRATION_S / self.sample()

    @property
    def median_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """The run's multiplier, from the median of all its passes."""
        return REFERENCE_CALIBRATION_S / self.median_s
