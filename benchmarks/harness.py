"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section: it runs the relevant experiment on the SIMX
(cycle-level) driver, prints the rows/series the paper reports side by side
with the published values, and asserts the qualitative shape (who wins, how
the trend moves).  Experiments are cached per configuration so a benchmark
invocation never repeats a simulation.
"""

from __future__ import annotations

import difflib
import os
from functools import lru_cache
from collections.abc import Iterable
from pathlib import Path

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.kernels import KERNELS
from repro.kernels.texture import hardware_texture_kernel, software_texture_kernel
from repro.runtime.device import VortexDevice
from repro.runtime.report import ExecutionReport

#: Problem sizes used by the harness.  They are intentionally small — the
#: substrate is a Python cycle-level simulator, not the authors' FPGA — and
#: are recorded in EXPERIMENTS.md.
KERNEL_SIZES: dict[str, int] = {
    "vecadd": 128,
    "saxpy": 128,
    "sgemm": 8 * 8,
    "sfilter": 8 * 8,
    "nearn": 128,
    "gaussian": 16,
    "bfs": 64,
}

#: Render-target size (pixels) for the texture benchmarks.
TEXTURE_SIZE = 16 * 16


def make_config(
    num_cores: int = 1,
    num_warps: int = 4,
    num_threads: int = 4,
    dcache_ports: int = 1,
    mem_latency: int = 100,
    mem_bandwidth: int = 1,
) -> VortexConfig:
    """Build a processor configuration for one experiment point."""
    return VortexConfig(
        num_cores=num_cores,
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=dcache_ports),
        memory=MemoryConfig(latency=mem_latency, bandwidth=mem_bandwidth),
    ).with_warps_threads(num_warps, num_threads)


@lru_cache(maxsize=None)
def run_kernel(
    kernel_name: str,
    num_cores: int = 1,
    num_warps: int = 4,
    num_threads: int = 4,
    dcache_ports: int = 1,
    mem_latency: int = 100,
    mem_bandwidth: int = 1,
    size: int | None = None,
) -> ExecutionReport:
    """Run one Rodinia-style kernel on SIMX and cache the report."""
    config = make_config(num_cores, num_warps, num_threads, dcache_ports, mem_latency, mem_bandwidth)
    device = VortexDevice(config, driver="simx")
    kernel = KERNELS[kernel_name]()
    run = kernel.run(device, size=size if size is not None else KERNEL_SIZES[kernel_name])
    if not run.passed:
        raise AssertionError(f"{kernel_name} failed verification during benchmarking")
    return run.report


@lru_cache(maxsize=None)
def run_texture(mode: str, use_hw: bool, num_cores: int = 1) -> ExecutionReport:
    """Run one texture benchmark (Figure 20 point) on SIMX and cache the report."""
    config = make_config(num_cores=num_cores)
    device = VortexDevice(config, driver="simx")
    kernel = hardware_texture_kernel(mode) if use_hw else software_texture_kernel(mode)
    run = kernel.run(device, size=TEXTURE_SIZE)
    if not run.passed:
        raise AssertionError(f"{kernel.name} failed verification during benchmarking")
    return run.report


#: The golden copy of every regenerated table/figure, at the repository root.
#: Each table a benchmark regenerates is compared, by title, with its block in
#: this file, and a difference fails that benchmark — so a ``-k`` run checks
#: exactly the tables it regenerated.  With ``REPRO_UPDATE_TABLES=1`` set, the
#: regenerated blocks are written into the file instead (in place, new titles
#: appended).
TABLES_PATH = Path(__file__).resolve().parent.parent / "benchmark_tables.txt"
UPDATE_TABLES_ENV = "REPRO_UPDATE_TABLES"


def read_tables() -> dict[str, str]:
    """The committed table blocks keyed by title, in file order (empty if absent)."""
    try:
        text = TABLES_PATH.read_text(encoding="utf-8")
    except OSError:
        return {}
    blocks: dict[str, list[str]] = {}
    title = None
    for line in text.splitlines():
        if line.startswith("=== ") and line.endswith(" ==="):
            title = line[4:-4]
            blocks[title] = [line]
        elif line and title is not None:
            blocks[title].append(line)
    return {title: "\n".join(lines) for title, lines in blocks.items()}


def print_table(title: str, headers: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Print one regenerated table/figure and check it against ``benchmark_tables.txt``."""
    headers = list(headers)
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[column])), max((len(row[column]) for row in rows), default=0))
        for column in range(len(headers))
    ]
    lines = [f"=== {title} ==="]
    lines.append("  ".join(str(header).ljust(width) for header, width in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    block = "\n".join(lines)
    print("\n" + block)
    golden = read_tables()
    if os.environ.get(UPDATE_TABLES_ENV):
        golden[title] = block
        TABLES_PATH.write_text(
            "".join(f"\n{text}\n" for text in golden.values()), encoding="utf-8"
        )
        return
    committed = golden.get(title)
    if committed != block:
        diff = "\n".join(
            difflib.unified_diff(
                (committed or "").splitlines(),
                block.splitlines(),
                "committed",
                "regenerated",
                lineterm="",
            )
        )
        raise AssertionError(
            f"table {title!r} differs from {TABLES_PATH.name}; if the change is "
            f"intended, re-run with {UPDATE_TABLES_ENV}=1 and commit the file:\n{diff}"
        )


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
