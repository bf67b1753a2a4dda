"""The README layer map: which public functions each layer's span wraps.

Layer names follow the README packages; ``core`` is split per module.  The
functional-simulator driver's ``run`` counts as ``engine`` (it is the
functional engine's loop), and ``SampledRun.run`` as ``runtime``.
"""

from __future__ import annotations

#: Layers whose self time the traced run reports, in report order.
LAYERS = (
    "cache",
    "mem",
    "core.timing",
    "core.processor",
    "core.scheduler",
    "core.scoreboard",
    "texture",
    "engine",
    "runtime",
    "isa",
    "kernels",
)


def targets() -> list[tuple[type, str, str]]:
    """``(class, method, layer)`` for every wrapped public function."""
    from repro.cache.cache import NonBlockingCache
    from repro.cache.hierarchy import MemorySubsystem
    from repro.cache.sharedmem import SharedMemory
    from repro.core.processor import TimingProcessor
    from repro.core.scheduler import WavefrontScheduler
    from repro.core.scoreboard import Scoreboard
    from repro.core.timing import TimingCore
    from repro.engine.vector_emulator import VectorWarpEmulator
    from repro.kernels import KERNELS, TextureKernel
    from repro.kernels.base import Kernel
    from repro.mem.dram import DramModel
    from repro.mem.memory import MainMemory, WordCursor
    from repro.runtime.device import VortexDevice
    from repro.runtime.funcsim import FuncSimDriver
    from repro.runtime.sampling import SampledRun
    from repro.runtime.simx import SimxDriver
    from repro.texture.unit import TextureUnit

    methods: list[tuple[type, tuple[str, ...], str]] = [
        (NonBlockingCache, ("send_batch", "send", "tick", "skip_idle", "next_response_cycle"), "cache"),
        (SharedMemory, ("send_batch", "send", "tick", "skip_idle"), "cache"),
        (MemorySubsystem, ("tick", "skip_idle", "next_event_cycle"), "cache"),
        (DramModel, ("send", "tick", "skip_idle", "next_event_cycle"), "mem"),
        (
            MainMemory,
            ("gather_words", "scatter_words", "gather_bytes", "scatter_bytes", "gather_halves", "scatter_halves"),
            "mem",
        ),
        (WordCursor, ("gather", "scatter"), "mem"),
        (TimingCore, ("tick", "next_event_cycle", "skip_idle"), "core.timing"),
        (TimingProcessor, ("run", "tick", "adopt_architectural"), "core.processor"),
        (WavefrontScheduler, ("select", "skip_idle"), "core.scheduler"),
        (Scoreboard, ("is_busy", "any_busy", "reserve", "release", "busy_count", "clear"), "core.scoreboard"),
        (TextureUnit, ("sample_warp", "sample_warp_vector", "sample_warp_vector_trace"), "texture"),
        (VectorWarpEmulator, ("step_timing",), "engine"),
        (FuncSimDriver, ("run",), "engine"),
        (VortexDevice, ("__init__", "upload_program", "launch"), "runtime"),
        (SimxDriver, ("__init__",), "runtime"),
        (SampledRun, ("run",), "runtime"),
        (Kernel, ("build_program",), "isa"),
    ]
    for kernel_cls in (*KERNELS.values(), TextureKernel):
        own = tuple(name for name in ("setup", "verify") if name in kernel_cls.__dict__)
        methods.append((kernel_cls, own, "kernels"))
    return [(cls, name, layer) for cls, names, layer in methods for name in names]
