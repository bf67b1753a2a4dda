"""Synchronous client facade over :class:`~repro.service.server.SimulationService`.

The session layer (and plain scripts) are synchronous; the service is
asyncio.  :class:`ServiceClient` bridges the two by owning a background
event-loop thread: the service lives entirely on that loop, and the
client's blocking methods marshal work onto it with
``asyncio.run_coroutine_threadsafe``.  One client = one fleet + one result
cache; share a client across :class:`~repro.engine.session.Session`
objects to share the cache.
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Callable
from typing import Any

from repro.engine.session import JobResult, KernelJob
from repro.service.server import ServiceConfig, SimulationService


class ServiceClient:
    """Blocking facade over a :class:`SimulationService` on a background loop."""

    def __init__(self, config: ServiceConfig | None = None):
        self._service = SimulationService(config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        self._closed = False
        try:
            self._call(self._service.start)
        except BaseException:
            # Reap the workers already up and stop the loop thread.
            self.close()
            raise

    def _call(self, factory: Callable[..., Any], *args: Any) -> Any:
        # The coroutine is created only after the closed check, so a call on
        # a closed client raises without leaking a never-awaited coroutine.
        if self._closed:
            raise RuntimeError("ServiceClient is closed")
        return asyncio.run_coroutine_threadsafe(factory(*args), self._loop).result()

    # -- serving ------------------------------------------------------------------------

    def run_jobs(self, jobs: list[KernelJob]) -> list[JobResult]:
        """Serve a batch (blocking), results in submission order."""
        return list(self._call(self._service.run_batch, list(jobs)))

    def run_job(self, job: KernelJob) -> JobResult:
        """Serve one job (blocking)."""
        return self.run_jobs([job])[0]

    # -- introspection ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self._service.num_shards

    @property
    def config(self) -> ServiceConfig:
        return self._service.config

    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot of serving + cache statistics."""
        return self._service.stats_payload()

    def worker_pids(self) -> list[int | None]:
        return self._service.worker_pids()

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the fleet and the background loop (idempotent)."""
        if self._closed:
            return
        try:
            self._call(self._service.close)
        finally:
            self._closed = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._loop.close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
