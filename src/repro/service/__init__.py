"""Simulation-as-a-service: async job server + content-addressed cache.

Public surface:

* :class:`SimulationService` / :class:`ServiceConfig` — the asyncio serving
  core (worker fleet fed from one bounded queue, retries, result cache).
* :class:`ServiceClient` — the blocking facade sessions and scripts use.
* :class:`ResultCache` / :class:`CacheStats` — the content-addressed cache.
"""

from repro.service.cache import CachedResult, CacheStats, ResultCache
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceStats, SimulationService
from repro.service.worker import InlineWorker, JobTimeout, ProcessWorker, WorkerCrash

__all__ = [
    "CacheStats",
    "CachedResult",
    "InlineWorker",
    "JobTimeout",
    "ProcessWorker",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceStats",
    "SimulationService",
    "WorkerCrash",
]
