"""One cache bank: tag store, data-store timing, MSHR and response scheduling.

A bank is single-ported in hardware; the enclosing cache's bank selector
guarantees that at most one cache line is accessed per bank per cycle (the
virtual multi-porting optimization lets several *requests* share that one
line access).  The bank therefore only needs to model tag lookups, LRU
replacement, its MSHR, and the hit-latency delay between acceptance and
response.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.cache.mshr import Mshr
from repro.common.config import CacheConfig
from repro.common.perf import PerfCounters, hot_path


@dataclass
class BankRequest:
    """A request accepted by a bank."""

    address: int
    is_write: bool
    tag: Any
    accept_cycle: int = 0


@dataclass
class _ScheduledResponse:
    ready_cycle: int
    request: BankRequest
    hit: bool


class CacheBank:
    """Tag/data arrays plus MSHR for one bank."""

    #: Counter schema (vxlint VX003).
    COUNTERS = frozenset({"evictions", "fills"})

    #: Construction-time geometry; rebuilt by ``__init__`` (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"bank_id", "config", "num_sets", "num_ways"})

    def __init__(self, bank_id: int, config: CacheConfig):
        self.bank_id = bank_id
        self.config = config
        self.num_sets = config.num_sets
        self.num_ways = config.num_ways
        # tags[set] maps tag -> last-use counter (LRU bookkeeping).
        self._tags: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._use_counter = 0
        self.mshr = Mshr(config.mshr_size)
        # Ordered by ready cycle: every response is scheduled ``hit_latency``
        # (a constant) after the owning cache's forward-only clock, so an
        # append never precedes an earlier-ready entry and the due responses
        # always form a prefix.
        self._pending: list[_ScheduledResponse] = []
        self.perf = PerfCounters(f"bank{bank_id}")

    # -- address helpers -----------------------------------------------------------

    def _set_index(self, line_address: int) -> int:
        return (line_address // self.config.num_banks) % self.num_sets

    def _tag_of(self, line_address: int) -> int:
        return line_address // (self.num_sets * self.config.num_banks)

    # -- tag store ------------------------------------------------------------------

    @hot_path
    def probe(self, line_address: int) -> bool:
        """Tag lookup without side effects (runs on every request attempt).

        Keep the mapping in sync with :meth:`_set_index`/:meth:`_tag_of` —
        this is those two computations inlined (the helper calls are
        measurable at the retry loop's call rate).
        """
        relative = line_address // self.config.num_banks
        return relative // self.num_sets in self._tags[relative % self.num_sets]

    @hot_path
    def touch(self, line_address: int, count: int = 1) -> None:
        """Update LRU state for ``count`` consecutive hits on one line.

        ``count`` back-to-back touches leave the same state as one touch
        that advances the use counter by ``count``.
        """
        set_index = self._set_index(line_address)
        tag = self._tag_of(line_address)
        self._use_counter += count
        self._tags[set_index][tag] = self._use_counter

    def install(self, line_address: int) -> int | None:
        """Install a line, evicting the LRU way if the set is full.

        Returns the evicted line address, or ``None`` when no eviction
        happened.
        """
        set_index = self._set_index(line_address)
        tag = self._tag_of(line_address)
        ways = self._tags[set_index]
        self._use_counter += 1
        evicted = None
        if tag not in ways and len(ways) >= self.num_ways:
            victim_tag = min(ways, key=ways.get)
            del ways[victim_tag]
            evicted = (
                victim_tag * self.num_sets * self.config.num_banks
                + (set_index * self.config.num_banks)
                + self.bank_id
            )
            self.perf.incr("evictions")
        ways[tag] = self._use_counter
        return evicted

    # -- checkpoint/restore ----------------------------------------------------------

    def _encode_request(
        self, request: BankRequest, encode_tag: Callable[[Any], Any]
    ) -> dict:
        return {
            "address": request.address,
            "is_write": request.is_write,
            "tag": encode_tag(request.tag),
            "accept_cycle": request.accept_cycle,
        }

    def _decode_request(self, data: dict, decode_tag: Callable[[Any], Any]) -> BankRequest:
        return BankRequest(
            address=data["address"],
            is_write=data["is_write"],
            tag=decode_tag(data["tag"]),
            accept_cycle=data["accept_cycle"],
        )

    def snapshot(self, encode_tag: Callable[[Any], Any]) -> dict:
        """Serialize tag store, LRU state, MSHR and scheduled responses."""
        return {
            "tags": [dict(ways) for ways in self._tags],
            "use_counter": self._use_counter,
            "mshr": self.mshr.snapshot(
                lambda request: self._encode_request(request, encode_tag)
            ),
            "pending": [
                (entry.ready_cycle, self._encode_request(entry.request, encode_tag), entry.hit)
                for entry in self._pending
            ],
            "perf": self.perf.snapshot(),
        }

    def restore(self, payload: dict, decode_tag: Callable[[Any], Any]) -> None:
        """Restore bank state from a :meth:`snapshot` payload."""
        self._tags = [dict(ways) for ways in payload["tags"]]
        self._use_counter = payload["use_counter"]
        self.mshr.restore(
            payload["mshr"], lambda data: self._decode_request(data, decode_tag)
        )
        self._pending = [
            _ScheduledResponse(
                ready_cycle=ready_cycle,
                request=self._decode_request(data, decode_tag),
                hit=hit,
            )
            for ready_cycle, data, hit in payload["pending"]
        ]
        self.perf.restore(payload["perf"])

    # -- request handling ------------------------------------------------------------

    def schedule_response(self, request: BankRequest, cycle: int, hit: bool) -> None:
        """Queue a response ``hit_latency`` cycles in the future."""
        self._pending.append(
            _ScheduledResponse(ready_cycle=cycle + self.config.hit_latency, request=request, hit=hit)
        )

    @hot_path
    def schedule_responses(self, requests: list[BankRequest], cycle: int, hit: bool) -> None:
        """:meth:`schedule_response` for each of ``requests``, in order."""
        ready_cycle = cycle + self.config.hit_latency
        pending = self._pending
        for request in requests:
            pending.append(_ScheduledResponse(ready_cycle, request, hit))

    def next_response_cycle(self) -> int | None:
        """Earliest cycle a scheduled response completes (``None`` when idle).

        The fast-forward path uses this to prove no response can appear
        during a skipped window; outstanding *misses* need no entry here
        because their fills are visible as lower-level (cache/DRAM) events.
        """
        return self._pending[0].ready_cycle if self._pending else None

    def collect_responses(self, cycle: int) -> list[tuple[BankRequest, bool]]:
        """Return (request, hit) pairs whose responses complete at ``cycle``."""
        pending = self._pending
        due = 0
        while due < len(pending) and pending[due].ready_cycle <= cycle:
            due += 1
        if not due:
            return []
        ready = pending[:due]
        del pending[:due]
        return [(entry.request, entry.hit) for entry in ready]

    def fill(self, line_address: int, cycle: int) -> list[BankRequest]:
        """Handle a returning memory fill: install the line, replay the MSHR.

        Returns the replayed requests (their responses are scheduled by the
        caller so that replay shares the normal response path).
        """
        self.install(line_address)
        waiting = self.mshr.release(line_address)
        self.perf.incr("fills")
        return waiting

    @property
    def pending_responses(self) -> int:
        return len(self._pending)

    @property
    def busy(self) -> bool:
        """True while the bank still owes responses or has outstanding misses."""
        return bool(self._pending) or len(self.mshr) > 0
