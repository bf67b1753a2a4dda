"""The non-blocking multi-banked cache (Figure 6).

``NonBlockingCache`` implements the front-end bank selector (including the
virtual multi-porting coalescing of same-line requests), the per-bank MSHRs
and response scheduling, and the back-end merger that hands completed
responses back to the requester.  Misses are forwarded through a *lower
port* — either the DRAM model or the next cache level — supplied by the
memory subsystem.

The deadlock-avoidance rules from the paper are honoured at the acceptance
point: a request is refused (and retried by the requester next cycle) when
its bank's MSHR signals early-full or when the lower level cannot accept a
new fill, so neither the MSHR nor the memory request queue can be
overcommitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence
from operator import itemgetter
from typing import Any

from repro.cache.bank import BankRequest, CacheBank
from repro.common.config import CacheConfig
from repro.common.perf import PerfCounters, hot_path
from repro.trace.events import NO_WARP

#: The address and bank fields of a batched request entry ``(address, line, bank_id, ...)``.
_ADDRESS_OF = itemgetter(0)
_BANK_OF = itemgetter(2)


@dataclass
class CacheRequest:
    """A core-side request presented to the cache."""

    address: int
    is_write: bool = False
    tag: Any = None


@dataclass
class CacheResponse:
    """A completed core-side request."""

    address: int
    is_write: bool
    tag: Any
    hit: bool
    cycle: int


class LowerPort:
    """Interface to the next memory level.

    ``request_fill`` asks for a full line (read); ``request_write`` forwards
    a write-through store.  Both return False when the lower level cannot
    accept more traffic this cycle.

    A non-sticky port may also offer the optional probe ``writes_refused()``:
    True when every write-through is provably refused for the rest of the
    cycle (see :meth:`NonBlockingCache.writes_refused`).  While it holds, the
    cache refuses the rest of a store batch in one step and charges the
    forwarded lanes through :meth:`refuse_writes`.  The cache binds the
    probe once at construction and treats a port without it as never
    blocked.
    """

    #: True when one refusal implies every further request this cycle is
    #: also refused (a shared queue that only fills during a drain).  The
    #: cache's batch path then skips the call and charges
    #: :meth:`note_skipped_refusal` instead — the refusal-side counters of
    #: the lower level must still advance per attempt.
    sticky_refusal = False

    def request_fill(self, cache: NonBlockingCache, line_address: int) -> bool:
        raise NotImplementedError

    def request_write(self, cache: NonBlockingCache, address: int) -> bool:
        raise NotImplementedError

    def note_skipped_refusal(self, count: int = 1) -> None:
        """Charge the counters ``count`` skipped (provably refused) requests would have."""
        raise NotImplementedError

    def refuse_writes(self, addresses: list[int]) -> None:
        """Charge what one refused ``request_write`` per address would have.

        Only called on ports offering ``writes_refused``, while it holds.
        """
        raise NotImplementedError

    def refusal_horizon(self) -> int | None:
        """Cycle until which (exclusively) every request is provably refused.

        ``None`` means no guarantee.  Only a sticky port can promise one: a
        full shared queue refuses everything until its next in-order release,
        which lets the fast-forward treat a retry storm as event-free.
        """
        return None


class NonBlockingCache:
    """Multi-banked, non-blocking, virtually multi-ported cache."""

    #: Counter schema (vxlint VX003): every literal key charged against this
    #: component's ``perf``/``_counters``.  The scalar and batched request
    #: paths must stay within this set — bit-identical counters between them
    #: are the repo-wide contract.
    COUNTERS = frozenset(
        {
            "attempts",
            "accepted",
            "bank_conflicts",
            "mshr_stalls",
            "memq_stalls",
            "read_hits",
            "read_misses",
            "write_hits",
            "write_misses",
            "fills",
            "cycles",
        }
    )

    #: Construction-time wiring and hot-path prebinds (vxlint VX007):
    #: ``name`` is identity (the memory subsystem keys snapshots by it),
    #: ``lower`` is topology, ``_line_size``/``_num_banks``/``_num_ports``
    #: derive from config, ``_counters`` aliases ``perf._counters``
    #: (serialized under the ``"perf"`` key) and ``_lower_writes_refused``
    #: is the lower port's optional bound probe.
    SNAPSHOT_EXCLUDED = frozenset(
        {
            "name",
            "config",
            "lower",
            "_line_size",
            "_num_banks",
            "_num_ports",
            "_counters",
            "_lower_writes_refused",
            "trace",
            "trace_channel",
            "trace_core",
        }
    )

    def __init__(self, name: str, config: CacheConfig, lower: LowerPort | None = None):
        self.name = name
        self.config = config
        self.lower = lower
        self.banks = [CacheBank(bank_id, config) for bank_id in range(config.num_banks)]
        self.perf = PerfCounters(name)
        self._cycle = 0
        # Observability (attached by MemorySubsystem.attach_trace): one trace
        # event per request *attempt*, mirroring the refusal/hit/miss counter
        # charged for it, so reconciliation holds by construction.
        self.trace: Any = None
        self.trace_channel = ""
        self.trace_core = -1
        # Per-cycle bank selector state: bank -> (first line address, accept count).
        self._accepts_this_cycle: dict[int, tuple[int, int]] = {}
        # Hot-path bindings: :meth:`send_raw` runs once per request *attempt*
        # (the cycle-level core retries refusals every cycle), so the
        # per-attempt constants and the raw counter dict are prebound.
        self._line_size = config.line_size
        self._num_banks = config.num_banks
        self._num_ports = config.num_ports
        self._counters = self.perf._counters
        # Optional cross-level write refusal (LowerPort docstring): ``None``
        # for ports without it, which are then never blocked.
        self._lower_writes_refused = getattr(lower, "writes_refused", None)

    # -- address helpers ----------------------------------------------------------------

    def line_address(self, address: int) -> int:
        return address // self.config.line_size

    def bank_index(self, address: int) -> int:
        return self.line_address(address) % self.config.num_banks

    # -- front-end: bank selector ----------------------------------------------------------

    @hot_path
    def _arbitration_refusal(self, bank_id: int, line: int, is_write: bool) -> str | None:
        """The one arbitration predicate every request path shares.

        Returns the refusal counter name (``"bank_conflicts"`` /
        ``"mshr_stalls"``) when the bank selector would refuse a request for
        ``line`` this cycle, or ``None`` when it would proceed to the
        hit/miss path.  Side-effect free: the probes (:meth:`can_accept`,
        :meth:`can_accept_batch`) call it directly, :meth:`send_raw` charges
        the returned counter, and :meth:`send_batch` inlines exactly this
        logic (keep them in sync — the batched/per-lane property test in
        ``tests/test_cache.py`` holds them to it).  Lower-level
        backpressure (``memq_stalls``) is not predicted here because probing
        it without side effects would require the lower level's cooperation.
        """
        accepted = self._accepts_this_cycle.get(bank_id)
        if accepted is not None:
            first_line, count = accepted
            if count >= self._num_ports or first_line != line:
                return "bank_conflicts"
        if not is_write and self.banks[bank_id].mshr.almost_full:
            return "mshr_stalls"
        return None

    @hot_path
    def can_accept(self, request: CacheRequest) -> bool:
        """Check whether ``send`` would succeed this cycle (no side effects)."""
        line = request.address // self._line_size
        return self._arbitration_refusal(line % self._num_banks, line, request.is_write) is None

    @hot_path
    def can_accept_batch(self, addresses: Sequence[int], is_write: bool = False) -> list[bool]:
        """Side-effect-free bulk probe: would ``send`` accept each address *now*?

        Every address is judged against the cache's current-cycle accept
        state (the probe mutates nothing, so earlier addresses in the batch
        do not shadow later ones) through the same
        :meth:`_arbitration_refusal` predicate the send paths use.
        """
        line_size = self._line_size
        num_banks = self._num_banks
        refusal = self._arbitration_refusal
        results: list[bool] = []
        for address in addresses:
            line = address // line_size
            results.append(refusal(line % num_banks, line, is_write) is None)
        return results

    def send(self, request: CacheRequest) -> bool:
        """Present one request to the bank selector.

        Returns True when the request is accepted this cycle; the response
        arrives later through :meth:`tick`.  A False return means the
        requester must retry next cycle (bank conflict, MSHR early-full, or
        lower-level backpressure).
        """
        return self.send_raw(request.address, request.is_write, request.tag)

    @hot_path
    def send_raw(self, address: int, is_write: bool, tag: Any) -> bool:
        """:meth:`send` without the :class:`CacheRequest` wrapper.

        The cycle-level core retries refused requests every cycle, so the
        hot path avoids allocating a request record per attempt; a
        :class:`~repro.cache.bank.BankRequest` is only built once the
        request is actually accepted into a bank.
        """
        counters = self._counters
        counters["attempts"] += 1
        trace = self.trace
        line = address // self._line_size
        bank_id = line % self._num_banks
        refusal = self._arbitration_refusal(bank_id, line, is_write)
        if refusal is not None:
            # The key is the predicate's return value, which is drawn from the
            # schema by construction ("bank_conflicts"/"mshr_stalls" literals
            # in _arbitration_refusal) — safe despite being non-literal here.
            counters[refusal] += 1  # vxlint: disable=VX003
            if trace is not None:
                kind = "conflict" if refusal == "bank_conflicts" else "mshr-stall"
                trace.emit(
                    self._cycle,
                    self.trace_core,
                    NO_WARP,
                    self.trace_channel,
                    kind,
                    {"bank": bank_id, "line": line, "write": is_write},
                )
            return False
        bank = self.banks[bank_id]

        hit = bank.probe(line)

        if is_write:
            # Write-through, no-allocate: the store is forwarded to the lower
            # level; a write hit also updates the cached line's LRU state.
            if self.lower is not None and not self.lower.request_write(self, address):
                counters["memq_stalls"] += 1
                if trace is not None:
                    trace.emit(
                        self._cycle,
                        self.trace_core,
                        NO_WARP,
                        self.trace_channel,
                        "refusal",
                        {"bank": bank_id, "line": line, "write": True},
                    )
                return False
            if hit:
                bank.touch(line)
                counters["write_hits"] += 1
            else:
                counters["write_misses"] += 1
            if trace is not None:
                trace.emit(
                    self._cycle,
                    self.trace_core,
                    NO_WARP,
                    self.trace_channel,
                    "hit" if hit else "miss",
                    {"bank": bank_id, "line": line, "write": True},
                )
            bank.schedule_response(
                BankRequest(address=address, is_write=True, tag=tag, accept_cycle=self._cycle),
                self._cycle,
                hit,
            )
        elif hit:
            bank.touch(line)
            bank.schedule_response(
                BankRequest(address=address, is_write=False, tag=tag, accept_cycle=self._cycle),
                self._cycle,
                True,
            )
            counters["read_hits"] += 1
            if trace is not None:
                trace.emit(
                    self._cycle,
                    self.trace_core,
                    NO_WARP,
                    self.trace_channel,
                    "hit",
                    {"bank": bank_id, "line": line, "write": False},
                )
        else:
            existing = bank.mshr.lookup(line)
            if existing is None and self.lower is not None:
                if not self.lower.request_fill(self, line):
                    counters["memq_stalls"] += 1
                    if trace is not None:
                        trace.emit(
                            self._cycle,
                            self.trace_core,
                            NO_WARP,
                            self.trace_channel,
                            "refusal",
                            {"bank": bank_id, "line": line, "write": False},
                        )
                    return False
            entry = bank.mshr.allocate(
                line,
                BankRequest(address=address, is_write=False, tag=tag, accept_cycle=self._cycle),
            )
            if entry is None:
                counters["mshr_stalls"] += 1
                if trace is not None:
                    trace.emit(
                        self._cycle,
                        self.trace_core,
                        NO_WARP,
                        self.trace_channel,
                        "mshr-stall",
                        {"bank": bank_id, "line": line, "write": False},
                    )
                return False
            counters["read_misses"] += 1
            if trace is not None:
                payload = {"bank": bank_id, "line": line, "write": False}
                if existing is not None:
                    payload["merge"] = True
                trace.emit(
                    self._cycle,
                    self.trace_core,
                    NO_WARP,
                    self.trace_channel,
                    "miss",
                    payload,
                )

        accepted = self._accepts_this_cycle.get(bank_id)
        count = 0 if accepted is None else accepted[1]
        self._accepts_this_cycle[bank_id] = (line, count + 1)
        counters["accepted"] += 1
        return True

    @hot_path
    def send_batch(
        self, requests: list[tuple[Any, ...]], budget: int, is_write: bool, tag: Any
    ) -> tuple[int, list[tuple[Any, ...]], int]:
        """Present a whole warp's outstanding requests in one call.

        ``requests`` is a list of ``(address, line, bank_id, ...)`` tuples —
        the line/bank fields are precomputed once per memory instruction by
        the timing core (numpy over the lane trace) instead of re-derived on
        every retry attempt.  Requests are attempted strictly in order while
        ``budget`` (the LSU's per-thread ports) lasts; a refused attempt
        keeps its tuple in the returned retry list and does *not* consume
        budget, exactly like the per-lane ``send_raw`` loop.

        Arbitration is decided once per *run*: a maximal stretch of
        consecutive entries on the same line, hence the same bank.  Every
        lane of a run meets the same bank-selector state and a refusal
        mutates nothing, so a refused head (bank conflict, MSHR early-full,
        sticky lower refusal) refuses the whole run.  A hit or MSHR-merge
        head accepts as many lanes as the free ports and the budget allow,
        with one probe and one LRU update; the rest of the run is then
        judged again from its next lane.  Decisions that change what the
        next lane sees — a new MSHR allocation, a non-sticky lower refusal —
        cover only the head, and each write-through still makes its own
        lower-level call.

        Returns ``(accepted, refused, budget)`` where ``refused`` preserves
        order: refused attempts first, then the un-attempted tail once the
        budget ran out.  Counters are aggregated in locals and flushed once
        and trace events are emitted per lane, both exactly as the
        per-attempt ``send_raw`` loop charges them — bit-identical counters
        and traces are the contract (``tests/test_cache.py`` holds both
        paths to it with property tests).  The head checks are
        :meth:`_arbitration_refusal` inlined; keep them in sync.
        """
        counters = self._counters
        accepts = self._accepts_this_cycle
        banks = self.banks
        num_ports = self._num_ports
        num_banks = self._num_banks
        lower = self.lower
        trace = self.trace
        # A traced cache never refuses writes in bulk: the lower levels'
        # per-lane events must interleave with its own.
        lower_writes_refused = self._lower_writes_refused if trace is None else None
        total = len(requests)
        # Saturation fast path: once every bank has all its ports taken this
        # cycle, the port check (which precedes every other refusal reason)
        # rejects any further request as a bank conflict without touching any
        # state — so the rest of the batch can be refused in bulk.
        full_banks = 0
        for _first_line, count in accepts.values():
            if count >= num_ports:
                full_banks += 1
        if full_banks >= num_banks and budget > 0 and total:
            counters["attempts"] += total
            counters["bank_conflicts"] += total
            if trace is not None:
                self._trace_lanes(requests, 0, total, "conflict", is_write)
            return 0, requests, budget
        if (
            is_write
            and budget > 0
            and lower_writes_refused is not None
            and lower_writes_refused()
        ):
            # The lower cache refuses every write-through this cycle: the
            # whole store batch is refused without a single lower-level call.
            self._refuse_writes_from(requests, 0)
            return 0, requests, budget
        attempts = accepted_count = bank_conflicts = mshr_stalls = memq_stalls = 0
        read_hits = read_misses = write_hits = write_misses = skipped = 0
        # Sticky lower-level backpressure: once a DRAM-backed lower port
        # refuses, every further fill/write this cycle is provably refused
        # too (the shared queue only fills during a drain), so the calls are
        # skipped and their refusal-side counters charged in one flush.
        lower_sticky = lower is not None and lower.sticky_refusal
        lower_full = False
        refused: list[tuple[Any, ...]] = []
        index = 0
        run_end = 0
        while index < total:
            if budget <= 0:
                refused.extend(requests[index:])
                break
            entry = requests[index]
            line = entry[1]
            if index >= run_end:
                run_end = index + 1
                while run_end < total and requests[run_end][1] == line:
                    run_end += 1
            run = run_end - index
            bank_id = entry[2]
            accepted = accepts.get(bank_id)
            count = 0
            if accepted is not None:
                count = accepted[1]
                if count >= num_ports or accepted[0] != line:
                    attempts += run
                    bank_conflicts += run
                    refused.extend(requests[index:run_end])
                    if trace is not None:
                        self._trace_lanes(requests, index, run_end, "conflict", is_write)
                    index = run_end
                    continue
            bank = banks[bank_id]
            mshr = bank.mshr
            if not is_write and mshr.almost_full:
                attempts += run
                mshr_stalls += run
                refused.extend(requests[index:run_end])
                if trace is not None:
                    self._trace_lanes(requests, index, run_end, "mshr-stall", False)
                index = run_end
                continue
            # Lanes the head can take at most: free ports, run length, budget.
            take = num_ports - count
            if run < take:
                take = run
            if budget < take:
                take = budget
            if is_write:
                # Write-through, no-allocate: every lane forwards its own
                # store to the lower level, accepted until it refuses; a
                # write hit also updates the cached line's LRU state.
                hit = bank.probe(line)
                taken = 0
                while taken < take:
                    if lower is not None and not lower.request_write(
                        self, requests[index + taken][0]
                    ):
                        break
                    if trace is not None:
                        lane = index + taken
                        kind = "hit" if hit else "miss"
                        self._trace_lanes(requests, lane, lane + 1, kind, True)
                    taken += 1
                if taken:
                    if hit:
                        bank.touch(line, taken)
                        write_hits += taken
                    else:
                        write_misses += taken
                    lanes = self._bank_requests(requests, index, index + taken, True, tag)
                    bank.schedule_responses(lanes, self._cycle, hit)
            elif bank.probe(line):
                taken = take
                bank.touch(line, taken)
                lanes = self._bank_requests(requests, index, index + taken, False, tag)
                bank.schedule_responses(lanes, self._cycle, True)
                read_hits += taken
                if trace is not None:
                    self._trace_lanes(requests, index, index + taken, "hit", False)
            else:
                mshr_entry = mshr.lookup(line)
                if mshr_entry is not None:
                    taken = take
                    waiting = self._bank_requests(requests, index, index + taken, False, tag)
                    mshr.merge(mshr_entry, waiting)
                    read_misses += taken
                    if trace is not None:
                        self._trace_lanes(
                            requests, index, index + taken, "miss", False, merge=True
                        )
                else:
                    # A new miss covers the head only: its allocation may
                    # raise the early-full signal the next lane sees.
                    if lower is not None:
                        if lower_full:
                            attempts += run
                            memq_stalls += run
                            skipped += run
                            refused.extend(requests[index:run_end])
                            if trace is not None:
                                self._trace_lanes(requests, index, run_end, "refusal", False)
                            index = run_end
                            continue
                        if not lower.request_fill(self, line):
                            lower_full = lower_sticky
                            attempts += 1
                            memq_stalls += 1
                            refused.append(entry)
                            if trace is not None:
                                self._trace_lanes(requests, index, index + 1, "refusal", False)
                            index += 1
                            continue
                    request = BankRequest(entry[0], False, tag, self._cycle)
                    if mshr.allocate(line, request) is None:
                        attempts += 1
                        mshr_stalls += 1
                        refused.append(entry)
                        if trace is not None:
                            self._trace_lanes(requests, index, index + 1, "mshr-stall", False)
                        index += 1
                        continue
                    taken = 1
                    read_misses += 1
                    if trace is not None:
                        self._trace_lanes(requests, index, index + 1, "miss", False)

            if taken:
                attempts += taken
                accepted_count += taken
                budget -= taken
                index += taken
                count += taken
                accepts[bank_id] = (line, count)
                if count >= num_ports:
                    full_banks += 1
                    if full_banks >= num_banks and budget > 0 and index < total:
                        remaining = total - index
                        attempts += remaining
                        bank_conflicts += remaining
                        refused.extend(requests[index:])
                        if trace is not None:
                            self._trace_lanes(requests, index, total, "conflict", is_write)
                        break
            if is_write and taken < take:
                # The lower level refused lane ``index``'s write-through.
                attempts += 1
                memq_stalls += 1
                refused.append(requests[index])
                if trace is not None:
                    self._trace_lanes(requests, index, index + 1, "refusal", True)
                index += 1
                if index < total and (
                    lower_sticky
                    or (lower_writes_refused is not None and lower_writes_refused())
                ):
                    # No later write can be accepted: a sticky lower queue
                    # stays full, and a lower cache whose own way down is
                    # blocked refuses every write-through.  Budget stays
                    # positive, so every tail entry counts as an attempt.
                    self._refuse_writes_from(requests, index)
                    refused.extend(requests[index:])
                    break

        # Flush the aggregated counts; only-touched-when-nonzero keeps the
        # counter key sets identical to the per-lane path's.
        if attempts:
            counters["attempts"] += attempts
        if bank_conflicts:
            counters["bank_conflicts"] += bank_conflicts
        if mshr_stalls:
            counters["mshr_stalls"] += mshr_stalls
        if memq_stalls:
            counters["memq_stalls"] += memq_stalls
        if read_hits:
            counters["read_hits"] += read_hits
        if read_misses:
            counters["read_misses"] += read_misses
        if write_hits:
            counters["write_hits"] += write_hits
        if write_misses:
            counters["write_misses"] += write_misses
        if accepted_count:
            counters["accepted"] += accepted_count
        if skipped and lower is not None:
            lower.note_skipped_refusal(skipped)
        return accepted_count, refused, budget

    @hot_path
    def _write_tail_conflicts(
        self, requests: list[tuple[Any, ...]], start: int, forwarded: list[int] | None = None
    ) -> int:
        """How many writes of ``requests[start:]`` the port check refuses.

        Called once the lower level is known to refuse every further write
        this cycle: each later write is refused, as a bank conflict where
        the port check refuses it and as a lower-level refusal everywhere
        else.  When ``forwarded`` is given, the addresses of the lower-level
        refusals are appended to it, in order.  Only banks that accepted
        this cycle can refuse, and when all of them are out of ports their
        entries are counted per bank without looking at lines.  With
        tracing on, the per-lane events are emitted in order.
        """
        accepts = self._accepts_this_cycle
        num_ports = self._num_ports
        trace = self.trace
        conflicts = 0
        if trace is None and forwarded is None:
            if not accepts:
                return 0
            full_banks: list[int] = []
            for bank_id, (_first_line, count) in accepts.items():
                if count >= num_ports:
                    full_banks.append(bank_id)
            if len(full_banks) == len(accepts):
                tail_banks = list(map(_BANK_OF, requests[start:]))
                for bank_id in full_banks:
                    conflicts += tail_banks.count(bank_id)
                return conflicts
        total = len(requests)
        index = start
        while index < total:
            entry = requests[index]
            line = entry[1]
            run_end = index + 1
            while run_end < total and requests[run_end][1] == line:
                run_end += 1
            accepted = accepts.get(entry[2])
            if accepted is not None and (accepted[1] >= num_ports or accepted[0] != line):
                conflicts += run_end - index
                kind = "conflict"
            else:
                kind = "refusal"
                if forwarded is not None:
                    forwarded.extend(map(_ADDRESS_OF, requests[index:run_end]))
            if trace is not None:
                self._trace_lanes(requests, index, run_end, kind, True)
            index = run_end
        return conflicts

    def writes_refused(self) -> bool:
        """True when every write-through sent here is refused for the rest of the cycle.

        A write-through is accepted only once the lower level accepts it
        too, so a level whose lower port is sticky and full (its
        :meth:`LowerPort.refusal_horizon` is set) refuses them all, and so
        does a level above such a level.  Refusals mutate nothing, so the
        bank-selector state each refusal is judged against stays frozen and
        :meth:`refuse_writes` can charge a whole batch at once.  A traced
        level answers False: its per-lane events must interleave with the
        events of the level above.
        """
        lower = self.lower
        if lower is None or self.trace is not None:
            return False
        if lower.sticky_refusal:
            return lower.refusal_horizon() is not None
        probe = self._lower_writes_refused
        return probe is not None and probe()

    @hot_path
    def refuse_writes(self, addresses: list[int]) -> None:
        """Charge the write-throughs ``addresses`` as refused, in one step.

        Only valid while :meth:`writes_refused` holds; each address then
        costs exactly what a refused :meth:`send_raw` charges.
        """
        line_size = self._line_size
        num_banks = self._num_banks
        requests: list[tuple[Any, ...]] = []
        for address in addresses:
            line = address // line_size
            requests.append((address, line, line % num_banks))
        self._refuse_writes_from(requests, 0)

    @hot_path
    def _refuse_writes_from(self, requests: list[tuple[Any, ...]], start: int) -> None:
        """Charge ``requests[start:]`` as write-throughs the lower level refuses.

        Valid once the lower level refuses every write this cycle.  Each
        entry is an attempt, then a bank conflict where the port check
        refuses it and otherwise a ``memq_stalls`` refusal whose request
        the lower level is charged for: a sticky port's skipped refusals
        as one count, a lower cache's through its own bulk refusal.
        """
        lower = self.lower
        tail = len(requests) - start
        if lower is None or tail <= 0:
            return
        forwarded: list[int] | None = None if lower.sticky_refusal else []
        conflicts = self._write_tail_conflicts(requests, start, forwarded)
        counters = self._counters
        counters["attempts"] += tail
        if conflicts:
            counters["bank_conflicts"] += conflicts
        refusals = tail - conflicts
        if refusals:
            counters["memq_stalls"] += refusals
            if forwarded is None:
                lower.note_skipped_refusal(refusals)
            else:
                lower.refuse_writes(forwarded)

    @hot_path
    def _bank_requests(
        self, requests: list[tuple[Any, ...]], start: int, stop: int, is_write: bool, tag: Any
    ) -> list[BankRequest]:
        """Bank records for the lanes ``requests[start:stop]`` accepted this cycle."""
        cycle = self._cycle
        accepted: list[BankRequest] = []
        for index in range(start, stop):
            accepted.append(BankRequest(requests[index][0], is_write, tag, cycle))
        return accepted

    def _trace_lanes(
        self,
        requests: list[tuple[Any, ...]],
        start: int,
        stop: int,
        kind: str,
        is_write: bool,
        merge: bool = False,
    ) -> None:
        """Emit one ``kind`` event per lane of ``requests[start:stop]`` (tracing on only)."""
        trace = self.trace
        for index in range(start, stop):
            entry = requests[index]
            payload = {"bank": entry[2], "line": entry[1], "write": is_write}
            if merge:
                payload["merge"] = True
            trace.emit(self._cycle, self.trace_core, NO_WARP, self.trace_channel, kind, payload)

    # -- checkpoint/restore --------------------------------------------------------------------

    def snapshot(self, encode_tag: Callable[[Any], Any]) -> dict:
        """Serialize clock, per-cycle accept state and every bank.

        ``encode_tag`` maps request tags to plain data (lower-level fill
        tags carry live cache references; the memory subsystem encodes them
        by cache name).
        """
        return {
            "cycle": self._cycle,
            "accepts_this_cycle": dict(self._accepts_this_cycle),
            "banks": [bank.snapshot(encode_tag) for bank in self.banks],
            "perf": self.perf.snapshot(),
        }

    def restore(self, payload: dict, decode_tag: Callable[[Any], Any]) -> None:
        """Restore cache state from a :meth:`snapshot` payload."""
        self._cycle = payload["cycle"]
        self._accepts_this_cycle.clear()
        self._accepts_this_cycle.update(payload["accepts_this_cycle"])
        for bank, bank_payload in zip(self.banks, payload["banks"]):
            bank.restore(bank_payload, decode_tag)
        self.perf.restore(payload["perf"])

    # -- back-end: fills and responses -------------------------------------------------------

    def fill(self, line_address: int) -> None:
        """A fill for ``line_address`` returned from the lower level."""
        bank = self.banks[line_address % self.config.num_banks]
        replayed = bank.fill(line_address, self._cycle)
        for request in replayed:
            bank.schedule_response(request, self._cycle, False)
        self.perf.incr("fills")
        if self.trace is not None:
            self.trace.emit(
                self._cycle,
                self.trace_core,
                NO_WARP,
                self.trace_channel,
                "fill",
                {"bank": line_address % self.config.num_banks, "line": line_address},
            )

    def tick(self) -> list[CacheResponse]:
        """Advance one cycle; returns the responses completing this cycle."""
        self._cycle += 1
        if self._accepts_this_cycle:
            self._accepts_this_cycle.clear()
        cycle = self._cycle
        responses: list[CacheResponse] = []
        for bank in self.banks:
            # A bank's pending responses are ready-cycle ordered, so a bank
            # whose head is not due yet has nothing to collect.
            pending = bank._pending
            if not pending or pending[0].ready_cycle > cycle:
                continue
            for bank_request, hit in bank.collect_responses(cycle):
                responses.append(
                    CacheResponse(
                        address=bank_request.address,
                        is_write=bank_request.is_write,
                        tag=bank_request.tag,
                        hit=hit,
                        cycle=cycle,
                    )
                )
        self._counters["cycles"] += 1
        return responses

    # -- fast-forward ------------------------------------------------------------------------

    def write_refusal_horizon(self) -> int | None:
        """Cycle before which every write-through is provably refused.

        A write needs a bank port — free again at the start of every cycle —
        plus a lower-level accept, so the only cross-cycle refusal guarantee
        comes from the lower port's shared queue being full.
        """
        return None if self.lower is None else self.lower.refusal_horizon()

    def next_response_cycle(self) -> int | None:
        """Earliest cycle any bank completes a response (``None`` when idle).

        Outstanding misses are *not* events here: their fills live in the
        lower level's queue (DRAM or the next cache's banks) and are
        reported by that level.
        """
        result: int | None = None
        for bank in self.banks:
            ready = bank.next_response_cycle()
            if ready is not None and (result is None or ready < result):
                result = ready
        return result

    def skip_idle(self, cycles: int) -> None:
        """Advance ``cycles`` provably idle cycles in one jump.

        Only valid when the caller proved (via :meth:`next_response_cycle`)
        that no response completes in the window and no requests arrive —
        each skipped :meth:`tick` would then only advance the clock and the
        ``cycles`` counter.
        """
        self._cycle += cycles
        self._counters["cycles"] += cycles

    # -- statistics -------------------------------------------------------------------------

    @property
    def bank_utilization(self) -> float:
        """Fraction of issued requests that did not experience a bank conflict.

        This matches the paper's Figure 19 definition: 100% means every
        request was accepted without a direct bank conflict, with remaining
        stalls attributable to input queues being full.
        """
        accepted = self.perf.get("accepted")
        conflicts = self.perf.get("bank_conflicts")
        if accepted + conflicts == 0:
            return 1.0
        return accepted / (accepted + conflicts)

    @property
    def hit_rate(self) -> float:
        hits = self.perf.get("read_hits") + self.perf.get("write_hits")
        misses = self.perf.get("read_misses") + self.perf.get("write_misses")
        if hits + misses == 0:
            return 0.0
        return hits / (hits + misses)

    @property
    def busy(self) -> bool:
        """True while any bank still has outstanding work."""
        return any(bank.busy for bank in self.banks)

    def counters(self) -> dict[str, int]:
        """Flat snapshot of the cache's performance counters."""
        return self.perf.as_dict()
