"""Event-driven memory controller binding queues, policy and banks.

The controller is deliberately agnostic of *what* a write costs: a
:class:`ServiceModel` prices each request, which is how the same
controller serves every write scheme — the Fig 11-14 experiments swap the
service model, nothing else.  Two implementations exist in
:mod:`repro.experiments.fullsystem`: a precomputed one (per-write service
times from the vectorized scheme pipeline) and a functional one (live
:class:`~repro.pcm.device.PCMDevice` with real cell contents).

Flow control: cores submit requests; a full queue returns ``False`` and
the core registers a waiter callback that fires when a slot frees —
modelling the pipeline backpressure that makes slow writes throttle
issue.  Read forwarding: a read hitting a line with a pending write is
answered from the write queue in ``forward_latency_ns``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.config import SystemConfig
from repro.memctrl.frfcfs import FRFCFSPolicy, RowBufferModel
from repro.memctrl.queues import BoundedQueue
from repro.memctrl.request import MemRequest, ReqKind
from repro.obs.runtime import tracer_for
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram, LatencyStat, TimeSeries

__all__ = ["ServiceModel", "ControllerStats", "MemoryController"]


class ServiceModel(Protocol):
    """Prices requests; optionally commits write content."""

    def read_ns(self, req: MemRequest) -> float: ...

    def write_ns(self, req: MemRequest) -> float: ...


@dataclass
class ControllerStats:
    """Aggregate controller metrics for one run.

    ``warmup_requests`` implements the standard measurement methodology:
    the first N completions (cold caches, empty queues) are counted for
    conservation but excluded from the latency statistics.
    """

    warmup_requests: int = 0
    completed_reads: int = 0
    completed_writes: int = 0

    read_latency: LatencyStat = field(default_factory=lambda: LatencyStat("read"))
    write_latency: LatencyStat = field(default_factory=lambda: LatencyStat("write"))
    read_wait: LatencyStat = field(default_factory=lambda: LatencyStat("read_wait"))
    write_wait: LatencyStat = field(default_factory=lambda: LatencyStat("write_wait"))
    # Tail-latency histograms (percentiles via Histogram.percentile).
    read_hist: Histogram = field(
        default_factory=lambda: Histogram("read", bin_width=50.0, num_bins=512)
    )
    write_hist: Histogram = field(
        default_factory=lambda: Histogram("write", bin_width=200.0, num_bins=256)
    )
    forwarded_reads: int = 0
    read_stalls: int = 0
    write_stalls: int = 0
    write_pauses: int = 0
    coalesced_writes: int = 0
    subarray_reads: int = 0
    bank_busy_ns: dict[int, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """All completions, warmup included (conservation checks)."""
        return self.completed_reads + self.completed_writes

    def record(self, req: MemRequest) -> None:
        if req.kind is ReqKind.READ:
            self.completed_reads += 1
            latency, wait, hist = self.read_latency, self.read_wait, self.read_hist
        else:
            self.completed_writes += 1
            latency, wait, hist = self.write_latency, self.write_wait, self.write_hist
        if self.completed_reads + self.completed_writes <= self.warmup_requests:
            return  # warmup: counted for conservation, excluded from stats
        latency_ns = req.latency_ns
        latency.add(latency_ns)
        wait.add(req.queue_wait_ns)
        hist.add(latency_ns)


class MemoryController:
    """FR-FCFS controller over ``num_banks`` independently-busy banks."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        service: ServiceModel,
        *,
        row_buffer: RowBufferModel | None = None,
        forward_latency_ns: float = 1.0,
        enable_forwarding: bool = True,
        warmup_requests: int = 0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.service = service
        mc = config.memctrl
        self.read_queue = BoundedQueue(mc.read_queue_entries, "read")
        self.write_queue = BoundedQueue(mc.write_queue_entries, "write")
        # SJF drain needs side-effect-free service prediction; models
        # that can provide it expose predict_write_ns (the precomputed
        # model does, the functional one does not).
        predictor = getattr(service, "predict_write_ns", None)
        self.policy = FRFCFSPolicy(mc, row_buffer, write_predictor=predictor)
        # Ranks multiply the independent service units: global bank id
        # = line mod (banks x ranks), matching AddressMap's decode.
        self.num_banks = (
            config.organization.num_banks * config.organization.num_ranks
        )
        self.bank_busy = [False] * self.num_banks
        # Per-bank in-flight bookkeeping for write pausing: the request
        # being serviced, its completion event, and its finish time.
        self._inflight: list[tuple[MemRequest, object, float] | None] = (
            [None] * self.num_banks
        )
        # Per-bank paused write: (request, remaining service ns).
        self._paused: list[tuple[MemRequest, float] | None] = [None] * self.num_banks
        self.stats = ControllerStats(warmup_requests=warmup_requests)
        self.forward_latency_ns = forward_latency_ns
        self.enable_forwarding = enable_forwarding
        self._read_waiters: deque[Callable[[], None]] = deque()
        self._write_waiters: deque[Callable[[], None]] = deque()
        # This instant's kick: the engine seq reserved for it, the time
        # of the reservation, and whether it was filled (scheduled).
        self._kick_scheduled = False
        self._kick_seq = -1
        self._kick_time = -1.0
        self._kick_filled = False
        # Write-queue occupancy at the kick's last drain refresh (-1:
        # refresh at the next idle bank).
        self._drain_occ = -1
        # Read by _schedule_kick on every transition.  With subarrays
        # any kick may serve a read under a write, so each is scheduled.
        self._reads_by_bank = self.read_queue.by_bank
        self._writes_by_bank = self.write_queue.by_bank
        self._opportunistic = mc.opportunistic_drain
        self._always_kick = config.organization.subarrays_per_bank > 1
        self._drain_hi = mc.drain_high_watermark
        self._drain_lo = mc.drain_low_watermark
        # Subarray read-under-write (refs [13]/[15]): one extra read port
        # per bank, usable while a write occupies a *different* subarray.
        self.subarrays = config.organization.subarrays_per_bank
        self._read_port_busy = [False] * self.num_banks
        # Optional queue-occupancy tracing (sparkline diagnostics).
        self.occupancy_trace: "TimeSeries | None" = None
        # Observability (repro.obs): None unless config.trace.enabled,
        # so untraced runs pay one `is None` test per site.
        self._obs = tracer_for(config)

    # ------------------------------------------------------------------
    # Observability emissions (all sites guard on self._obs).
    # ------------------------------------------------------------------
    def _trace_depths(self) -> None:
        obs = self._obs
        obs.counter(
            "memctrl.read_queue", float(self.read_queue.occupancy()),
            pid="memctrl", cat="queue",
        )
        obs.counter(
            "memctrl.write_queue", float(self.write_queue.occupancy()),
            pid="memctrl", cat="queue",
        )

    def _trace_complete(self, bank: int, req: MemRequest) -> None:
        obs = self._obs
        kind = "read" if req.kind is ReqKind.READ else "write"
        obs.complete(
            f"{kind} line{req.line}",
            ts_ns=req.start_ns,
            dur_ns=max(0.0, req.finish_ns - req.start_ns),
            pid="memctrl",
            tid=f"bank{bank}",
            cat="service",
            args={
                "line": req.line,
                "wait_ns": req.queue_wait_ns,
                "latency_ns": req.latency_ns,
            },
        )
        m = obs.metrics.scope("memctrl")
        m.counter(f"{kind}s.completed").inc()
        m.latency(f"{kind}s.latency_ns").add(req.latency_ns)
        m.gauge(f"bank{bank}.busy_ns").set(
            self.stats.bank_busy_ns.get(bank, 0.0)
        )

    # ------------------------------------------------------------------
    # Submission API (called by cores).
    # ------------------------------------------------------------------
    def submit(self, req: MemRequest) -> bool:
        """Try to accept a request; False means the queue is full."""
        req.enqueue_ns = self.sim.now
        if req.kind is ReqKind.READ:
            if self.enable_forwarding and self.write_queue.contains_line(req.line):
                # Serve from the write queue: no bank access needed.
                req.forwarded = True
                self.stats.forwarded_reads += 1
                if self._obs is not None:
                    self._obs.instant(
                        "read_forwarded", pid="memctrl", tid="queue",
                        cat="queue", args={"line": req.line},
                    )
                    self._obs.metrics.counter("memctrl.forwarded_reads").inc()
                self.sim.schedule(self.forward_latency_ns, self._complete_forward, req)
                return True
            if not self.read_queue.push(req):
                self.stats.read_stalls += 1
                if self._obs is not None:
                    self._obs.instant(
                        "read_stall", pid="memctrl", tid="queue", cat="queue",
                    )
                    self._obs.metrics.counter("memctrl.read_stalls").inc()
                return False
            if self.config.memctrl.write_pausing:
                self._maybe_pause(req)
        else:
            if self.config.memctrl.write_coalescing and (
                self.write_queue.contains_line(req.line)
            ):
                pending = self.write_queue.oldest_where(
                    lambda r: r.line == req.line
                )
                if pending is not None:
                    # Absorb: the queued entry will carry the newest data
                    # (its payload index advances); this request is done.
                    pending.write_idx = req.write_idx
                    self.stats.coalesced_writes += 1
                    req.start_ns = req.finish_ns = self.sim.now
                    self.stats.record(req)
                    if req.on_done is not None:
                        req.on_done(req)
                    return True
            if not self.write_queue.push(req):
                self.stats.write_stalls += 1
                if self._obs is not None:
                    self._obs.instant(
                        "write_stall", pid="memctrl", tid="queue", cat="queue",
                    )
                    self._obs.metrics.counter("memctrl.write_stalls").inc()
                return False
            if self.occupancy_trace is not None:
                self._sample_occupancy()
        if self._obs is not None:
            self._trace_depths()
        self._schedule_kick(req.bank)
        return True

    def track_write_occupancy(self) -> TimeSeries:
        """Enable write-queue occupancy tracing; returns the series."""
        self.occupancy_trace = TimeSeries("write_queue")
        return self.occupancy_trace

    def _sample_occupancy(self) -> None:
        """Record the write-queue depth; callers test ``occupancy_trace``."""
        self.occupancy_trace.sample(self.sim.now, self.write_queue.occupancy())

    # ------------------------------------------------------------------
    # Write pausing (refs [23-24]: serve critical reads by suspending an
    # in-flight write at sub-write-unit granularity).
    # ------------------------------------------------------------------
    def _subarray_of(self, line: int) -> int:
        return (line // self.num_banks) % self.subarrays

    def _maybe_pause(self, read: MemRequest) -> None:
        bank = read.bank
        inflight = self._inflight[bank]
        if inflight is None or self._paused[bank] is not None:
            return
        req, event, finish_ns = inflight
        if req.kind is not ReqKind.WRITE:
            return
        if self.subarrays > 1 and (
            self._subarray_of(read.line) != self._subarray_of(req.line)
        ):
            return  # the read can bypass through another subarray instead
        remaining = finish_ns - self.sim.now
        if remaining <= self.config.memctrl.pause_threshold_ns:
            return  # about to finish anyway; not worth the re-ramp
        event.cancel()
        self._inflight[bank] = None
        self.bank_busy[bank] = False
        self._paused[bank] = (
            req, remaining + self.config.memctrl.pause_overhead_ns
        )
        self.stats.write_pauses += 1
        if self._obs is not None:
            self._obs.instant(
                "write_paused", pid="memctrl", tid=f"bank{bank}",
                cat="service",
                args={"line": req.line, "remaining_ns": remaining},
            )
            self._obs.metrics.counter("memctrl.write_pauses").inc()

    def _resume_paused(self, bank: int) -> bool:
        """Restart a paused write; returns True if one was resumed."""
        paused = self._paused[bank]
        if paused is None:
            return False
        req, remaining = paused
        self._paused[bank] = None
        self.bank_busy[bank] = True
        self.stats.bank_busy_ns[bank] = (
            self.stats.bank_busy_ns.get(bank, 0.0) + remaining
        )
        event = self.sim.schedule(remaining, self._complete, bank, req)
        self._inflight[bank] = (req, event, self.sim.now + remaining)
        return True

    def stall_until_read_slot(self, callback: Callable[[], None]) -> None:
        self._read_waiters.append(callback)

    def stall_until_write_slot(self, callback: Callable[[], None]) -> None:
        self._write_waiters.append(callback)

    # ------------------------------------------------------------------
    # Scheduling engine.
    # ------------------------------------------------------------------
    def _schedule_kick(self, bank: int | None = None) -> None:
        """Coalesce same-timestamp kicks into one pass, scheduled only
        when it can act.

        The first transition of a batch reserves the engine seq that a
        kick scheduled right away would take.  The kick is filled into
        that slot by the first transition of the batch after which it
        could start work or flip the drain state, so every kick that
        fires does so at the ``(time, seq)`` it would have had anyway,
        and a kick that could only find nothing to do is never
        scheduled.  A reservation left unfilled lapses once an event
        ordered after it fires, as the kick it stands for would have.

        The kick is needed when the transition's ``bank`` is idle and
        has a pending read, a paused write or a write the policy may
        issue now; when a drain refresh would flip ``draining`` while
        some bank is idle (the kick refreshes only then); with subarrays
        (any kick may serve a read under a write); and for a waiter's
        submit inside the kick, whose later starts may leave a drain
        exit pending that this follow-up kick performs.  Only the
        transition's own bank is examined: after a kick, no other idle
        bank can start anything before a transition of its own.
        """
        sim = self.sim
        if self._kick_scheduled:
            if self._kick_filled:
                return
            live = sim.now == self._kick_time and sim.seq_now < self._kick_seq
            needed = self._always_kick
        else:
            live = False
            # seq_now is the kick's own seq while the kick runs.
            needed = self._always_kick or sim.seq_now == self._kick_seq
        if not needed:
            policy = self.policy
            if (
                bank is not None
                and not self.bank_busy[bank]
                and (
                    self._reads_by_bank.get(bank)
                    or self._paused[bank] is not None
                    or (
                        (policy.draining or self._opportunistic)
                        and self._writes_by_bank.get(bank)
                    )
                )
            ):
                needed = True
            elif False in self.bank_busy:
                occ = len(self.write_queue)
                if policy.draining:
                    needed = not policy.force_drain and occ <= self._drain_lo
                else:
                    needed = policy.force_drain or occ >= self._drain_hi
        if not live:
            self._kick_scheduled = True
            self._kick_time = sim.now
            self._kick_seq = sim.reserve()
            self._kick_filled = needed
        elif needed:
            self._kick_filled = True
        if needed:
            sim.fill(self._kick_seq, self._kick)

    def _kick(self) -> None:
        """Start work on every bank that can take it, in bank order.

        The drain state is refreshed before the first idle bank is
        considered and again after anything that may have changed the
        queues (a service start runs a core's waiter, which may submit),
        each time only if the write-queue occupancy (or ``force_drain``)
        changed since the last refresh.  Refreshing with unchanged
        inputs is a no-op (the watermarks satisfy lo < hi), so this
        equals refreshing at every idle bank.
        Each bank that may start something asks ``policy.choose`` — the
        policy's ``select`` minus the refresh just done.  Banks for which
        the answer must be None are skipped: no pending read, and no
        pending write the policy may issue.
        """
        self._kick_scheduled = False
        policy = self.policy
        read_queue = self.read_queue
        write_queue = self.write_queue
        reads = self._reads_by_bank
        writes = self._writes_by_bank
        bank_busy = self.bank_busy
        paused = self._paused
        issue_writes = False  # set at the first refresh, before any use
        stale = True
        for bank in range(self.num_banks):
            if bank_busy[bank]:
                if self.subarrays > 1:
                    self._try_read_under_write(bank)
                    stale = True
                continue
            if paused[bank] is not None:
                # A paused write owns the bank: pending reads cut in line,
                # anything else waits for the resume.
                read = read_queue.oldest_for_bank(bank)
                if read is not None:
                    self._start_service(bank, read)
                else:
                    self._resume_paused(bank)
                stale = True
                continue
            if stale:
                stale = False
                occ = len(write_queue)
                if occ != self._drain_occ:
                    self._drain_occ = occ
                    policy.update_drain_state(write_queue)
                issue_writes = policy.draining or self._opportunistic
            if reads.get(bank) or (issue_writes and writes.get(bank)):
                req = policy.choose(bank, read_queue, write_queue)
                if req is not None:
                    self._start_service(bank, req)
                    stale = True

    def _start_service(self, bank: int, req: MemRequest) -> None:
        """Dequeue ``req``, free its slot to the oldest stalled core of
        its kind, price it and occupy ``bank`` until it completes.

        The waiter runs before the completion is scheduled (it may
        submit, and so schedule, first); ``now`` cannot move meanwhile.
        """
        now = self.sim.now
        read = req.kind is ReqKind.READ
        if read:
            self.read_queue.remove(req)
            waiters = self._read_waiters
        else:
            self.write_queue.remove(req)
            waiters = self._write_waiters
            if self.occupancy_trace is not None:
                self._sample_occupancy()
        if self._obs is not None:
            self._trace_depths()
        if waiters:
            waiters.popleft()()
        req.start_ns = now
        if not read:
            service_ns = self.service.write_ns(req)
        elif self.policy.row_buffer is not None:
            service_ns = self.policy.row_buffer.access(bank, req.line)
        else:
            service_ns = self.service.read_ns(req)
        if service_ns < 0:
            raise ValueError(f"negative service time for {req}")
        self.bank_busy[bank] = True
        busy = self.stats.bank_busy_ns
        busy[bank] = busy.get(bank, 0.0) + service_ns
        event = self.sim.schedule(service_ns, self._complete, bank, req)
        self._inflight[bank] = (req, event, now + service_ns)

    def _try_read_under_write(self, bank: int) -> None:
        """Serve a read through a free subarray while a write occupies
        the bank (the refs [13]/[15] intra-bank parallelism)."""
        if self._read_port_busy[bank]:
            return
        inflight = self._inflight[bank]
        if inflight is None or inflight[0].kind is not ReqKind.WRITE:
            return
        write_sub = self._subarray_of(inflight[0].line)
        for read in self.read_queue.for_bank(bank):
            if self._subarray_of(read.line) != write_sub:
                break
        else:
            return
        self.read_queue.remove(read)
        if self._read_waiters:
            self._read_waiters.popleft()()
        read.start_ns = self.sim.now
        service_ns = self.service.read_ns(read)
        self._read_port_busy[bank] = True
        self.stats.subarray_reads += 1
        self.sim.schedule(service_ns, self._complete_read_port, bank, read)

    def _complete_read_port(self, bank: int, req: MemRequest) -> None:
        self._read_port_busy[bank] = False
        req.finish_ns = self.sim.now
        self.stats.record(req)
        if req.on_done is not None:
            req.on_done(req)
        self._schedule_kick(bank)

    # ------------------------------------------------------------------
    # Completion.
    # ------------------------------------------------------------------
    def _complete(self, bank: int, req: MemRequest) -> None:
        self.bank_busy[bank] = False
        self._inflight[bank] = None
        req.finish_ns = self.sim.now
        self.stats.record(req)
        if self._obs is not None:
            self._trace_complete(bank, req)
        if req.on_done is not None:
            req.on_done(req)
        self._schedule_kick(bank)

    def _complete_forward(self, req: MemRequest) -> None:
        req.start_ns = req.enqueue_ns
        req.finish_ns = self.sim.now
        self.stats.record(req)
        if req.on_done is not None:
            req.on_done(req)

    def flush_writes(self) -> None:
        """Drain the write queue unconditionally (end-of-run)."""
        self.policy.force_drain = True
        self._drain_occ = -1
        self._schedule_kick()

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no requests are queued, in flight, or paused."""
        return (
            self.read_queue.empty
            and self.write_queue.empty
            and not any(self.bank_busy)
            and not any(self._read_port_busy)
            and not any(p is not None for p in self._paused)
        )
