"""Analytic cell pricer: full sweep rows without running the DES.

Two halves, mirroring the two halves of a DES cell
(:func:`repro.parallel.engine._execute_cell`):

* :func:`price_write_service` — per-write ``(service_ns, units, energy)``
  arrays from the write-service table both lanes share
  (:mod:`repro.schemes.pricing`); the lanes differ only in what they do
  with it.  The oracle's table lane checks those tables against the
  paper's closed forms for every registered scheme.
* :func:`model_cell` — a two-regime analytic model of the restricted
  controller semantics that replaces the event-driven simulation:

  - **Free-run regime.**  While the write queue is below the drain
    watermark, no request ever waits: reads cost ``t_read``, writes cost
    the issuing core nothing (posted to the write queue).  Each core's
    timeline is a single ``cumsum`` over its records plus a scalar delay
    offset ``D`` accumulated at regime boundaries.  Write arrivals are
    merged across cores in time order by a heap keyed on each core's
    next write (found through a precomputed next-write index, not a
    rescan of the reads before it).
  - **Drain-window regime.**  When occupancy reaches the high watermark
    the controller turns demand-blind, and queueing effects dominate.
    The model switches to an *exact* event simulation of the window
    (write completions, starved-read chains, core resumes) until the
    system is quiescent: drain flag off, no writes in flight, no queued
    reads, no stalled cores.  Windows are the common case, not the
    exception: at 2000 requests/core with the default watermarks a cell
    replays about 107 of them, one per ~20 writes, and every write
    except the final flush starts service inside one.  The replay is
    most of the model's host time, so its per-window state and event
    handlers are built once per cell.

  The per-core columns (free-run issue/finish times, banks, write
  ordinals, next-write index) depend only on the trace and four config
  inputs, not on the scheme; :class:`_ScheduleMemo` builds them once per
  trace per process, so the schemes of one mix share them.

  Validated against the DES on the full Fig 11-14 grid (8 workloads x 6
  schemes, 4000 requests/core): mean absolute error 0.4-1.4% per metric,
  max 5.6% (read latency on saturated cells); see docs/PERFORMANCE.md.

Import discipline (simlint SL016): this package must not import the
DES it is rechecked against (``repro.sim``, ``repro.memctrl``,
``repro.cpu``) — the queueing model has to stay falsifiable against the
production simulator, which it cannot be if it computes answers *with*
that simulator.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.config import SystemConfig
from repro.schemes.pricing import precompute_write_service
from repro.trace.record import OP_WRITE, Trace

__all__ = [
    "model_cell",
    "price_cell",
    "price_write_service",
]

#: Mirror of ``MemoryController.forward_latency_ns`` (constructor
#: default; the sweep path never overrides it).
FWD_LATENCY_NS = 1.0


def price_write_service(
    trace: Trace, scheme: str, config: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-write ``(service_ns, units, energy)`` for one (trace, scheme).

    The shared write-service table, exactly as the DES lane prices it.
    """
    table = precompute_write_service(trace, scheme, config)
    return table.service_ns, table.units, table.energy


# ----------------------------------------------------------------------
# The two-regime system model.
# ----------------------------------------------------------------------
EV_DONE = 0  # write service completion on a bank
EV_RCHAIN = 1  # starved-read service completion on a bank
EV_REC = 2  # resume a core's record stream


class _ScheduleMemo:
    """The per-core free-run columns of the last trace modelled here.

    Every scheme of a mix models the same ``Trace`` object (the engine's
    per-process ``_trace_for`` cache hands it to each cell), and the
    columns depend only on the trace and four config inputs: the
    cycle time (``cycle_ns * base_cpi``), ``t_read_ns``, the bank count
    and ``num_cores``.  So they are built once per (trace, inputs), not
    once per scheme.  The memo holds one trace, so a worker's memory
    does not grow with the mixes it serves.  It matches the trace by
    identity and keeps a strong reference to it, so a freed trace's
    recycled ``id`` can never alias the entry.

    Fork-safe (SL009): the memo caches a pure function of its key and
    accumulates nothing, so a forked worker's inherited copy answers
    exactly as a rebuild would, and no row depends on which cells a
    process modelled before.
    """

    __slots__ = ("trace", "key", "cores")

    def __init__(self):
        self.trace = self.key = self.cores = None

    def get(self, trace: Trace, config: SystemConfig) -> list[tuple]:
        cycle = config.cpu.cycle_ns * config.cpu.base_cpi
        t_read = config.timings.t_read_ns
        num_banks = config.organization.num_banks * config.organization.num_ranks
        num_cores = config.cpu.num_cores
        key = (cycle, t_read, num_banks, num_cores)
        if self.trace is not trace or self.key != key:
            # Drop the old entry first so two schedules never coexist.
            self.trace = self.key = self.cores = None
            self.cores = _core_columns(trace.records, *key)
            self.trace, self.key = trace, key
        return self.cores


def _core_columns(recs, cycle, t_read, num_banks, num_cores) -> list[tuple]:
    """Each core's read-only free-run columns as plain Python lists.

    ``issue``/``finish`` are the record's free-run times; the live time
    of record ``k`` is ``issue[k] + D`` where ``D`` is the core's
    accumulated delay.  ``next_w[k]`` is the index of the core's first
    write at or after record ``k`` (``n`` when none is left).  Lists,
    not arrays, because the model touches single elements on its hot
    path.
    """
    is_write_all = recs["op"] == OP_WRITE
    write_ord_all = np.where(is_write_all, np.cumsum(is_write_all) - 1, -1)
    out = []
    for c in range(num_cores):
        mask = recs["core"] == c
        r = recs[mask]
        gap_ns = r["gap"].astype(np.float64) * cycle
        is_rd = r["op"] != OP_WRITE
        cost = gap_ns + np.where(is_rd, t_read, 0.0)
        finish = np.cumsum(cost)
        issue = finish - np.where(is_rd, t_read, 0.0)
        line = r["line"].astype(np.int64)
        n = len(r)
        wpos = np.flatnonzero(~is_rd)
        next_w = np.append(wpos, n)[np.searchsorted(wpos, np.arange(n + 1))]
        out.append((
            issue.tolist(),
            finish.tolist(),
            is_rd.tolist(),
            line.tolist(),
            (line % num_banks).tolist(),
            write_ord_all[mask].astype(np.int64).tolist(),
            next_w.tolist(),
            n,
            int(r["gap"].sum(dtype=np.int64)),
        ))
    return out


_SCHEDULES = _ScheduleMemo()


class _Core:
    """One core in one cell: shared read-only columns plus its live
    state — the next record ``k``, the accumulated delay ``D`` and
    whether it is frozen inside a drain window."""

    __slots__ = (
        "issue",
        "finish",
        "is_rd",
        "line",
        "bank",
        "widx",
        "next_w",
        "n",
        "instr",
        "D",
        "k",
        "blocked",
    )

    def __init__(self, cols):
        (
            self.issue,
            self.finish,
            self.is_rd,
            self.line,
            self.bank,
            self.widx,
            self.next_w,
            self.n,
            self.instr,
        ) = cols
        self.D = 0.0
        self.k = 0
        self.blocked = False


def model_cell(
    trace: Trace, service_ns, config: SystemConfig
) -> tuple[float, float, float, float, int]:
    """Analytic system metrics for one cell.

    Returns ``(read_latency_ns, write_latency_ns, ipc, runtime_ns,
    forwarded_reads)`` — the DES outputs the sweep rows are built from.
    ``service_ns`` is the per-write service array (from
    :func:`price_write_service` or a production table).
    """
    t_read = config.timings.t_read_ns
    fwd_ns = FWD_LATENCY_NS
    num_banks = config.organization.num_banks * config.organization.num_ranks
    hi = config.memctrl.drain_high_watermark
    lo = config.memctrl.drain_low_watermark
    wq_cap = config.memctrl.write_queue_entries

    cores = [_Core(cols) for cols in _SCHEDULES.get(trace, config)]

    svc = np.asarray(service_ns, dtype=np.float64).tolist()
    n_writes = trace.n_writes
    write_lat = [0.0] * n_writes
    read_extra = 0.0
    n_fwd = 0

    qb = [deque() for _ in range(num_banks)]  # per-bank pending writes
    occ = 0  # global write-queue occupancy
    pend_lines = {}  # line -> pending-write count (read forwarding)

    # ------------------------------------------------------------------
    # Drain-window state.  A window ends only once it is quiescent
    # (drain off, banks idle, no starved read, no frozen core), so the
    # next window starts from this state with only its stale resume
    # events to drop.
    draining = False
    bank_busy = [0] * num_banks  # 0 idle, 1 write, 2 read
    writes_in_flight = 0
    rq = [deque() for _ in range(num_banks)]  # starved reads
    n_rq = 0
    stalled = deque()  # cores frozen on a full write queue
    n_blocked = 0
    seq = 0
    evq = []
    push_ev = heapq.heappush
    pop_ev = heapq.heappop
    replace_ev = heapq.heapreplace

    def start_write(b, now):
        nonlocal occ, draining, writes_in_flight, seq, n_blocked
        arr, wi, ln = qb[b].popleft()
        occ -= 1
        if occ <= lo:
            draining = False
        cnt = pend_lines[ln] - 1
        if cnt:
            pend_lines[ln] = cnt
        else:
            del pend_lines[ln]
        done = now + svc[wi]
        write_lat[wi] = done - arr
        bank_busy[b] = 1
        writes_in_flight += 1
        seq += 1
        push_ev(evq, (done, seq, EV_DONE, b))
        if stalled:
            core = stalled.popleft()
            core.blocked = False
            n_blocked -= 1
            # The core was frozen at its write record; it resubmits
            # now, so its delay grows by the time spent stalled.
            core.D = now - core.issue[core.k]
            seq += 1
            push_ev(evq, (now, seq, EV_REC, core))

    def start_read_chain(b, now):
        nonlocal n_rq, read_extra, seq
        arr, core = rq[b].popleft()
        n_rq -= 1
        done = now + t_read
        read_extra += done - t_read - arr
        bank_busy[b] = 2
        seq += 1
        push_ev(evq, (done, seq, EV_RCHAIN, (b, core)))

    def run_core(c, now):
        """Advance one core inline until it interacts with the window
        state (starved read, queue-full stall) or falls behind the
        event queue head."""
        nonlocal occ, draining, read_extra, n_fwd, n_blocked, n_rq, seq
        k = c.k
        n = c.n
        D = c.D
        issue = c.issue
        finish = c.finish
        is_rd = c.is_rd
        line = c.line
        bank = c.bank
        widx = c.widx
        while k < n:
            t = issue[k] + D
            if evq and t > evq[0][0]:
                break
            if is_rd[k]:
                ln = line[k]
                if ln in pend_lines:
                    n_fwd += 1
                    read_extra += fwd_ns - t_read
                    D = (t + fwd_ns) - finish[k]
                    k += 1
                    continue
                b = bank[k]
                if bank_busy[b] or (draining and qb[b]):
                    rq[b].append((t, c))
                    n_rq += 1
                    c.blocked = True
                    n_blocked += 1
                    c.k = k
                    c.D = D
                    return
                k += 1
                continue
            # Write record.
            if occ >= wq_cap:
                stalled.append(c)
                c.blocked = True
                n_blocked += 1
                c.k = k
                c.D = D
                return
            wi = widx[k]
            b = bank[k]
            ln = line[k]
            qb[b].append((t, wi, ln))
            occ += 1
            pend_lines[ln] = pend_lines.get(ln, 0) + 1
            D = t - finish[k]
            k += 1
            if draining:
                if not bank_busy[b]:
                    start_write(b, t)
            elif occ >= hi:
                draining = True
                for bb in range(num_banks):
                    if not bank_busy[bb] and qb[bb]:
                        start_write(bb, t)
                        if not draining:
                            break
        c.k = k
        c.D = D
        if k < n:
            seq += 1
            push_ev(evq, (issue[k] + D, seq, EV_REC, c))

    def window_sim(t0):
        """Exact replay of one drain window starting at time ``t0``."""
        nonlocal read_extra, n_fwd, draining, writes_in_flight, n_blocked, seq
        nonlocal occ
        draining = True
        evq.clear()

        # Seed: retire stale free-run records, kick idle banks, resume
        # cores.  Macro invariant: every unprocessed record with live
        # time <= t0 is a read (writes are merged in global time order),
        # and those reads already completed in the free-run regime —
        # only their forwarding hits need accounting.
        for c in cores:
            if c.blocked or c.k >= c.n:
                continue
            k = c.k
            D = c.D
            nh = 0
            line = c.line
            is_rd = c.is_rd
            issue = c.issue
            n = c.n
            while k < n and is_rd[k] and issue[k] + D <= t0:
                if line[k] in pend_lines:
                    nh += 1
                k += 1
            if nh:
                n_fwd += nh
                read_extra += nh * (fwd_ns - t_read)
                D -= nh * (t_read - fwd_ns)
            c.k = k
            c.D = D
        for b in range(num_banks):
            if draining and qb[b] and not bank_busy[b]:
                start_write(b, t0)
            if not draining:
                break
        for c in cores:
            if c.k < c.n and not c.blocked:
                seq += 1
                push_ev(evq, (c.issue[c.k] + c.D, seq, EV_REC, c))

        # Every event key ``(time, seq)`` is unique, so replacing the
        # heap top instead of popping it and pushing its successor
        # cannot change the pop order.
        while evq:
            t, _, kind, payload = evq[0]
            if kind == EV_DONE and draining and qb[payload]:
                # The bank starts its next write at once: start_write
                # inlined, its completion taking this one's heap slot.
                b = payload
                arr, wi, ln = qb[b].popleft()
                occ -= 1
                if occ <= lo:
                    draining = False
                cnt = pend_lines[ln] - 1
                if cnt:
                    pend_lines[ln] = cnt
                else:
                    del pend_lines[ln]
                done = t + svc[wi]
                write_lat[wi] = done - arr
                seq += 1
                replace_ev(evq, (done, seq, EV_DONE, b))
                if stalled:
                    core = stalled.popleft()
                    core.blocked = False
                    n_blocked -= 1
                    core.D = t - core.issue[core.k]
                    seq += 1
                    push_ev(evq, (t, seq, EV_REC, core))
                # A write is in flight, so the window goes on.
                continue
            pop_ev(evq)
            if kind == EV_REC:
                c = payload
                if not c.blocked and c.k < c.n:
                    run_core(c, t)
                continue
            if kind == EV_DONE:
                b = payload
                writes_in_flight -= 1
            else:  # EV_RCHAIN
                b, core = payload
                core.blocked = False
                n_blocked -= 1
                core.D = t - core.finish[core.k]
                core.k += 1
            bank_busy[b] = 0
            if draining and qb[b]:
                start_write(b, t)
            elif rq[b]:
                start_read_chain(b, t)
            if kind == EV_RCHAIN:
                run_core(core, t)
            if (
                not draining
                and writes_in_flight == 0
                and n_rq == 0
                and not stalled
                and n_blocked == 0
            ):
                return

    # ------------------------------------------------------------------
    # Macro loop: free-run between windows; writes accumulate unserved.
    # The cores' next writes merge through a heap keyed on live time,
    # lowest core index first on ties.  Only the picked core's key moves
    # between windows; a window may move any core's, so it rebuilds.
    def next_writes():
        heap = []
        for ci, c in enumerate(cores):
            k = c.next_w[c.k]
            if k < c.n:
                heap.append((c.issue[k] + c.D, ci))
        heapq.heapify(heap)
        return heap

    heap = next_writes()
    while heap:
        # Keys ``(time, core)`` are unique: peek the top, and replace it
        # by the picked core's next write rather than pop and push.
        best_t, ci = heap[0]
        c = cores[ci]
        k = c.next_w[c.k]
        if pend_lines and k > c.k:
            # Reads skipped over on the way to this write may hit a
            # pending line: they complete by forwarding, not the array.
            nh = 0
            line = c.line
            for j in range(c.k, k):
                if line[j] in pend_lines:
                    nh += 1
            if nh:
                n_fwd += nh
                read_extra += nh * (fwd_ns - t_read)
                c.D -= nh * (t_read - fwd_ns)
                best_t = c.issue[k] + c.D
        wi = c.widx[k]
        b = c.bank[k]
        ln = c.line[k]
        qb[b].append((best_t, wi, ln))
        occ += 1
        pend_lines[ln] = pend_lines.get(ln, 0) + 1
        c.k = k + 1
        if occ >= hi:
            window_sim(best_t)
            heap = next_writes()
        else:
            k = c.next_w[c.k]
            if k < c.n:
                heapq.heapreplace(heap, (c.issue[k] + c.D, ci))
            else:
                heapq.heappop(heap)
    if pend_lines:
        # Reads after a core's last write may hit a line whose write is
        # still queued for the final drain: they forward too.
        for c in cores:
            line = c.line
            nh = sum(1 for j in range(c.k, c.n) if line[j] in pend_lines)
            n_fwd += nh
            read_extra += nh * (fwd_ns - t_read)
            c.D -= nh * (t_read - fwd_ns)

    finishes = [(c.finish[c.n - 1] + c.D) if c.n else 0.0 for c in cores]
    runtime = max(finishes) if finishes else 0.0
    if occ:
        # Writes still queued when the last record retires are flushed
        # per bank from the end of the run (the DES's final drain).
        for b in range(num_banks):
            free = runtime
            for arr, wi, ln in qb[b]:
                free += svc[wi]
                write_lat[wi] = free - arr

    n_reads = trace.n_reads
    read_lat = t_read + (read_extra / n_reads if n_reads else 0.0)
    w_lat = (sum(write_lat) / n_writes) if n_writes else 0.0
    total_instr = sum(c.instr for c in cores)
    ipc = total_instr / (runtime / config.cpu.cycle_ns) if runtime > 0 else 0.0
    return read_lat, w_lat, ipc, runtime, n_fwd


# ----------------------------------------------------------------------
# Full rows.
# ----------------------------------------------------------------------
def price_cell(
    trace: Trace, workload: str, scheme: str, config: SystemConfig,
    *, model=None,
) -> dict:
    """One sweep row as a field dict (``ExperimentResult(**fields)``).

    Field coercion matches ``_execute_cell``: builtin ``float``/``int``
    so a fresh row is byte-identical after a JSON cache round-trip.
    ``events`` is 0 — the analytic lane processes no DES events — which
    also marks the row's lane in cached artifacts.  ``model``, when
    given, maps the cell's service vector to :func:`model_cell`'s result
    in its place; the sweep engine passes one that reuses the result of
    a cell of the same run with an equal vector.
    """
    service, units, energy = price_write_service(trace, scheme, config)
    read_lat, w_lat, ipc, runtime, n_fwd = (
        model_cell(trace, service, config) if model is None else model(service)
    )
    return {
        "workload": workload,
        "scheme": scheme,
        "read_latency_ns": float(read_lat),
        "write_latency_ns": float(w_lat),
        "ipc": float(ipc),
        "runtime_ns": float(runtime),
        "mean_write_units": float(units.mean()) if units.size else 0.0,
        "mean_write_energy": float(energy.mean()) if energy.size else 0.0,
        "forwarded_reads": int(n_fwd),
        "events": 0,
    }
